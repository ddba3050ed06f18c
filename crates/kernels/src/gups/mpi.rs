//! GUPS over MPI: the HPCC-style bucketed alltoallv implementation.
//!
//! Each 1024-update batch is sorted into per-destination buckets and
//! exchanged collectively. As the node count grows the per-destination
//! bucket shrinks (1024/(p−1) updates), so the exchange becomes message-
//! rate bound — the mechanism behind the falling MPI curve of Figure 6a.
//!
//! Each rank's thread builds its table and buckets, then runs the whole
//! kernel as one body in the simulator's kernel ([`Comm::run`]): between
//! its start and its result the thread never runs.

use dv_core::config::ComputeParams;
use dv_core::spec::SimSpec;
use dv_sim::SimCtx;
use mini_mpi::{Comm, MpiCluster, Payload};

use crate::util::{spend, spend_updates, BlockDist};

use super::{locate, GupsConfig, GupsResult};

/// Random-number generation rate (values/s) — a shift and a xor per value.
const GEN_RATE: f64 = 600e6;

/// Run GUPS over MPI on the cluster described by `spec` — machine config,
/// tracing, metrics, engine, and streaming all come from the spec. Returns
/// performance and the distributed table checksum (XOR over all nodes).
pub fn run_spec(cfg: GupsConfig, spec: SimSpec) -> GupsResult {
    let nodes = spec.nodes;
    let dist = BlockDist::new(cfg.global_words(nodes), nodes);
    let compute = spec.machine.compute.clone();
    let cluster = MpiCluster::from_spec(spec);
    let report = cluster.run(move |comm, ctx| rank(comm, ctx, cfg, dist, &compute));

    let total_updates: u64 = report.result.iter().map(|(a, _)| a).sum();
    let checksum = report.result.iter().fold(0u64, |a, (_, c)| a ^ c);
    GupsResult { nodes, total_updates, elapsed: report.elapsed, checksum }
}

/// One rank's GUPS: its thread builds the table and reserves the buckets,
/// then hands the whole run to the kernel as one body
/// ([`Comm::run`]), and takes back the updates applied here and the XOR
/// of the final local table.
fn rank(comm: &Comm, ctx: &SimCtx, cfg: GupsConfig, dist: BlockDist, compute: &ComputeParams) -> (u64, u64) {
    let (me, p) = (comm.rank(), comm.size());
    let compute = compute.clone();
    let my_start = dist.start(me) as u64;
    let mut table: Vec<u64> = (my_start..my_start + dist.count(me) as u64).collect();
    let mut stream = cfg.stream_for(me);
    // One bucket per owner, reserved on this thread at half again a
    // batch's even share: an owner's count is binomial around the share,
    // so a bucket rarely outgrows it, and a larger margin only holds more
    // memory. A round's buckets leave as its blocks, and the blocks it
    // receives are the next round's buckets.
    let share = 3 * cfg.bucket.div_ceil(p) / 2;
    let mut buckets: Vec<Vec<u64>> = (0..p).map(|_| Vec::with_capacity(share)).collect();
    let mut blocks: Vec<Payload> = Vec::with_capacity(p);

    comm.run(ctx, move |r| async move {
        let mut applied = 0u64;
        r.barrier().await;
        let rounds = cfg.updates_per_node.div_ceil(cfg.bucket);
        for round in 0..rounds {
            let batch = cfg.bucket.min(cfg.updates_per_node - round * cfg.bucket);
            // Generate and bucket by owner (≤1024 buffered: HPCC rule).
            for _ in 0..batch {
                let ran = stream.next_u64();
                buckets[locate(&dist, ran).0].push(ran);
            }
            spend(&r, batch as u64, GEN_RATE).await;

            // Apply the local bucket.
            let local = &mut buckets[me];
            for &ran in local.iter() {
                table[locate(&dist, ran).1] ^= ran;
            }
            let local_count = local.len() as u64;
            local.clear();
            spend_updates(&r, &compute, local_count).await;
            applied += local_count;

            // Exchange the rest collectively.
            blocks.extend(buckets.iter_mut().map(|b| Payload::U64(std::mem::take(b))));
            blocks = r.alltoall(blocks).await;
            let mut received = 0u64;
            for (src, block) in blocks.drain(..).enumerate() {
                let mut words = block.into_u64();
                for &ran in &words {
                    let (owner, idx) = locate(&dist, ran);
                    debug_assert_eq!(owner, me, "update routed to the wrong rank");
                    table[idx] ^= ran;
                }
                received += words.len() as u64;
                words.clear();
                buckets[src] = words;
            }
            spend_updates(&r, &compute, received).await;
            applied += received;
        }
        r.barrier().await;
        (applied, table.iter().fold(0u64, |a, &b| a ^ b))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gups::serial_reference;

    #[test]
    fn mpi_gups_matches_serial_reference_exactly() {
        let cfg = GupsConfig::test_small();
        for nodes in [2usize, 4] {
            let r = run_spec(cfg, SimSpec::new(nodes));
            let (_, expect) = serial_reference(&cfg, nodes);
            assert_eq!(r.checksum, expect, "nodes={nodes}");
            assert_eq!(r.total_updates, (cfg.updates_per_node * nodes) as u64);
        }
    }

    #[test]
    fn a_rank_reaches_its_thread_only_to_start_and_to_return() {
        // The whole run is one kernel-run body: every wait between the
        // start and the result — compute charges, barriers, each round's
        // alltoall — is polled in the kernel.
        const NODES: usize = 32;
        let cfg = GupsConfig::test_small();
        let dist = BlockDist::new(cfg.global_words(NODES), NODES);
        let spec = SimSpec::new(NODES);
        let compute = spec.machine.compute.clone();
        let report = MpiCluster::from_spec(spec).run(move |comm, ctx| {
            rank(comm, ctx, cfg, dist, &compute);
            // The last rank to read sees every rank's handoffs.
            ctx.with_kernel(|k| k.sched_stats())
        });
        let stats = report.result.iter().max_by_key(|s| s.thread_resumes).expect("32 ranks");
        assert_eq!(stats.thread_resumes, 2 * NODES as u64, "{stats:?}");
        assert!(stats.resumes > 20 * stats.thread_resumes, "the body waits in the kernel: {stats:?}");
    }

    #[test]
    fn per_node_rate_falls_with_scale() {
        // Figure 6a's MPI curve.
        let cfg = GupsConfig { table_per_node: 1 << 11, updates_per_node: 1 << 13, bucket: 1024, stream_offset: 0 };
        let r4 = run_spec(cfg, SimSpec::new(4));
        let r16 = run_spec(cfg, SimSpec::new(16));
        assert!(
            r16.mups_per_node() < r4.mups_per_node(),
            "4n {} 16n {}",
            r4.mups_per_node(),
            r16.mups_per_node()
        );
    }
}
