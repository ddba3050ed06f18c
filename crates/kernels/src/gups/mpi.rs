//! GUPS over MPI: the HPCC-style bucketed alltoallv implementation.
//!
//! Each 1024-update batch is sorted into per-destination buckets and
//! exchanged collectively. As the node count grows the per-destination
//! bucket shrinks (1024/(p−1) updates), so the exchange becomes message-
//! rate bound — the mechanism behind the falling MPI curve of Figure 6a.

use dv_core::spec::SimSpec;
use mini_mpi::{MpiCluster, Payload};

use crate::util::{charge, charge_updates, BlockDist};

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
    let report = cluster.run(move |comm, ctx| {
        let me = comm.rank();
        let p = comm.size();
        let compute = compute.clone();
        let my_start = dist.start(me) as u64;
        let mut table: Vec<u64> =
            (my_start..my_start + dist.count(me) as u64).collect();
        let mut stream = cfg.stream_for(me);
        let mut applied = 0u64;
        let (mut drawn, mut sizes) = (Vec::with_capacity(cfg.bucket), vec![0usize; p]);

        comm.barrier(ctx);
        let rounds = cfg.updates_per_node.div_ceil(cfg.bucket);
        for round in 0..rounds {
            let batch = cfg.bucket.min(cfg.updates_per_node - round * cfg.bucket);
            // Generate and bucket by owner (≤1024 buffered: HPCC rule),
            // each bucket allocated once, at its size.
            drawn.clear();
            drawn.extend((0..batch).map(|_| stream.next_u64()));
            sizes.fill(0);
            drawn.iter().for_each(|&ran| sizes[locate(&dist, ran).0] += 1);
            let mut buckets: Vec<Vec<u64>> = sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
            drawn.iter().for_each(|&ran| buckets[locate(&dist, ran).0].push(ran));
            charge(ctx, batch as u64, GEN_RATE);

            // Apply the local bucket.
            let local = std::mem::take(&mut buckets[me]);
            for ran in &local {
                let (_, idx) = locate(&dist, *ran);
                table[idx] ^= ran;
            }
            charge_updates(ctx, &compute, local.len() as u64);
            applied += local.len() as u64;

            // Exchange the rest collectively.
            let blocks: Vec<Payload> = buckets.into_iter().map(Payload::U64).collect();
            let incoming = comm.alltoall(ctx, blocks);
            let mut received = 0u64;
            for block in incoming {
                for ran in block.into_u64() {
                    let (owner, idx) = locate(&dist, ran);
                    debug_assert_eq!(owner, me, "update routed to the wrong rank");
                    table[idx] ^= ran;
                    received += 1;
                }
            }
            charge_updates(ctx, &compute, received);
            applied += received;
        }
        comm.barrier(ctx);
        let checksum = table.iter().fold(0u64, |a, &b| a ^ b);
        (applied, checksum)
    });

    let total_updates: u64 = report.result.iter().map(|(a, _)| a).sum();
    let checksum = report.result.iter().fold(0u64, |a, (_, c)| a ^ c);
    GupsResult { nodes, total_updates, elapsed: report.elapsed, checksum }
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
