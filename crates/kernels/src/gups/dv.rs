//! GUPS on the Data Vortex: aggregation at source, fine-grained packets.
//!
//! Remote updates become single surprise-FIFO packets (the payload *is*
//! the HPCC random value — the destination recomputes the index from it,
//! using the global-address mapping it keeps in DV memory). Up to 1024
//! packets — to *any* mix of destinations — ride one PCIe DMA batch
//! ("aggregation at source"); the switch routes them without congesting.
//! The run is one epoch of the `dv-api` recovery layer ([`ReliableFifo`]),
//! closed by its epoch close ([`ReliableFifo::close_epoch`]): the
//! per-peer sent counts written into DV memory, the coordination idiom
//! Section III describes.
//!
//! Each node's thread builds its table, stream and endpoint, then runs
//! the whole kernel as one body in the simulator's kernel
//! ([`DvCtx::run`]): between its start and its result the thread never
//! runs, however many times the node waits.
//!
//! Updates lost to FIFO overflow (or an injected fault plan) are detected
//! against the VIC's hardware accepted counts and retransmitted before
//! the per-peer sent counts are posted, so the kernel completes with the
//! exact answer instead of asserting that loss never happens. Update
//! payloads are globally unique (the LFSR streams occupy disjoint windows
//! and never repeat within a run), which the layer's exactly-once dedup
//! relies on.

use dv_core::config::ComputeParams;
use dv_core::spec::SimSpec;
use dv_core::trace::State;
use dv_core::Word;
use dv_api::{Aggregator, At, DvCluster, DvCtx, ReliableFifo, SendMode};
use dv_sim::SimCtx;

use crate::util::{spend, spend_updates, BlockDist};

use super::{locate, GupsConfig, GupsResult};

/// Random-number generation rate (values/s).
const GEN_RATE: f64 = 600e6;

async fn apply_updates(at: &At, words: &[Word], dist: &BlockDist, table: &mut [u64], compute: &ComputeParams) {
    for &ran in words {
        let (owner, idx) = locate(dist, ran);
        debug_assert_eq!(owner, at.node(), "update routed to the wrong node");
        table[idx] ^= ran;
    }
    spend_updates(at, compute, words.len() as u64).await;
}

/// Run GUPS on the cluster described by `spec` — machine config, tracing,
/// metrics, faults, engine, and streaming all come from the spec. The one
/// entry point the benchmark binaries use.
pub fn run_spec(cfg: GupsConfig, spec: SimSpec) -> GupsResult {
    run_ablate(cfg, spec, true)
}

/// [`run_spec`] with a switch for the source aggregation (the
/// `ablate_aggregation` bench turns it off: every remote update then pays
/// its own PCIe crossing).
pub fn run_ablate(cfg: GupsConfig, spec: SimSpec, aggregate: bool) -> GupsResult {
    let nodes = spec.nodes;
    let dist = BlockDist::new(cfg.global_words(nodes), nodes);
    let compute = spec.machine.compute.clone();
    let cluster = DvCluster::from_spec(spec);
    let report = cluster.run(move |dv, ctx| node(dv, ctx, cfg, dist, &compute, aggregate));

    let total_updates: u64 = report.result.iter().map(|(a, _)| a).sum();
    let checksum = report.result.iter().fold(0u64, |a, (_, c)| a ^ c);
    GupsResult { nodes, total_updates, elapsed: report.elapsed, checksum }
}

/// One node's GUPS: its thread builds the inputs, then hands the whole run
/// to the kernel as one body (see `dv_api::op`), and takes back the
/// updates applied here and the XOR of the final local table.
fn node(dv: &DvCtx, ctx: &SimCtx, cfg: GupsConfig, dist: BlockDist, compute: &ComputeParams, aggregate: bool) -> (u64, u64) {
    let me = dv.node();
    let compute = compute.clone();
    let my_start = dist.start(me) as u64;
    let mut table: Vec<u64> = (my_start..my_start + dist.count(me) as u64).collect();
    let mut stream = cfg.stream_for(me);
    // The 1024-access HPCC buffering cap applies to the aggregator.
    let threshold = if aggregate { cfg.bucket } else { 1 };
    let mode = if aggregate {
        SendMode::Dma { cached_headers: true }
    } else {
        SendMode::DirectWrite { cached_headers: false }
    };
    let mut agg = Aggregator::with_mode(threshold, mode);
    let mut rel = ReliableFifo::new(dv);
    // Reserved on this thread (`ReliableFifo::reserve`): a node sends at
    // most its own updates and receives about as many, and between two
    // drains at most the two buckets the pacing lets fly.
    rel.reserve(cfg.updates_per_node, cfg.updates_per_node);
    let mut words: Vec<Word> = Vec::with_capacity(2 * cfg.bucket);

    dv.run(ctx, move |at| async move {
        let mut applied = 0u64;
        at.barrier().await;
        let rounds = cfg.updates_per_node.div_ceil(cfg.bucket);
        for round in 0..rounds {
            let round_start = at.now();
            let batch = cfg.bucket.min(cfg.updates_per_node - round * cfg.bucket);
            let mut local_count = 0u64;
            for _ in 0..batch {
                let ran = stream.next_u64();
                let (owner, idx) = locate(&dist, ran);
                if owner == me {
                    table[idx] ^= ran;
                    local_count += 1;
                    applied += 1;
                } else if rel.queue(&mut agg, owner, ran) {
                    at.flush(&mut agg).await;
                }
            }
            spend(&at, batch as u64, GEN_RATE).await;
            spend_updates(&at, &compute, local_count).await;
            // Interleave draining so nobody's FIFO backs up.
            at.drain(&mut rel, &mut words).await;
            apply_updates(&at, &words, &dist, &mut table, &compute).await;
            words.clear();
            at.world().tracer.span(me, State::Compute, round_start, at.now());
            // Coarse pacing: bound sender/receiver skew so the surprise
            // FIFO (capacity "thousands of messages") rarely overflows.
            // A skew window of 2 buckets keeps worst-case in-flight
            // traffic near 2×1024 packets, well under the FIFO capacity;
            // the recovery layer repairs whatever still slips through.
            if (round + 1) % 2 == 0 {
                at.flush(&mut agg).await;
                at.fast_barrier().await;
                at.drain(&mut rel, &mut words).await;
                apply_updates(&at, &words, &dist, &mut table, &compute).await;
                words.clear();
            }
        }
        // Retransmit whatever the FIFOs dropped, post the per-peer sent
        // counts, and apply updates until every promised one arrived.
        let mut close = rel.close_epoch(&mut agg);
        while close.next(&at, &mut words).await {
            apply_updates(&at, &words, &dist, &mut table, &compute).await;
        }
        applied += close.finish(&mut rel, &mut agg);
        rel.publish(at.world());
        at.fast_barrier().await;
        (applied, table.iter().fold(0u64, |a, &b| a ^ b))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gups::serial_reference;

    #[test]
    fn dv_gups_matches_serial_reference_exactly() {
        let cfg = GupsConfig::test_small();
        for nodes in [2usize, 4] {
            let r = run_spec(cfg, SimSpec::new(nodes));
            let (_, expect) = serial_reference(&cfg, nodes);
            assert_eq!(r.checksum, expect, "nodes={nodes}");
            assert_eq!(r.total_updates, (cfg.updates_per_node * nodes) as u64);
        }
    }

    #[test]
    fn a_node_reaches_its_thread_only_to_start_and_to_return() {
        // The whole run is one kernel-run body: every wait between the
        // start and the result — compute charges, flushes, drains,
        // barriers, the epoch close — is polled in the kernel.
        const NODES: usize = 32;
        let cfg = GupsConfig::test_small();
        let dist = BlockDist::new(cfg.global_words(NODES), NODES);
        let spec = SimSpec::new(NODES);
        let compute = spec.machine.compute.clone();
        let report = DvCluster::from_spec(spec).run(move |dv, ctx| {
            node(dv, ctx, cfg, dist, &compute, true);
            // The last node to read sees every node's handoffs.
            ctx.with_kernel(|k| k.sched_stats())
        });
        let stats = report.result.iter().max_by_key(|s| s.thread_resumes).expect("32 nodes");
        assert_eq!(stats.thread_resumes, 2 * NODES as u64, "{stats:?}");
        assert!(stats.resumes > 20 * stats.thread_resumes, "the body waits in the kernel: {stats:?}");
    }

    #[test]
    fn dv_and_mpi_compute_identical_tables() {
        let cfg = GupsConfig::test_small();
        let dv = run_spec(cfg, SimSpec::new(4));
        let mpi = super::super::mpi::run_spec(cfg, SimSpec::new(4));
        assert_eq!(dv.checksum, mpi.checksum);
    }

    #[test]
    fn per_node_rate_is_roughly_flat_with_scale() {
        // Figure 6a's Data Vortex curve. HPCC sizing (updates = 4x table)
        // keeps the LFSR warm-up transient from dominating.
        let cfg = GupsConfig { table_per_node: 1 << 11, updates_per_node: 1 << 13, bucket: 1024, stream_offset: 0 };
        let r4 = run_spec(cfg, SimSpec::new(4));
        let r16 = run_spec(cfg, SimSpec::new(16));
        let ratio = r16.mups_per_node() / r4.mups_per_node();
        assert!(ratio > 0.6, "per-node rate collapsed: {ratio}");
    }

    #[test]
    #[ignore = "diagnostic probe; run with --ignored --nocapture to see the scaling curve"]
    fn gups_scaling_probe() {
        // HPCC convention: updates = 4 x table size, which also washes out
        // the sparse-polynomial transient at the head of the LFSR streams.
        let cfg = GupsConfig { table_per_node: 1 << 13, updates_per_node: 4 << 13, bucket: 1024, stream_offset: 0 };
        for nodes in [4usize, 8, 16, 32] {
            let dv = run_spec(cfg, SimSpec::new(nodes));
            let mpi = super::super::mpi::run_spec(cfg, SimSpec::new(nodes));
            println!(
                "nodes={nodes:2}  DV {:7.2} MUPS/node ({:8.1} total)   MPI {:7.2} MUPS/node ({:8.1} total)",
                dv.mups_per_node(),
                dv.mups_total(),
                mpi.mups_per_node(),
                mpi.mups_total()
            );
        }
    }

    #[test]
    fn dv_beats_mpi_at_scale() {
        // Figure 6b's gap.
        let cfg = GupsConfig { table_per_node: 1 << 11, updates_per_node: 1 << 13, bucket: 1024, stream_offset: 0 };
        let dv = run_spec(cfg, SimSpec::new(16));
        let mpi = super::super::mpi::run_spec(cfg, SimSpec::new(16));
        assert!(
            dv.mups_total() > mpi.mups_total(),
            "dv {} mpi {}",
            dv.mups_total(),
            mpi.mups_total()
        );
    }

    #[test]
    fn aggregation_ablation_shows_the_mechanism() {
        let cfg = GupsConfig { table_per_node: 1 << 10, updates_per_node: 1 << 10, bucket: 1024, stream_offset: 0 };
        let with = run_ablate(cfg, SimSpec::new(4), true);
        let without = run_ablate(cfg, SimSpec::new(4), false);
        assert_eq!(with.checksum, without.checksum, "aggregation must not change results");
        assert!(
            with.mups_total() > 2.0 * without.mups_total(),
            "aggregation should be the dominant win: with {} without {}",
            with.mups_total(),
            without.mups_total()
        );
    }
}
