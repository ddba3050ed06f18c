//! BFS on the Data Vortex: fine-grained visit packets, source aggregation.
//!
//! "With the Data Vortex, we merely need a sufficient volume of outgoing
//! messages from each node (that can be directed to different
//! destinations) to ensure that host-to-VIC transfers across the PCIe bus
//! happen efficiently. This 'source aggregation' ... is sufficient to
//! hide most PCIe latency." (Section VI)
//!
//! Remote visits are single FIFO packets `(vertex, parent)`; termination
//! uses all-to-all frontier-count posts.
//!
//! Visits ride the `dv-api` recovery layer ([`ReliableFifo`]), one epoch
//! per BFS level, and a level completes with the DV-memory sent-count
//! protocol of [`ReliableFifo::complete_epoch`] at `CNT_BASE`: visits
//! lost to FIFO overflow (or an injected fault plan) are retransmitted
//! against the hardware accepted counts *before* the sent counts are
//! posted, so levels complete exactly. Parallel edges produce duplicate
//! `(vertex, parent)` words; the layer's outbound dedup absorbs them
//! (each logical pair crosses the wire once per level), and pairs are
//! unique across levels because a vertex joins the frontier at most once.

use std::sync::Arc;

use dv_core::spec::SimSpec;
use dv_core::packet::{Packet, PacketHeader, SCRATCH_GC};
use dv_api::{Aggregator, DvCluster, ReliableFifo, SendMode};

use crate::util::{charge_edges, pack2, unpack2};

use super::mpi::BfsRunResult;
use super::{Csr, VertexPart};

/// DV-memory slots: per-peer sent counts for the current level.
const CNT_BASE: u32 = 64;
/// DV-memory slots: per-peer next-frontier sizes, past every sent count.
const FS_BASE: u32 = CNT_BASE + dv_api::ctx::FIFO_RECV_SLOTS as u32;
/// Aggregation threshold (packets per PCIe batch).
const AGG: usize = 1024;

struct LevelState {
    parents: Vec<i64>,
    next: Vec<u32>,
    applied: u64,
}

fn apply_visits(part: &VertexPart, me: usize, st: &mut LevelState, words: &[u64]) {
    for &w in words {
        let (v, u) = unpack2(w);
        debug_assert_eq!(part.owner(v), me);
        let lv = part.local(v);
        st.applied += 1;
        if st.parents[lv] < 0 {
            st.parents[lv] = u as i64;
            st.next.push(v);
        }
    }
}

/// Run one BFS from `root` on the Data Vortex cluster described by `spec`
/// — machine config, metrics, tracing, faults, engine, and streaming all
/// come from the spec.
pub fn run_spec(locals: &[Csr], n: usize, root: u32, spec: SimSpec) -> BfsRunResult {
    let nodes = locals.len();
    assert_eq!(spec.nodes, nodes, "spec.nodes must match the partition");
    assert!(
        FS_BASE as usize + nodes <= dv_api::ctx::FIFO_RECV_BASE as usize,
        "BFS coordination slots overlap the accepted-count block ({nodes} nodes)"
    );
    let part = VertexPart { nodes };
    let locals: Arc<Vec<Csr>> = Arc::new(locals.to_vec());
    let compute = spec.machine.compute.clone();
    let cluster = DvCluster::from_spec(spec);
    let report = cluster.run(move |dv, ctx| {
        let me = dv.node();
        let p = dv.nodes();
        let compute = compute.clone();
        let csr = &locals[me];
        let mut st = LevelState { parents: vec![-1i64; csr.vertices()], next: Vec::new(), applied: 0 };
        let mut scanned = 0u64;
        let mut frontier: Vec<u32> = Vec::new();
        if part.owner(root) == me {
            st.parents[part.local(root)] = root as i64;
            frontier.push(root);
        }
        let mut rel = ReliableFifo::new(dv);
        dv.barrier(ctx);

        loop {
            // --- scan + stream remote visits ---------------------------
            let mut agg = Aggregator::new(AGG);
            let mut since_drain = 0usize;
            for &u in &frontier {
                let lu = part.local(u);
                for &v in locals[me].neighbors(lu as u32) {
                    scanned += 1;
                    let owner = part.owner(v);
                    if owner == me {
                        let lv = part.local(v);
                        st.applied += 1;
                        if st.parents[lv] < 0 {
                            st.parents[lv] = u as i64;
                            st.next.push(v);
                        }
                    } else {
                        // Parallel edges dedup at the send side: only
                        // words actually on the wire count as promises.
                        rel.send(ctx, dv, &mut agg, owner, pack2(v, u));
                    }
                    since_drain += 1;
                    if since_drain >= AGG / 2 {
                        // Charge the scan work incrementally so virtual
                        // time advances *between* drains — a lump charge
                        // at level end would leave the FIFO unserviced
                        // while peers flood it.
                        charge_edges(ctx, &compute, since_drain as u64);
                        since_drain = 0;
                        apply_visits(&part, me, &mut st, &rel.drain_unique(ctx, dv));
                    }
                }
            }
            charge_edges(ctx, &compute, frontier.len() as u64 + since_drain as u64);
            apply_visits(&part, me, &mut st, &rel.drain_unique(ctx, dv));

            // --- verify, post sent counts, drain every promised visit ----
            let received = rel.complete_epoch(ctx, dv, &mut agg, CNT_BASE, |words| {
                apply_visits(&part, me, &mut st, words)
            });
            charge_edges(ctx, &compute, received);

            // --- agree on termination -----------------------------------
            let fs_posts: Vec<Packet> = (0..p)
                .filter(|&d| d != me)
                .map(|d| {
                    Packet::new(
                        PacketHeader::dv_memory(me, d, FS_BASE + me as u32, SCRATCH_GC),
                        st.next.len() as u64 + 1,
                    )
                })
                .collect();
            dv.send_packets(ctx, &fs_posts, SendMode::DirectWrite { cached_headers: true });
            let total_next;
            loop {
                let slots = dv.peek_local(ctx, FS_BASE, p);
                if (0..p).filter(|&s| s != me).all(|s| slots[s] != 0) {
                    total_next = (0..p)
                        .map(|s| if s == me { st.next.len() as u64 } else { slots[s] - 1 })
                        .sum::<u64>();
                    break;
                }
                // Anything buffered here is a retransmission duplicate
                // (all unique visits were drained above); discard it.
                let stray = rel.recv_unique_deadline(ctx, dv, ctx.now() + dv_core::time::us(1));
                debug_assert!(stray.is_none(), "new visit arrived after level completion");
            }

            // --- reset level slots, then fence ---------------------------
            dv.write_local(ctx, CNT_BASE, &vec![0u64; p]);
            dv.write_local(ctx, FS_BASE, &vec![0u64; p]);
            dv.fast_barrier(ctx);

            frontier = std::mem::take(&mut st.next);
            if total_next == 0 {
                break;
            }
        }
        rel.publish(dv);
        (scanned, st.parents)
    });

    let (elapsed, results) = (report.elapsed, report.result);
    let edges_scanned: u64 = results.iter().map(|(s, _)| s).sum();
    let mut parents = vec![-1i64; n];
    for (node, (_, local)) in results.into_iter().enumerate() {
        for (l, pr) in local.into_iter().enumerate() {
            let g = part.global(node, l) as usize;
            if g < n {
                parents[g] = pr;
            }
        }
    }
    BfsRunResult { root, edges_scanned, elapsed, parents }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{kronecker_edges, partition_csr, pick_roots, validate_bfs, Csr, GraphConfig};

    fn setup(nodes: usize) -> (GraphConfig, Csr, Vec<Csr>) {
        let cfg = GraphConfig::test_small();
        let edges = kronecker_edges(&cfg);
        let csr = Csr::build(cfg.vertices(), &edges);
        let locals = partition_csr(&csr, VertexPart { nodes });
        (cfg, csr, locals)
    }

    #[test]
    fn dv_bfs_produces_valid_trees() {
        let (cfg, csr, locals) = setup(4);
        for root in pick_roots(&csr, 2, 3) {
            let r = run_spec(&locals, cfg.vertices(), root, SimSpec::new(locals.len()));
            validate_bfs(&csr, root, &r.parents).expect("invalid BFS tree");
        }
    }

    #[test]
    fn dv_and_mpi_visit_identical_vertex_sets() {
        let (cfg, csr, locals) = setup(4);
        let root = pick_roots(&csr, 1, 9)[0];
        let dv = run_spec(&locals, cfg.vertices(), root, SimSpec::new(locals.len()));
        let mpi = super::super::mpi::run_spec(&locals, cfg.vertices(), root, SimSpec::new(locals.len()));
        let dv_visited: Vec<bool> = dv.parents.iter().map(|&p| p >= 0).collect();
        let mpi_visited: Vec<bool> = mpi.parents.iter().map(|&p| p >= 0).collect();
        assert_eq!(dv_visited, mpi_visited);
        let _ = csr;
    }

    #[test]
    fn dv_bfs_is_faster_than_mpi_at_scale() {
        // Figure 8's ordering.
        let (cfg, csr, locals) = setup(8);
        let root = pick_roots(&csr, 1, 5)[0];
        let dv = run_spec(&locals, cfg.vertices(), root, SimSpec::new(locals.len()));
        let mpi = super::super::mpi::run_spec(&locals, cfg.vertices(), root, SimSpec::new(locals.len()));
        assert!(dv.teps() > mpi.teps(), "dv {} mpi {}", dv.teps(), mpi.teps());
    }
}
