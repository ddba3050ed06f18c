//! BFS on the Data Vortex: fine-grained visit packets, source aggregation.
//!
//! "With the Data Vortex, we merely need a sufficient volume of outgoing
//! messages from each node (that can be directed to different
//! destinations) to ensure that host-to-VIC transfers across the PCIe bus
//! happen efficiently. This 'source aggregation' ... is sufficient to
//! hide most PCIe latency." (Section VI)
//!
//! Remote visits are single FIFO packets `(vertex, parent)`; termination
//! uses all-to-all frontier-count posts, awaited with
//! [`dv_api::At::await_posts`].
//!
//! Each node's thread builds its state and reserves what the levels grow,
//! then runs the whole search as one body in the simulator's kernel
//! ([`DvCtx::run`]): between its start and its result the thread never
//! runs, however many times the node waits.
//!
//! Visits ride the `dv-api` recovery layer ([`ReliableFifo`]), one epoch
//! per BFS level, and a level completes with the DV-memory sent-count
//! protocol of [`ReliableFifo::close_epoch`]: visits lost to FIFO
//! overflow (or an injected fault plan) are retransmitted against the
//! hardware accepted counts *before* the sent counts are posted, so
//! levels complete exactly. The layer needs every word unique across the
//! run. A vertex joins the frontier at most once, so its row is scanned at
//! most once and `(vertex, parent)` pairs of different rows differ; parallel
//! edges repeat a pair *within* a row, and the scan skips those repeats
//! (`mark_repeats`), so each logical pair crosses the wire once.

use std::sync::Arc;

use dv_core::config::ComputeParams;
use dv_core::spec::SimSpec;
use dv_core::packet::{Packet, PacketHeader, SCRATCH_GC};
use dv_core::Word;
use dv_api::{Aggregator, DvCluster, DvCtx, ReliableFifo, SendMode};
use dv_sim::SimCtx;

use crate::util::{pack2, spend_edges, unpack2};

use super::mpi::BfsRunResult;
use super::{Csr, VertexPart};

/// Aggregation threshold (packets per PCIe batch).
const AGG: usize = 1024;

struct LevelState {
    parents: Vec<i64>,
    next: Vec<u32>,
    applied: u64,
}

/// Mark in `repeat` (resized to the row) every entry of `row` equal to an
/// earlier entry of the same row; the first occurrence stays unmarked and
/// `row` is not reordered. Sorts `(target, position)` keys in `keys`, a
/// stable sort by target in O(row) memory.
fn mark_repeats(row: &[u32], keys: &mut Vec<u64>, repeat: &mut Vec<bool>) {
    repeat.clear();
    repeat.resize(row.len(), false);
    if row.len() < 2 {
        return;
    }
    keys.clear();
    keys.extend(row.iter().enumerate().map(|(i, &v)| u64::from(v) << 32 | i as u64));
    keys.sort_unstable();
    for pair in keys.windows(2) {
        if pair[0] >> 32 == pair[1] >> 32 {
            repeat[pair[1] as u32 as usize] = true;
        }
    }
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
    let part = VertexPart { nodes };
    let locals: Arc<Vec<Csr>> = Arc::new(locals.to_vec());
    let compute = spec.machine.compute.clone();
    let cluster = DvCluster::from_spec(spec);
    let report = cluster.run(move |dv, ctx| node(dv, ctx, Arc::clone(&locals), root, &compute));

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

/// One node's BFS: its thread builds the inputs and reserves what the
/// levels will grow, then hands the whole search to the kernel as one body
/// (see `dv_api::op`), and takes back the edges scanned here and the
/// local parents.
fn node(dv: &DvCtx, ctx: &SimCtx, locals: Arc<Vec<Csr>>, root: u32, compute: &ComputeParams) -> (u64, Vec<i64>) {
    let (me, p) = (dv.node(), dv.nodes());
    let part = VertexPart { nodes: p };
    let (counts, sizes) = (dv.layout().epoch_counts, dv.layout().frontier_sizes);
    let compute = compute.clone();
    let csr = &locals[me];
    let vertices = csr.vertices();
    // Reserved on this thread (`ReliableFifo::reserve`): a vertex joins a
    // frontier once, so a node sends at most its entries and, the graph
    // being undirected, receives about as many over the run.
    let entries = csr.targets.len();
    let widest = csr.offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    let mut st = LevelState { parents: vec![-1i64; vertices], next: Vec::with_capacity(vertices), applied: 0 };
    let mut frontier: Vec<u32> = Vec::with_capacity(vertices);
    if part.owner(root) == me {
        st.parents[part.local(root)] = root as i64;
        frontier.push(root);
    }
    let mut rel = ReliableFifo::new(dv);
    rel.reserve(entries, entries);
    let mut agg = Aggregator::new(AGG);
    let (mut keys, mut repeat) = (Vec::with_capacity(widest), Vec::with_capacity(widest));
    let mut words: Vec<Word> = Vec::with_capacity(AGG);
    let mut fs_posts: Vec<Packet> = Vec::with_capacity(p);
    let zeros = vec![0u64; p];

    dv.run(ctx, move |at| async move {
        let csr = &locals[me];
        let mut scanned = 0u64;
        at.barrier().await;
        loop {
            // --- scan + stream remote visits ---------------------------
            let mut since_drain = 0usize;
            for &u in &frontier {
                let row = csr.neighbors(part.local(u) as u32);
                mark_repeats(row, &mut keys, &mut repeat);
                for (&v, &again) in row.iter().zip(&repeat) {
                    scanned += 1;
                    // A local visit applies at once. A remote one is
                    // queued, but a parallel edge's repeat (`again`) is
                    // scanned and not sent: words must be unique across
                    // the run.
                    let owner = part.owner(v);
                    if owner == me {
                        let lv = part.local(v);
                        st.applied += 1;
                        if st.parents[lv] < 0 {
                            st.parents[lv] = u as i64;
                            st.next.push(v);
                        }
                    } else if !again && rel.queue(&mut agg, owner, pack2(v, u)) {
                        at.flush(&mut agg).await;
                    }
                    since_drain += 1;
                    if since_drain >= AGG / 2 {
                        // Charge the scan work incrementally so virtual
                        // time advances *between* drains — a lump charge
                        // at level end would leave the FIFO unserviced
                        // while peers flood it.
                        spend_edges(&at, &compute, since_drain as u64).await;
                        since_drain = 0;
                        at.drain(&mut rel, &mut words).await;
                        apply_visits(&part, me, &mut st, &words);
                        words.clear();
                    }
                }
            }
            spend_edges(&at, &compute, frontier.len() as u64 + since_drain as u64).await;
            at.drain(&mut rel, &mut words).await;
            apply_visits(&part, me, &mut st, &words);
            words.clear();

            // --- verify, post sent counts, drain every promised visit ----
            let mut close = rel.close_epoch(&mut agg);
            while close.next(&at, &mut words).await {
                apply_visits(&part, me, &mut st, &words);
            }
            let received = close.finish(&mut rel, &mut agg);
            spend_edges(&at, &compute, received).await;

            // --- agree on termination -----------------------------------
            fs_posts.clear();
            fs_posts.extend((0..p).filter(|&d| d != me).map(|d| {
                Packet::new(
                    PacketHeader::dv_memory(me, d, sizes + me as u32, SCRATCH_GC),
                    st.next.len() as u64 + 1,
                )
            }));
            at.send(&fs_posts, SendMode::DirectWrite { cached_headers: true }).await;
            let slots = at.await_posts(&mut rel, sizes).await;
            let total_next = (0..p)
                .map(|s| if s == me { st.next.len() as u64 } else { slots[s] - 1 })
                .sum::<u64>();

            // --- reset level slots, then fence ---------------------------
            at.write_local(counts, &zeros).await;
            at.write_local(sizes, &zeros).await;
            at.fast_barrier().await;

            std::mem::swap(&mut frontier, &mut st.next);
            st.next.clear();
            if total_next == 0 {
                break;
            }
        }
        rel.publish(at.world());
        (scanned, st.parents)
    })
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
    fn mark_repeats_keeps_first_occurrences_in_row_order() {
        let (mut keys, mut repeat) = (Vec::new(), vec![true; 3]);
        let row = [7u32, 3, 7, 9, 3, 3, 0, 7];
        mark_repeats(&row, &mut keys, &mut repeat);
        assert_eq!(repeat, [false, false, true, false, true, true, false, true]);
        assert_eq!(row, [7, 3, 7, 9, 3, 3, 0, 7], "row order untouched");
        for row in [&[][..], &[5], &[5, 6], &[u32::MAX, u32::MAX]] {
            mark_repeats(row, &mut keys, &mut repeat);
            let expect: Vec<bool> = (0..row.len()).map(|i| row[..i].contains(&row[i])).collect();
            assert_eq!(repeat, expect, "row {row:?}");
        }
    }

    #[test]
    fn each_remote_pair_of_a_multigraph_is_sent_once() {
        use std::collections::BTreeSet;
        use dv_core::metrics::MetricsRegistry;

        const NODES: usize = 2;
        let n = 8;
        // Parallel edges in both directions and both owners' rows.
        let edges = [
            (0, 1), (1, 0), (0, 1), (1, 2), (2, 3), (3, 2), (2, 3), (3, 4),
            (4, 5), (5, 6), (6, 7), (7, 6), (7, 0), (0, 2), (2, 0), (2, 4),
        ];
        let part = VertexPart { nodes: NODES };
        let remote: BTreeSet<(u32, u32)> = edges
            .iter()
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .filter(|&(a, b)| part.owner(a) != part.owner(b))
            .collect();
        let remote_entries =
            2 * edges.iter().filter(|&&(a, b)| part.owner(a) != part.owner(b)).count();
        assert!(remote.len() < remote_entries, "the graph must repeat remote pairs");
        let csr = Csr::build(n, &edges);
        let locals = partition_csr(&csr, part);
        let metrics = Arc::new(MetricsRegistry::enabled());
        let spec = SimSpec::new(NODES).metrics(Arc::clone(&metrics));
        let r = run_spec(&locals, n, 0, spec);
        validate_bfs(&csr, 0, &r.parents).expect("invalid BFS tree");
        assert!(r.parents.iter().all(|&p| p >= 0), "every vertex is reached");
        assert_eq!(r.edges_scanned, 2 * edges.len() as u64, "every entry is scanned");
        let sent = metrics.snapshot().counter_total("api.fifo.reliable_sent");
        assert_eq!(sent, remote.len() as u64);
    }

    #[test]
    fn a_node_reaches_its_thread_only_to_start_and_to_return() {
        // The whole search is one kernel-run body: every wait of every
        // level — scan charges, flushes, drains, the epoch close, the
        // frontier-size posts, the slot resets, the fence — is polled in
        // the kernel.
        const NODES: usize = 32;
        let (_, csr, locals) = setup(NODES);
        let root = pick_roots(&csr, 1, 3)[0];
        let locals = Arc::new(locals);
        let spec = SimSpec::new(NODES);
        let compute = spec.machine.compute.clone();
        let report = DvCluster::from_spec(spec).run(move |dv, ctx| {
            let (scanned, _) = node(dv, ctx, Arc::clone(&locals), root, &compute);
            // The last node to read sees every node's handoffs.
            (scanned, ctx.with_kernel(|k| k.sched_stats()))
        });
        assert!(report.result.iter().map(|r| r.0).sum::<u64>() > 0, "the search ran");
        let stats = report.result.iter().map(|r| r.1).max_by_key(|s| s.thread_resumes).expect("32 nodes");
        assert_eq!(stats.thread_resumes, 2 * NODES as u64, "{stats:?}");
        assert!(stats.resumes > 20 * stats.thread_resumes, "the body waits in the kernel: {stats:?}");
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
