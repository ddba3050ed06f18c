//! Level-synchronized BFS over MPI.
//!
//! The conventional implementation: per level, every rank scans its
//! frontier, buckets remote visit messages `(vertex, parent)` by owner,
//! exchanges buckets with `alltoallv`, applies them, and agrees on
//! termination with an allreduce. Destination aggregation works — but
//! every level pays p−1 messages plus two collectives, and the power-law
//! frontiers keep most buckets small: the message-rate wall of Figure 8.
//!
//! Each rank's thread builds its state and buckets, then runs the whole
//! search as one body in the simulator's kernel ([`Comm::run`]): between
//! its start and its result the thread never runs.

use std::sync::Arc;

use dv_core::config::ComputeParams;
use dv_core::spec::SimSpec;
use dv_core::time::{as_secs_f64, Time};
use dv_sim::SimCtx;
use mini_mpi::{Comm, MpiCluster, Payload, ReduceOp};

use crate::util::{pack2, spend_edges, unpack2};

use super::{Csr, VertexPart};

/// Result of one distributed BFS.
#[derive(Debug, Clone)]
pub struct BfsRunResult {
    /// Root vertex.
    pub root: u32,
    /// Edges scanned during the search (≈ 2× edges in the component).
    pub edges_scanned: u64,
    /// Elapsed virtual time.
    pub elapsed: Time,
    /// Full parent array (gathered from all nodes).
    pub parents: Vec<i64>,
}

impl BfsRunResult {
    /// Traversed edges per second, Graph500 convention (scanned/2).
    pub fn teps(&self) -> f64 {
        self.edges_scanned as f64 / 2.0 / as_secs_f64(self.elapsed)
    }
}

/// Run one BFS from `root` over MPI on the cluster described by `spec`.
/// `locals` are the per-node CSRs from [`super::partition_csr`]; `n` is
/// the global vertex count.
pub fn run_spec(locals: &[Csr], n: usize, root: u32, spec: SimSpec) -> BfsRunResult {
    let nodes = locals.len();
    assert_eq!(spec.nodes, nodes, "spec.nodes must match the partition");
    let part = VertexPart { nodes };
    let locals: Arc<Vec<Csr>> = Arc::new(locals.to_vec());
    let compute = spec.machine.compute.clone();
    let report = MpiCluster::from_spec(spec).run(move |comm, ctx| rank(comm, ctx, Arc::clone(&locals), root, &compute));

    let (elapsed, results) = (report.elapsed, report.result);
    let edges_scanned: u64 = results.iter().map(|(s, _)| s).sum();
    let mut parents = vec![-1i64; n];
    for (node, (_, local)) in results.into_iter().enumerate() {
        for (l, p) in local.into_iter().enumerate() {
            let g = part.global(node, l) as usize;
            if g < n {
                parents[g] = p;
            }
        }
    }
    BfsRunResult { root, edges_scanned, elapsed, parents }
}

/// One rank's BFS: its thread builds its state and reserves what the
/// levels grow, then hands the whole search to the kernel as one body
/// ([`Comm::run`]), and takes back the edges scanned here and the local
/// parents.
fn rank(comm: &Comm, ctx: &SimCtx, locals: Arc<Vec<Csr>>, root: u32, compute: &ComputeParams) -> (u64, Vec<i64>) {
    let (me, p) = (comm.rank(), comm.size());
    let part = VertexPart { nodes: p };
    let compute = compute.clone();
    let csr = &locals[me];
    let vertices = csr.vertices();
    let mut parents = vec![-1i64; vertices];
    // A vertex joins a frontier once, so its row is scanned once: a
    // level's bucket for an owner holds at most the row entries it owns,
    // and a frontier at most the local vertices. Reserved on this thread;
    // the blocks a level receives are the next level's buckets.
    let mut owned = vec![0usize; p];
    csr.targets.iter().for_each(|&v| owned[part.owner(v)] += 1);
    owned[me] = 0;
    let mut buckets: Vec<Vec<u64>> = owned.iter().map(|&n| Vec::with_capacity(n)).collect();
    let mut blocks: Vec<Payload> = Vec::with_capacity(p);
    let (mut frontier, mut next) = (Vec::with_capacity(vertices), Vec::with_capacity(vertices));
    if part.owner(root) == me {
        parents[part.local(root)] = root as i64;
        frontier.push(root);
    }

    comm.run(ctx, move |r| async move {
        let csr = &locals[me];
        let mut scanned = 0u64;
        r.barrier().await;
        loop {
            for &u in &frontier {
                for &v in csr.neighbors(part.local(u) as u32) {
                    scanned += 1;
                    let owner = part.owner(v);
                    if owner == me {
                        let lv = part.local(v);
                        if parents[lv] < 0 {
                            parents[lv] = u as i64;
                            next.push(v);
                        }
                    } else {
                        buckets[owner].push(pack2(v, u));
                    }
                }
            }
            let sent: u64 = buckets.iter().map(|b| b.len() as u64).sum();
            spend_edges(&r, &compute, frontier.len() as u64 + sent).await;

            blocks.extend(buckets.iter_mut().map(|b| Payload::U64(std::mem::take(b))));
            blocks = r.alltoall(blocks).await;
            let mut applied = 0u64;
            for (src, block) in blocks.drain(..).enumerate() {
                let mut words = block.into_u64();
                for &w in &words {
                    let (v, u) = unpack2(w);
                    debug_assert_eq!(part.owner(v), me);
                    let lv = part.local(v);
                    applied += 1;
                    if parents[lv] < 0 {
                        parents[lv] = u as i64;
                        next.push(v);
                    }
                }
                words.clear();
                buckets[src] = words;
            }
            spend_edges(&r, &compute, applied).await;

            let total_next = r.allreduce(ReduceOp::Sum, Payload::U64(vec![next.len() as u64])).await.into_u64()[0];
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
            if total_next == 0 {
                break;
            }
        }
        r.barrier().await;
        (scanned, parents)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{kronecker_edges, partition_csr, pick_roots, validate_bfs, Csr, GraphConfig};

    #[test]
    fn mpi_bfs_produces_valid_trees() {
        let cfg = GraphConfig::test_small();
        let edges = kronecker_edges(&cfg);
        let csr = Csr::build(cfg.vertices(), &edges);
        let locals = partition_csr(&csr, VertexPart { nodes: 4 });
        for root in pick_roots(&csr, 2, 1) {
            let r = run_spec(&locals, cfg.vertices(), root, SimSpec::new(locals.len()));
            validate_bfs(&csr, root, &r.parents).expect("invalid BFS tree");
            assert!(r.teps() > 0.0);
        }
    }

    #[test]
    fn a_rank_reaches_its_thread_only_to_start_and_to_return() {
        // The whole search is one kernel-run body: every wait of every
        // level — scan charges, the alltoall, the termination allreduce,
        // the fences — is polled in the kernel.
        const NODES: usize = 32;
        let cfg = GraphConfig::test_small();
        let csr = Csr::build(cfg.vertices(), &kronecker_edges(&cfg));
        let root = pick_roots(&csr, 1, 1)[0];
        let locals = Arc::new(partition_csr(&csr, VertexPart { nodes: NODES }));
        let spec = SimSpec::new(NODES);
        let compute = spec.machine.compute.clone();
        let report = MpiCluster::from_spec(spec).run(move |comm, ctx| {
            let (scanned, _) = rank(comm, ctx, Arc::clone(&locals), root, &compute);
            // The last rank to read sees every rank's handoffs.
            (scanned, ctx.with_kernel(|k| k.sched_stats()))
        });
        assert!(report.result.iter().map(|r| r.0).sum::<u64>() > 0, "the search ran");
        let stats = report.result.iter().map(|r| r.1).max_by_key(|s| s.thread_resumes).expect("32 ranks");
        assert_eq!(stats.thread_resumes, 2 * NODES as u64, "{stats:?}");
        assert!(stats.resumes > 20 * stats.thread_resumes, "the body waits in the kernel: {stats:?}");
    }
}
