//! Level-synchronized BFS over MPI.
//!
//! The conventional implementation: per level, every rank scans its
//! frontier, buckets remote visit messages `(vertex, parent)` by owner,
//! exchanges buckets with `alltoallv`, applies them, and agrees on
//! termination with an allreduce. Destination aggregation works — but
//! every level pays p−1 messages plus two collectives, and the power-law
//! frontiers keep most buckets small: the message-rate wall of Figure 8.

use std::sync::Arc;

use dv_core::spec::SimSpec;
use dv_core::time::{as_secs_f64, Time};
use mini_mpi::{MpiCluster, Payload, ReduceOp};

use crate::util::{charge_edges, pack2, unpack2};

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
    let report = MpiCluster::from_spec(spec).run(move |comm, ctx| {
        let me = comm.rank();
        let p = comm.size();
        let compute = compute.clone();
        let csr = &locals[me];
        let mut parents = vec![-1i64; csr.vertices()];
        let mut scanned = 0u64;
        let mut frontier: Vec<u32> = Vec::new();
        if part.owner(root) == me {
            parents[part.local(root)] = root as i64;
            frontier.push(root);
        }
        let mut sizes = vec![0usize; p];
        comm.barrier(ctx);

        loop {
            // Each remote owner's bucket allocated once, at its size.
            sizes.fill(0);
            for &u in &frontier {
                for &v in locals[me].neighbors(part.local(u) as u32) {
                    sizes[part.owner(v)] += 1;
                }
            }
            sizes[me] = 0;
            let mut buckets: Vec<Vec<u64>> = sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
            let mut next: Vec<u32> = Vec::new();
            for &u in &frontier {
                let lu = part.local(u);
                for &v in locals[me].neighbors(lu as u32) {
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
            charge_edges(ctx, &compute, frontier.len() as u64 + buckets.iter().map(|b| b.len() as u64).sum::<u64>());

            let incoming = comm.alltoall(ctx, buckets.into_iter().map(Payload::U64).collect());
            let mut applied = 0u64;
            for block in incoming {
                for w in block.into_u64() {
                    let (v, u) = unpack2(w);
                    debug_assert_eq!(part.owner(v), me);
                    let lv = part.local(v);
                    applied += 1;
                    if parents[lv] < 0 {
                        parents[lv] = u as i64;
                        next.push(v);
                    }
                }
            }
            charge_edges(ctx, &compute, applied);

            let total_next = comm
                .allreduce(ctx, ReduceOp::Sum, Payload::U64(vec![next.len() as u64]))
                .into_u64()[0];
            frontier = next;
            if total_next == 0 {
                break;
            }
        }
        comm.barrier(ctx);
        (scanned, parents)
    });

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
}
