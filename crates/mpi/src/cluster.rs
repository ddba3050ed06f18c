//! SPMD harness: run one closure per rank on the simulated cluster.

use dv_core::spec::{RunReport, SimSpec};
use dv_sim::{Sim, SimCtx};

use crate::comm::{Comm, MpiState, World};

/// Entry point for an MPI run: a [`SimSpec`] in, [`MpiCluster::run`]
/// returns a [`RunReport`].
///
/// ```
/// use dv_core::spec::SimSpec;
/// use mini_mpi::{MpiCluster, Payload, ReduceOp};
///
/// let report = MpiCluster::from_spec(SimSpec::new(4)).run(|comm, ctx| {
///     let mine = Payload::U64(vec![comm.rank() as u64]);
///     comm.allreduce(ctx, ReduceOp::Sum, mine).into_u64()[0]
/// });
/// assert!(report.result.iter().all(|&r| r == 0 + 1 + 2 + 3));
/// ```
pub struct MpiCluster {
    spec: SimSpec,
}

impl MpiCluster {
    /// Build a cluster from a [`SimSpec`] (one rank per node, as in the
    /// paper's runs).
    pub fn from_spec(spec: SimSpec) -> Self {
        Self { spec }
    }

    /// Run `body` on every rank; per-rank results come back in rank order
    /// inside the [`RunReport`] of [`Sim::run_spmd`].
    pub fn run<T, F>(&self, body: F) -> RunReport<Vec<T>>
    where
        T: Send + 'static,
        F: Fn(&Comm, &SimCtx) -> T + Send + Sync + 'static,
    {
        let spec = &self.spec;
        let world = World::from_spec(spec);
        let sim = Sim::from_spec(spec);
        // The world's mutable half goes to the kernel, built on this thread.
        sim.with_kernel(|k| k.install(MpiState::new(&world, spec.machine.ib.clone())));
        sim.run_spmd(spec, "rank", |rank| world.comm(rank), body, |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coll::ReduceOp;
    use crate::payload::Payload;
    use dv_core::time::{as_us_f64, us, Time};

    fn run_n<T: Send + 'static>(
        n: usize,
        body: impl Fn(&Comm, &SimCtx) -> T + Send + Sync + 'static,
    ) -> (Time, Vec<T>) {
        let r = MpiCluster::from_spec(SimSpec::new(n)).run(body);
        (r.elapsed, r.result)
    }

    #[test]
    fn ping_pong_exchanges_real_data() {
        let (elapsed, results) = run_n(2, |comm, ctx| {
            if comm.rank() == 0 {
                comm.send(ctx, 1, 7, Payload::U64(vec![1, 2, 3]));
                comm.recv_from(ctx, 1, 8).payload.into_u64()
            } else {
                let v = comm.recv_from(ctx, 0, 7).payload.into_u64();
                let doubled: Vec<u64> = v.iter().map(|x| x * 2).collect();
                comm.send(ctx, 0, 8, Payload::U64(doubled.clone()));
                doubled
            }
        });
        assert_eq!(results[0], vec![2, 4, 6]);
        assert!(elapsed > 0 && elapsed < us(100), "elapsed {}", as_us_f64(elapsed));
    }

    #[test]
    fn rendezvous_path_moves_large_messages() {
        let n_words = 64 * 1024; // 512 KiB >> eager limit
        let (_, results) = run_n(2, move |comm, ctx| {
            if comm.rank() == 0 {
                let data: Vec<u64> = (0..n_words as u64).collect();
                comm.send(ctx, 1, 1, Payload::U64(data));
                0
            } else {
                let v = comm.recv_from(ctx, 0, 1).payload.into_u64();
                v.iter().sum::<u64>()
            }
        });
        let n = n_words as u64;
        assert_eq!(results[1], n * (n - 1) / 2);
    }

    #[test]
    fn large_messages_take_longer_than_small() {
        let time_for = |words: usize| {
            run_n(2, move |comm, ctx| {
                    if comm.rank() == 0 {
                        comm.send(ctx, 1, 1, Payload::U64(vec![0; words]));
                    } else {
                        let _ = comm.recv_from(ctx, 0, 1);
                    }
                })
                .0
        };
        assert!(time_for(1 << 16) > time_for(16));
    }

    #[test]
    fn wildcard_recv_matches_any_source() {
        let (_, results) = run_n(4, |comm, ctx| {
            if comm.rank() == 0 {
                let mut sum = 0u64;
                for _ in 0..3 {
                    let env = comm.recv(ctx, None, Some(5));
                    sum += env.payload.into_u64()[0];
                }
                sum
            } else {
                comm.send(ctx, 0, 5, Payload::U64(vec![comm.rank() as u64]));
                0
            }
        });
        assert_eq!(results[0], 1 + 2 + 3);
    }

    #[test]
    fn tag_matching_keeps_streams_separate() {
        let (_, results) = run_n(2, |comm, ctx| {
            if comm.rank() == 0 {
                comm.send(ctx, 1, 10, Payload::U64(vec![10]));
                comm.send(ctx, 1, 20, Payload::U64(vec![20]));
                0
            } else {
                // Receive in reverse tag order: matching must not care
                // about arrival order.
                let b = comm.recv_from(ctx, 0, 20).payload.into_u64()[0];
                let a = comm.recv_from(ctx, 0, 10).payload.into_u64()[0];
                a * 100 + b
            }
        });
        assert_eq!(results[1], 10 * 100 + 20);
    }

    #[test]
    fn barrier_synchronizes_all_ranks() {
        let (_, results) = run_n(8, |comm, ctx| {
            // Stagger arrival times; everyone must leave after the latest.
            ctx.delay(us(comm.rank() as u64 * 10));
            comm.barrier(ctx);
            ctx.now()
        });
        let latest_arrival = us(7 * 10);
        for (r, &t) in results.iter().enumerate() {
            assert!(t >= latest_arrival, "rank {r} left the barrier at {t} before {latest_arrival}");
        }
    }

    #[test]
    fn bcast_reaches_every_rank_from_any_root() {
        for root in [0, 3, 6] {
            let (_, results) = run_n(7, move |comm, ctx| {
                let data = (comm.rank() == root).then(|| Payload::U64(vec![42, 43]));
                comm.bcast(ctx, root, data).into_u64()
            });
            for r in results {
                assert_eq!(r, vec![42, 43]);
            }
        }
    }

    #[test]
    fn reduce_and_allreduce_compute_real_sums() {
        let (_, results) = run_n(6, |comm, ctx| {
            let mine = Payload::F64(vec![comm.rank() as f64, 1.0]);
            let total = comm.allreduce(ctx, ReduceOp::Sum, mine);
            total.into_f64()
        });
        for r in results {
            assert_eq!(r, vec![15.0, 6.0]);
        }
    }

    #[test]
    fn reduce_xor_matches_serial() {
        let (_, results) = run_n(5, |comm, ctx| {
            let mine = Payload::U64(vec![0x1 << comm.rank()]);
            comm.reduce(ctx, 2, ReduceOp::Xor, mine).map(|p| p.into_u64()[0])
        });
        assert_eq!(results[2], Some(0b11111));
        assert_eq!(results[0], None);
    }

    #[test]
    fn allgather_assembles_rank_order() {
        let (_, results) = run_n(5, |comm, ctx| {
            let blocks = comm.allgather(ctx, Payload::U64(vec![comm.rank() as u64; 2]));
            blocks.into_iter().flat_map(|p| p.into_u64()).collect::<Vec<u64>>()
        });
        for r in results {
            assert_eq!(r, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
        }
    }

    #[test]
    fn alltoall_transposes_blocks() {
        let n = 6;
        let (_, results) = run_n(n, move |comm, ctx| {
            let me = comm.rank() as u64;
            // Block for dst d carries [me, d].
            let blocks: Vec<Payload> =
                (0..n as u64).map(|d| Payload::U64(vec![me, d])).collect();
            let got = comm.alltoall(ctx, blocks);
            got.into_iter().map(|p| p.into_u64()).collect::<Vec<_>>()
        });
        for (me, got) in results.into_iter().enumerate() {
            for (src, block) in got.into_iter().enumerate() {
                assert_eq!(block, vec![src as u64, me as u64]);
            }
        }
    }

    #[test]
    fn alltoallv_with_ragged_sizes() {
        let n = 4;
        let (_, results) = run_n(n, move |comm, ctx| {
            let me = comm.rank();
            // Rank r sends r+d+1 words to rank d.
            let blocks: Vec<Payload> =
                (0..n).map(|d| Payload::U64(vec![me as u64; me + d + 1])).collect();
            let got = comm.alltoall(ctx, blocks);
            got.into_iter().map(|p| p.into_u64().len()).collect::<Vec<_>>()
        });
        for (me, lens) in results.into_iter().enumerate() {
            let expect: Vec<usize> = (0..n).map(|src| src + me + 1).collect();
            assert_eq!(lens, expect);
        }
    }

    #[test]
    fn gather_scatter_round_trip() {
        let n = 5;
        let (_, results) = run_n(n, move |comm, ctx| {
            let me = comm.rank();
            let gathered = comm.gather(ctx, 0, Payload::U64(vec![me as u64 * 7]));
            let redistributed = if me == 0 {
                // Root doubles every contribution and scatters back.
                let doubled: Vec<Payload> = gathered
                    .unwrap()
                    .into_iter()
                    .map(|p| Payload::U64(p.into_u64().iter().map(|x| x * 2).collect()))
                    .collect();
                comm.scatter(ctx, 0, Some(doubled))
            } else {
                comm.scatter(ctx, 0, None)
            };
            redistributed.into_u64()[0]
        });
        for (me, v) in results.into_iter().enumerate() {
            assert_eq!(v, me as u64 * 14);
        }
    }

    #[test]
    fn barrier_latency_grows_with_scale() {
        // The Figure 4 mechanism, unit-test sized.
        let barrier_time = |n: usize| {
            let (elapsed, _) = run_n(n, |comm, ctx| {
                for _ in 0..10 {
                    comm.barrier(ctx);
                }
            });
            elapsed as f64 / 10.0
        };
        let t4 = barrier_time(4);
        let t32 = barrier_time(32);
        assert!(t32 > t4 * 1.5, "t4 {t4} t32 {t32}");
    }

    #[test]
    fn deterministic_end_to_end() {
        let run = || {
            run_n(8, |comm, ctx| {
                    let mine = Payload::U64(vec![comm.rank() as u64]);
                    let all = comm.allreduce(ctx, ReduceOp::Sum, mine);
                    comm.barrier(ctx);
                    (ctx.now(), all.into_u64()[0])
                })
                .1
        };
        assert_eq!(run(), run());
    }
}
