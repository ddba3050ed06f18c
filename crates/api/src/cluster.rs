//! SPMD harness for Data Vortex node programs.

use std::sync::Arc;

use dv_core::spec::{RunReport, SimSpec};
use dv_core::time::Time;
use dv_sim::{Kernel, Sim, SimCtx};

use crate::{ctx::DvCtx, layout::FAST_BARRIER_GC, world::DvWorld};

/// Entry point for a Data Vortex run: a [`SimSpec`] in,
/// [`DvCluster::run`] returns a [`RunReport`].
///
/// ```
/// use dv_api::{DvCluster, SendMode};
/// use dv_core::packet::SCRATCH_GC;
/// use dv_core::spec::SimSpec;
///
/// // Two nodes: node 0 sends a word into node 1's surprise FIFO.
/// let report = DvCluster::from_spec(SimSpec::new(2)).run(|dv, ctx| {
///     if dv.node() == 0 {
///         dv.send_fifo(ctx, 1, &[42], SCRATCH_GC,
///                      SendMode::DirectWrite { cached_headers: false });
///         0
///     } else {
///         dv.fifo_recv(ctx)
///     }
/// });
/// assert_eq!(report.result[1], 42);
/// assert!(report.elapsed > 0); // virtual time elapsed deterministically
/// ```
pub struct DvCluster {
    spec: SimSpec,
}

impl DvCluster {
    /// Build a cluster from a [`SimSpec`].
    pub fn from_spec(spec: SimSpec) -> Self {
        Self { spec }
    }

    /// Run `body` on every node (one VIC each); per-node results come
    /// back in node order inside the [`RunReport`] of
    /// [`Sim::run_spmd`], after the VIC and PCIe counters are published.
    /// The cluster's mutable state is installed in the run's kernel, on
    /// this thread, before any node runs.
    pub fn run<T, F>(&self, body: F) -> RunReport<Vec<T>>
    where
        T: Send + 'static,
        F: Fn(&DvCtx, &SimCtx) -> T + Send + Sync + 'static,
    {
        let spec = &self.spec;
        let sim = Sim::from_spec(spec);
        let world = DvWorld::from_spec(spec);
        // Install the cluster's state on this thread, and pre-arm the
        // FastBarrier counters before any process runs, so the first
        // fast_barrier call has no set/decrement race.
        sim.with_kernel(|k| {
            world.state(k, |st, k| {
                for vic in &mut st.vics {
                    for &gc in &FAST_BARRIER_GC {
                        vic.set_counter(k, gc, (spec.nodes - 1) as u64);
                    }
                }
            });
        });
        let publish = |k: &mut Kernel| {
            if !spec.metrics.is_enabled() {
                return;
            }
            let elapsed = k.now();
            world.state(k, |st, _| {
                for (node, (vic, pcie)) in st.vics.iter_mut().zip(&st.pcie).enumerate() {
                    vic.publish_metrics(&spec.metrics);
                    if elapsed > 0 {
                        let label = [("node", (node as u64).into())];
                        let util = |busy: Time| (busy as f64 / elapsed as f64).min(1.0);
                        spec.metrics.gauge_labeled("pcie.to_vic_util", &label, util(pcie.to_vic_busy()));
                        spec.metrics.gauge_labeled("pcie.from_vic_util", &label, util(pcie.from_vic_busy()));
                    }
                }
            });
        };
        sim.run_spmd(spec, "node", |node| DvCtx::new(Arc::clone(&world), node), body, publish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ctx::SendMode, layout::QUERY_GC};
    use dv_core::packet::{Packet, PacketHeader, SCRATCH_GC};
    use dv_core::time::us;

    /// `(elapsed, results)` convenience over the spec-built cluster.
    fn run_n<T: Send + 'static>(
        n: usize,
        body: impl Fn(&DvCtx, &SimCtx) -> T + Send + Sync + 'static,
    ) -> (Time, Vec<T>) {
        let r = DvCluster::from_spec(SimSpec::new(n)).run(body);
        (r.elapsed, r.result)
    }

    #[test]
    fn remote_write_lands_in_dv_memory() {
        let (_, results) = run_n(2, |dv, ctx| {
            if dv.node() == 0 {
                dv.gc_set_local(ctx, 10, 0); // not used, just exercise the call
                dv.write_remote(
                    ctx,
                    1,
                    100,
                    &[11, 22, 33],
                    SCRATCH_GC,
                    SendMode::DirectWrite { cached_headers: false },
                );
                // Give the packets time to land before the reader looks.
                ctx.delay(us(50));
                0
            } else {
                ctx.delay(us(100));
                let v = dv.read_local(ctx, 100, 3);
                v.iter().sum::<u64>()
            }
        });
        assert_eq!(results[1], 66);
    }

    #[test]
    fn group_counter_signals_transfer_completion() {
        let (_, results) = run_n(2, |dv, ctx| {
            if dv.node() == 1 {
                // Receiver presets, then waits for 64 words.
                dv.gc_set_local(ctx, 7, 64);
                dv.barrier(ctx); // "typically the developer will ... invoke a barrier"
                let ok = dv.gc_wait_zero(ctx, 7, None);
                assert!(ok);
                let v = dv.read_local(ctx, 0, 64);
                v.iter().sum::<u64>()
            } else {
                dv.barrier(ctx);
                let words: Vec<u64> = (0..64).collect();
                dv.write_remote(ctx, 1, 0, &words, 7, SendMode::Dma { cached_headers: true });
                0
            }
        });
        assert_eq!(results[1], 64 * 63 / 2);
    }

    #[test]
    fn set_after_data_race_times_out() {
        // The failure mode of Section III, end to end: sender sets the
        // *remote* counter and immediately streams data; the set can lose.
        // Here we force the loss by sending data first.
        let (_, results) = run_n(2, |dv, ctx| {
            if dv.node() == 0 {
                dv.write_remote(
                    ctx,
                    1,
                    0,
                    &[1, 2, 3],
                    9,
                    SendMode::DirectWrite { cached_headers: false },
                );
                dv.gc_set_remote(ctx, 1, 9, 3, SendMode::DirectWrite { cached_headers: false });
                true
            } else {
                // Let everything land, then look: the set arrived after
                // the three decrements and erased them, so the counter is
                // stuck at the preset value and never reaches zero.
                ctx.delay(us(500));
                assert_eq!(dv.gc_value(ctx, 9), 3, "set must have erased the early decrements");
                let deadline = ctx.now() + us(200);
                dv.gc_wait_zero(ctx, 9, Some(deadline))
            }
        });
        assert!(results[0]);
        assert!(!results[1], "the racy counter must never reach zero");
    }

    #[test]
    fn query_reads_remote_memory() {
        let (_, results) = run_n(3, |dv, ctx| {
            match dv.node() {
                1 => {
                    dv.write_local(ctx, 500, &[0xFEED]);
                    dv.barrier(ctx);
                    0
                }
                0 => {
                    dv.barrier(ctx);
                    dv.read_word(ctx, 1, 500)
                }
                _ => {
                    dv.barrier(ctx);
                    0
                }
            }
        });
        assert_eq!(results[0], 0xFEED);
    }

    #[test]
    fn query_reply_can_go_to_a_third_node() {
        let (_, results) = run_n(3, |dv, ctx| {
            match dv.node() {
                0 => {
                    dv.write_local(ctx, 10, &[777]);
                    dv.barrier(ctx);
                    dv.barrier(ctx);
                    0
                }
                1 => {
                    dv.barrier(ctx);
                    // Ask node 0 to forward its word to node 2.
                    dv.query_to(
                        ctx,
                        0,
                        10,
                        2,
                        20,
                        QUERY_GC,
                        SendMode::DirectWrite { cached_headers: false },
                    );
                    dv.barrier(ctx);
                    0
                }
                _ => {
                    dv.gc_set_local(ctx, QUERY_GC, 1);
                    dv.barrier(ctx);
                    assert!(dv.gc_wait_zero(ctx, QUERY_GC, None));
                    let v = dv.read_local(ctx, 20, 1)[0];
                    dv.barrier(ctx);
                    v
                }
            }
        });
        assert_eq!(results[2], 777);
    }

    #[test]
    fn fifo_carries_unscheduled_messages() {
        let (_, results) = run_n(4, |dv, ctx| {
            if dv.node() == 0 {
                let mut got = Vec::new();
                for _ in 0..6 {
                    got.push(dv.fifo_recv(ctx));
                }
                got.sort_unstable();
                got
            } else {
                let me = dv.node() as u64;
                dv.send_fifo(
                    ctx,
                    0,
                    &[me * 10, me * 10 + 1],
                    SCRATCH_GC,
                    SendMode::DirectWrite { cached_headers: true },
                );
                Vec::new()
            }
        });
        assert_eq!(results[0], vec![10, 11, 20, 21, 30, 31]);
    }

    #[test]
    fn fifo_deadline_times_out_cleanly() {
        let (_, results) = run_n(1, |dv, ctx| {
            dv.fifo_recv_deadline(ctx, Some(ctx.now() + us(5))).is_none()
        });
        assert!(results[0]);
    }

    #[test]
    fn both_barriers_synchronize() {
        for fast in [false, true] {
            let (_, results) = run_n(8, move |dv, ctx| {
                ctx.delay(us(dv.node() as u64 * 13));
                if fast {
                    dv.fast_barrier(ctx);
                } else {
                    dv.barrier(ctx);
                }
                ctx.now()
            });
            let latest = us(7 * 13);
            for (n, &t) in results.iter().enumerate() {
                assert!(t >= latest, "fast={fast} node {n}: left at {t} < {latest}");
            }
        }
    }

    #[test]
    fn repeated_fast_barriers_stay_correct() {
        // Exercises the parity re-arm logic across many rounds.
        let (_, results) = run_n(4, |dv, ctx| {
            let mut stamps = Vec::new();
            for round in 0..6 {
                ctx.delay(us((dv.node() as u64 * 7 + round) % 11));
                dv.fast_barrier(ctx);
                stamps.push(ctx.now());
            }
            stamps
        });
        // After each round, all nodes' stamps must be ordered consistently:
        // everyone's round-k exit is >= everyone's round-(k-1) exit.
        for k in 1..6 {
            let max_prev: Time = results.iter().map(|s| s[k - 1]).max().unwrap();
            for s in &results {
                assert!(s[k] >= max_prev, "round {k} exited before round {} finished", k - 1);
            }
        }
    }

    #[test]
    fn dv_barrier_latency_is_flat_with_scale() {
        // Figure 4's Data Vortex curve, unit-test sized.
        let barrier_time = |n: usize| {
            let (elapsed, _) = run_n(n, |dv, ctx| {
                for _ in 0..10 {
                    dv.barrier(ctx);
                }
            });
            elapsed as f64 / 10.0
        };
        let t2 = barrier_time(2);
        let t32 = barrier_time(32);
        assert!(t32 < t2 * 1.6, "t2 {t2} t32 {t32}");
    }

    #[test]
    fn dma_send_beats_direct_write_for_batches() {
        let time_with = |mode: SendMode| {
            run_n(2, move |dv, ctx| {
                    if dv.node() == 0 {
                        let words: Vec<u64> = (0..4096).collect();
                        dv.gc_set_remote(ctx, 1, 5, 0, mode); // prime path
                        dv.write_remote(ctx, 1, 0, &words, SCRATCH_GC, mode);
                        ctx.now()
                    } else {
                        0
                    }
                })
                .1[0]
        };
        let pio = time_with(SendMode::DirectWrite { cached_headers: false });
        let pio_cached = time_with(SendMode::DirectWrite { cached_headers: true });
        let dma = time_with(SendMode::Dma { cached_headers: true });
        assert!(pio_cached < pio, "cached {pio_cached} uncached {pio}");
        assert!(dma < pio_cached, "dma {dma} cached-pio {pio_cached}");
    }

    #[test]
    fn aggregator_batches_across_destinations() {
        use crate::aggregate::Aggregator;
        let (_, results) = run_n(4, |dv, ctx| {
            if dv.node() == 0 {
                let mut agg = Aggregator::new(64);
                // 96 packets round-robin over 3 destinations: one auto
                // flush at 64 + manual flush of the rest.
                for i in 0..96u64 {
                    let dst = 1 + (i % 3) as usize;
                    let pkt =
                        Packet::new(PacketHeader::fifo(0, dst, SCRATCH_GC), i);
                    agg.push(ctx, dv, pkt);
                }
                agg.flush(ctx, dv);
                let (flushes, packets) = agg.stats();
                assert_eq!((flushes, packets), (2, 96));
                ctx.delay(us(100));
                0
            } else {
                ctx.delay(us(300));
                let mut sum = 0u64;
                while let Some(w) = dv.fifo_try_recv(ctx) {
                    sum += 1;
                    let _ = w;
                }
                sum
            }
        });
        assert_eq!(results[1] + results[2] + results[3], 96);
    }

    #[test]
    fn deterministic_end_to_end() {
        let run = || {
            run_n(8, |dv, ctx| {
                    for _ in 0..3 {
                        dv.fast_barrier(ctx);
                        dv.send_fifo(
                            ctx,
                            (dv.node() + 1) % 8,
                            &[dv.node() as u64],
                            SCRATCH_GC,
                            SendMode::Dma { cached_headers: true },
                        );
                        let _ = dv.fifo_recv(ctx);
                    }
                    ctx.now()
                })
                .1
        };
        assert_eq!(run(), run());
    }
}
