//! Global-barrier latency microbenchmark (Figure 4).

use dv_api::DvCluster;
use dv_core::spec::SimSpec;
use dv_core::time::Time;
use mini_mpi::MpiCluster;

/// Which barrier implementation to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierKind {
    /// The Data Vortex API intrinsic (hardware group counters).
    DvIntrinsic,
    /// The in-house all-to-all FastBarrier.
    DvFast,
    /// MPI dissemination barrier over InfiniBand.
    Mpi,
}

/// Mean latency of one barrier, measured over `reps` back-to-back
/// barriers on the cluster described by `spec` (streaming benches watch
/// the barrier traffic at virtual-time intervals through it).
pub fn barrier_latency_spec(kind: BarrierKind, spec: SimSpec, reps: usize) -> Time {
    assert!(reps > 0);
    let elapsed = match kind {
        BarrierKind::DvIntrinsic => {
            DvCluster::from_spec(spec)
                .run(move |dv, ctx| {
                    for _ in 0..reps {
                        dv.barrier(ctx);
                    }
                })
                .elapsed
        }
        BarrierKind::DvFast => {
            DvCluster::from_spec(spec)
                .run(move |dv, ctx| {
                    for _ in 0..reps {
                        dv.fast_barrier(ctx);
                    }
                })
                .elapsed
        }
        BarrierKind::Mpi => {
            MpiCluster::from_spec(spec)
                .run(move |comm, ctx| {
                    for _ in 0..reps {
                        comm.barrier(ctx);
                    }
                })
                .elapsed
        }
    };
    elapsed / reps as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_core::time::as_us_f64;

    fn barrier_latency(kind: BarrierKind, nodes: usize, reps: usize) -> Time {
        barrier_latency_spec(kind, SimSpec::new(nodes), reps)
    }

    #[test]
    fn dv_barrier_stays_flat_while_mpi_grows() {
        // The headline of Figure 4.
        let dv2 = barrier_latency(BarrierKind::DvIntrinsic, 2, 50);
        let dv32 = barrier_latency(BarrierKind::DvIntrinsic, 32, 50);
        let mpi2 = barrier_latency(BarrierKind::Mpi, 2, 50);
        let mpi32 = barrier_latency(BarrierKind::Mpi, 32, 50);
        assert!(
            (dv32 as f64) < 1.5 * dv2 as f64,
            "DV barrier should be ~flat: {} -> {}",
            as_us_f64(dv2),
            as_us_f64(dv32)
        );
        assert!(
            mpi32 as f64 > 2.0 * mpi2 as f64,
            "MPI barrier should grow: {} -> {}",
            as_us_f64(mpi2),
            as_us_f64(mpi32)
        );
        assert!(dv32 < mpi32, "DV must beat MPI at scale");
    }

    #[test]
    fn latencies_are_microsecond_scale() {
        // Figure 4's y-axis runs 0–14 µs; everything should sit inside.
        for kind in [BarrierKind::DvIntrinsic, BarrierKind::DvFast, BarrierKind::Mpi] {
            let t = barrier_latency(kind, 16, 20);
            let us = as_us_f64(t);
            assert!((0.1..20.0).contains(&us), "{kind:?}: {us} µs");
        }
    }

    #[test]
    fn fast_barrier_scales_mildly() {
        let f4 = barrier_latency(BarrierKind::DvFast, 4, 20);
        let f32 = barrier_latency(BarrierKind::DvFast, 32, 20);
        // p−1 PIO packets per node: grows, but far slower than MPI's
        // log-rounds of wire latency.
        assert!(f32 < 4 * f4, "{} -> {}", as_us_f64(f4), as_us_f64(f32));
    }
}
