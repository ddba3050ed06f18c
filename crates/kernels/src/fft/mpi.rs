//! Distributed 1-D FFT over MPI: transposes by `alltoall`.

use dv_core::spec::SimSpec;
use mini_mpi::MpiCluster;

use crate::transpose::MpiTranspose;

use super::plan::{FftPlan, FftRunResult};

/// Run the four-step FFT over MPI on the cluster described by `spec`.
/// `validate` computes the serial reference and reports the max error
/// (only for small N).
pub fn run_spec(n: usize, spec: SimSpec, validate: bool) -> FftRunResult {
    let plan = FftPlan::new(n, spec.nodes);
    let compute = spec.machine.compute.clone();
    let report = MpiCluster::from_spec(spec).run({
        let plan = plan.clone();
        move |comm, ctx| {
            comm.barrier(ctx);
            let out = plan.execute(&mut MpiTranspose::new(comm, compute.clone()), ctx);
            comm.barrier(ctx);
            out
        }
    });
    plan.summarize(report, validate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n: usize, nodes: usize, validate: bool) -> FftRunResult {
        run_spec(n, SimSpec::new(nodes), validate)
    }

    #[test]
    fn distributed_fft_matches_serial_reference() {
        for nodes in [2usize, 4] {
            let r = run(1 << 10, nodes, true);
            assert!(r.max_error < 1e-8, "nodes={nodes} err={}", r.max_error);
        }
    }

    #[test]
    fn flop_count_matches_convention_scale() {
        let n = 1 << 10;
        let r = run(n, 2, false);
        // Row FFTs cover 5·N·log2(N) across both stages plus twiddles.
        let base = super::super::fft_flops(n as u64);
        assert!(r.flops >= base, "flops {} < {base}", r.flops);
        assert!(r.flops < 2 * base, "flops {} way above convention", r.flops);
    }

    #[test]
    fn gflops_are_positive_and_finite() {
        let r = run(1 << 12, 4, false);
        assert!(r.gflops().is_finite() && r.gflops() > 0.0);
    }
}
