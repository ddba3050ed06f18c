//! Distributed 1-D FFT on the Data Vortex: transposes folded into the
//! communication.
//!
//! "We take advantage of the natural scatter/gather capabilities of the
//! network to perform the data transposition and redistribution
//! operations. A partial row of points can be loaded in the VIC's memory
//! and scattered to many destination nodes very efficiently." (Section VI)
//!
//! Concretely: the four-step driver ([`FftPlan`]) runs over a
//! [`DvTranspose`], which scatters one tile of its columns per pipeline
//! chunk into each destination VIC's DV memory and drains the receive
//! region chunk by chunk while later chunks are still arriving. Each
//! element reaches its transposed position in that drain's copy out of DV
//! memory, which the read-out makes and charges per word anyway; the
//! network's costs depend only on word counts and batch order, so placing
//! elements there instead of in the network write moves no virtual time.
//! The two transposes have different shapes when N is not a square, and
//! each happens once, so their chunk counters are armed once up front.

use dv_api::DvCluster;
use dv_core::spec::SimSpec;

use crate::transpose::DvTranspose;

use super::plan::{FftPlan, FftRunResult};

/// Run the four-step FFT on the cluster described by `spec`. `validate`
/// computes the serial reference and reports the max error (small N only).
pub fn run_spec(n: usize, spec: SimSpec, validate: bool) -> FftRunResult {
    let plan = FftPlan::new(n, spec.nodes);
    let compute = spec.machine.compute.clone();
    let report = DvCluster::from_spec(spec).run({
        let plan = plan.clone();
        move |dv, ctx| {
            let shapes = [(plan.cols_per_node(), plan.r), (plan.rows_per_node(), plan.c)];
            let mut eng = DvTranspose::one_shot(dv, ctx, compute.clone(), shapes);
            let out = plan.execute(&mut eng, ctx);
            dv.fast_barrier(ctx);
            out
        }
    });
    plan.summarize(report, validate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::mpi;

    fn run(n: usize, nodes: usize, validate: bool) -> FftRunResult {
        run_spec(n, SimSpec::new(nodes), validate)
    }

    #[test]
    fn dv_fft_matches_serial_reference() {
        for nodes in [2usize, 4] {
            let r = run(1 << 10, nodes, true);
            assert!(r.max_error < 1e-8, "nodes={nodes} err={}", r.max_error);
        }
    }

    #[test]
    fn dv_fft_beats_mpi_and_gap_grows() {
        // Figure 7: higher aggregate GFLOPS on DV, widening with scale.
        let n = 1 << 14;
        let dv4 = run(n, 4, false);
        let mpi4 = mpi::run_spec(n, SimSpec::new(4), false);
        let dv16 = run(n, 16, false);
        let mpi16 = mpi::run_spec(n, SimSpec::new(16), false);
        assert!(
            dv16.gflops() > mpi16.gflops(),
            "dv {} mpi {}",
            dv16.gflops(),
            mpi16.gflops()
        );
        let gap4 = dv4.gflops() / mpi4.gflops();
        let gap16 = dv16.gflops() / mpi16.gflops();
        assert!(gap16 > gap4 * 0.9, "gap4 {gap4} gap16 {gap16}");
    }

    #[test]
    fn scaling_increases_aggregate_gflops() {
        let n = 1 << 14;
        let r2 = run(n, 2, false);
        let r8 = run(n, 8, false);
        assert!(r8.gflops() > r2.gflops(), "2n {} 8n {}", r2.gflops(), r8.gflops());
    }
}
