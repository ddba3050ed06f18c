//! Figure 7: distributed 1-D FFT, aggregate GFLOPS vs node count.
//!
//! The paper transforms 2³³ points on real hardware; the simulated
//! cluster uses 2²⁰ (2¹⁶ with `--quick`) — the curves' *shape* (DV above
//! MPI, gap widening with node count) is the reproduction target.

use dv_bench::{f2, Opts, Report, Streamer};
use dv_core::spec::SimSpec;
use dv_kernels::fft::{dv, mpi};

pub(crate) fn run(opts: &Opts, report: &mut Report) {
    let n: usize = if opts.quick { 1 << 16 } else { 1 << 20 };
    // `--stream`: the 8-node DV FFT.
    Streamer::representative_run(opts, 8, |spec| dv::run_spec(n, spec, false).elapsed);
    let mut rows = Vec::new();
    for nodes in [2usize, 4, 8, 16, 32] {
        let d = dv::run_spec(n, SimSpec::new(nodes), false);
        let m = mpi::run_spec(n, SimSpec::new(nodes), false);
        rows.push(vec![
            nodes.to_string(),
            f2(d.gflops()),
            f2(m.gflops()),
            f2(d.gflops() / m.gflops()),
        ]);
    }
    report.section(
        &format!("Figure 7 — FFT-1D aggregate GFLOPS, N = 2^{}", n.trailing_zeros()),
        &["nodes", "Data Vortex", "Infiniband", "DV/IB"],
        rows,
    );
}
