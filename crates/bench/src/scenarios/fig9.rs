//! Figure 9: application speedup of Data Vortex over MPI-over-InfiniBand
//! (SNAP best-effort port; Vorticity and Heat aggressively restructured).

use dv_apps::fig9::{speedups, Fig9Sizes};
use dv_bench::{f2, Opts, Report, Streamer};
use dv_core::time::as_us_f64;

pub(crate) fn run(opts: &Opts, report: &mut Report) {
    let sizes = if opts.quick { Fig9Sizes::for_tests() } else { Fig9Sizes::for_nodes_32() };
    // `--stream`: the restructured Heat solver.
    Streamer::representative_run(opts, sizes.heat.nodes(), |spec| {
        dv_apps::heat::dv::run_spec(sizes.heat, spec).elapsed
    });
    let results = speedups(&sizes);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                f2(as_us_f64(s.mpi)),
                f2(as_us_f64(s.dv)),
                f2(s.factor()),
            ]
        })
        .collect();
    report.section(
        "Figure 9 — application speedup w.r.t. MPI-over-Infiniband",
        &["app", "MPI (µs)", "DV (µs)", "speedup"],
        rows,
    );
    println!("paper: SNAP 1.19x (best-effort port), Vorticity ~3.4x, Heat ~2.5x (restructured)");
}
