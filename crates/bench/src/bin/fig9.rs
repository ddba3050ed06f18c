//! Figure 9: application speedup of Data Vortex over MPI-over-InfiniBand
//! (SNAP best-effort port; Vorticity and Heat aggressively restructured).

use dv_apps::fig9::{speedups, Fig9Sizes};
use dv_bench::{f2, quick, Report};
use dv_core::time::as_us_f64;

fn main() {
    let mut report = Report::new("fig9");
    let sizes = if quick() { Fig9Sizes::for_tests() } else { Fig9Sizes::for_nodes_32() };
    // `--stream`: one representative instrumented run (the restructured
    // Heat solver) emits dv-events-v1 telemetry before the figure proper.
    if dv_bench::stream::stream_path().is_some() {
        let metrics = std::sync::Arc::new(dv_core::metrics::MetricsRegistry::enabled());
        let nodes = sizes.heat.nodes();
        let streamer =
            dv_bench::Streamer::attach(&metrics, "fig9", nodes).expect("--stream was passed");
        let r = dv_apps::heat::dv::run_spec(
            sizes.heat,
            dv_core::spec::SimSpec::new(nodes).metrics(std::sync::Arc::clone(&metrics)),
        );
        streamer.finish(r.elapsed);
    }
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
    report.finish();
}
