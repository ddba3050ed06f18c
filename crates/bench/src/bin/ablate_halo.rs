//! Ablation: how much of the heat-equation speedup is the MPI baseline's
//! halo strategy?
//!
//! The paper describes its heat implementation as producing "a large
//! number of small messages". This bench pins down how the Data Vortex
//! advantage depends on what the MPI code does: per-line messages (the
//! paper's description), the textbook sequential face exchange, or fully
//! overlapped per-face sends. The Data Vortex implementation is the same
//! in all rows (one source-aggregated DMA batch per step).

use dv_apps::heat::{self, Halo, HeatConfig};
use dv_bench::{f2, quick, Report};
use dv_core::spec::SimSpec;
use dv_core::time::as_us_f64;

fn main() {
    let mut report = Report::new("ablate_halo");
    let cfg = |halo| {
        if quick() {
            HeatConfig { n: (16, 16, 16), grid: (2, 2, 2), r: 0.1, steps: 8, report_every: 4, halo }
        } else {
            HeatConfig { n: (32, 32, 32), grid: (4, 4, 2), r: 0.1, steps: 24, report_every: 4, halo }
        }
    };
    // `--stream`: the fixed DV heat run emits dv-events-v1 telemetry when
    // streaming; plain runs take the uninstrumented path.
    let dv = if dv_bench::stream::stream_path().is_some() {
        let c = cfg(Halo::Face);
        let metrics = std::sync::Arc::new(dv_core::metrics::MetricsRegistry::enabled());
        let streamer = dv_bench::Streamer::attach(&metrics, "ablate_halo", c.nodes())
            .expect("--stream was passed");
        let r = heat::dv::run_spec(
            c,
            SimSpec::new(c.nodes()).metrics(std::sync::Arc::clone(&metrics)),
        );
        streamer.finish(r.elapsed);
        r
    } else {
        heat::dv::run_spec(cfg(Halo::Face), SimSpec::new(cfg(Halo::Face).nodes()))
    };
    let mut rows = Vec::new();
    for (name, halo) in [
        ("per-line messages (paper's description)", Halo::Line),
        ("sequential face exchange (textbook)", Halo::Face),
        ("overlapped face sends (strong baseline)", Halo::FaceOverlapped),
    ] {
        let mpi = heat::mpi::run_spec(cfg(halo), SimSpec::new(cfg(halo).nodes()));
        // All strategies compute identical physics.
        assert_eq!(
            heat::mpi::assemble(&cfg(halo), &mpi.fields),
            heat::mpi::assemble(&cfg(Halo::Face), &dv.fields)
        );
        rows.push(vec![
            name.to_string(),
            f2(as_us_f64(mpi.elapsed)),
            f2(mpi.elapsed as f64 / dv.elapsed as f64),
        ]);
    }
    report.section(
        &format!(
            "Ablation — heat equation: MPI halo strategy vs the fixed DV implementation ({:.2} µs)",
            as_us_f64(dv.elapsed)
        ),
        &["MPI halo strategy", "MPI (µs)", "DV speedup"],
        rows,
    );
    println!("paper's measured heat speedup: ~2.46x");
    report.finish();
}
