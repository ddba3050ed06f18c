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
use dv_bench::{f2, Opts, Report, Streamer};
use dv_core::spec::SimSpec;
use dv_core::time::as_us_f64;

pub(crate) fn run(opts: &Opts, report: &mut Report) {
    let cfg = |halo| {
        if opts.quick {
            HeatConfig { n: (16, 16, 16), grid: (2, 2, 2), r: 0.1, steps: 8, report_every: 4, halo }
        } else {
            HeatConfig { n: (32, 32, 32), grid: (4, 4, 2), r: 0.1, steps: 24, report_every: 4, halo }
        }
    };
    let dv_cfg = cfg(Halo::Face);
    // `--stream`: the fixed DV heat run.
    Streamer::representative_run(opts, dv_cfg.nodes(), |spec| {
        heat::dv::run_spec(dv_cfg, spec).elapsed
    });
    let dv = heat::dv::run_spec(dv_cfg, SimSpec::new(dv_cfg.nodes()));
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
}
