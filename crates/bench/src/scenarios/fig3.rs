//! Figure 3: ping-pong bandwidth vs message size.
//!
//! Prints both panels: (a) absolute GB/s and (b) percent of the nominal
//! peak (Data Vortex 4.4 GB/s, InfiniBand 6.8 GB/s) for the four curves
//! `DWr/NoCached`, `DWr/Cached`, `DMA/Cached`, `MPI`.

use dv_api::SendMode;
use dv_bench::{f2, Opts, Report, Streamer};
use dv_core::spec::SimSpec;
use dv_kernels::pingpong::{dv_pingpong_spec, mpi_pingpong};

pub(crate) fn run(opts: &Opts, report: &mut Report) {
    let max_log = if opts.quick { 14 } else { 18 };
    // `--stream`: the largest size, DMA/Cached — the headline curve.
    Streamer::representative_run(opts, 2, |spec| {
        dv_pingpong_spec(1usize << max_log, 2, SendMode::Dma { cached_headers: true }, spec).elapsed
    });
    let sizes: Vec<usize> = (0..=max_log).step_by(2).map(|l| 1usize << l).collect();
    let reps = |words: usize| if words >= 1 << 14 { 1 } else { 4 };

    // One simulated cluster run per (size, mode): independent, seeded, and
    // deterministic, so the sizes fan out across threads and the curves
    // are assembled in input order.
    let measure = |words: usize| {
        let r = reps(words);
        let [nc, ca, dm] = SendMode::FIGURE3
            .map(|mode| dv_pingpong_spec(words, r, mode, SimSpec::new(2)).bandwidth_gbps());
        [nc, ca, dm, mpi_pingpong(words, r, SimSpec::new(2)).bandwidth_gbps()]
    };
    let curves: Vec<[f64; 4]> = super::fan_out(&sizes, |&w| measure(w));

    let mut rows_abs = Vec::new();
    let mut rows_pct = Vec::new();
    for (&words, bw) in sizes.iter().zip(curves) {
        rows_abs.push(vec![
            words.to_string(),
            f2(bw[0]),
            f2(bw[1]),
            f2(bw[2]),
            f2(bw[3]),
        ]);
        rows_pct.push(vec![
            words.to_string(),
            f2(bw[0] / 4.4 * 100.0),
            f2(bw[1] / 4.4 * 100.0),
            f2(bw[2] / 4.4 * 100.0),
            f2(bw[3] / 6.8 * 100.0),
        ]);
    }

    report.section(
        "Figure 3a — ping-pong bandwidth (GB/s)",
        &["words", "DWr/NoCached", "DWr/Cached", "DMA/Cached", "MPI"],
        rows_abs,
    );
    report.section(
        "Figure 3b — percent of nominal peak (DV 4.4, IB 6.8 GB/s)",
        &["words", "DWr/NoCached", "DWr/Cached", "DMA/Cached", "MPI"],
        rows_pct,
    );
}
