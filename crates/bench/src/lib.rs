//! # dv-bench — regenerates every figure of the paper's evaluation
//!
//! One front end, `dv-bench <scenario> [flags]` (`src/main.rs`): one
//! scenario per figure (the paper's evaluation has no numbered tables;
//! its results are Figures 3–9), plus the studies and ablations around
//! them, each a module of `src/scenarios/`. Two artifact tools are
//! binaries of their own.
//!
//! | scenario | role | content |
//! |---|---|---|
//! | `fig3` | Fig. 3a/3b | ping-pong bandwidth vs message size, 4 curves |
//! | `fig4` | Fig. 4 | barrier latency vs node count, 3 curves |
//! | `fig5` | Fig. 5 | Extrae-style trace of MPI GUPS (full + zoom) |
//! | `fig6` | Fig. 6a/6b | GUPS per node and aggregate vs node count |
//! | `fig7` | Fig. 7 | FFT-1D aggregate GFLOPS vs node count |
//! | `fig8` | Fig. 8 | Graph500 BFS harmonic-mean GTEPS vs node count |
//! | `fig9` | Fig. 9 | application speedups (SNAP / Vorticity / Heat) |
//! | `switch_study` | supplementary | cycle-accurate switch load sweeps, DV vs rival topologies at 32 ports |
//! | `scaling_study` | Section IX | barrier, GUPS and switch behaviour past 32 nodes; `--topo dv\|fattree\|minpath` pattern sweeps to 4096 ports |
//! | `ablate_aggregation` | ablation | GUPS with source aggregation on/off |
//! | `ablate_halo` | ablation | heat speedup vs the MPI baseline's halo strategy |
//!
//! | binary | role | content |
//! |---|---|---|
//! | `dv-bench` | front end | parses the command line once ([`Opts`]), looks the scenario up in its table, owns the [`Report`] |
//! | `dv-report` | artifact tool | renders `BENCH_*.json`, `--timeline` for streams |
//! | `dv-top` | artifact tool | live / `--replay` dashboard over a `dv-events-v1` stream |
//!
//! Every scenario accepts `--quick` for reduced problem sizes, `--json
//! <path>` for a `dv-bench-v1` artifact and `--stream <path>` for
//! `dv-events-v1` telemetry.
//! A flag the chosen scenario does not take is an error, not a no-op
//! (`dv-bench` with no arguments lists what each one takes). Everything
//! a scenario prints or writes is virtual time; its one host-time number
//! is the `wall: <s> s` stderr line. What the simulator costs on the
//! host — end to end and per layer, with a `--compare` that gates it —
//! is the `benchmark/` package's ledger, not a harness here.

use std::fmt::Write as _;

pub mod opts;
pub mod report;
pub mod stream;

pub use opts::{Opts, Scenario};
pub use report::Report;
pub use stream::Streamer;

/// Render an aligned text table (markdown-flavored).
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
        let _ = write!(out, "|");
        for (c, w) in cells.iter().zip(widths) {
            let _ = write!(out, " {c:>w$} |");
        }
        let _ = writeln!(out);
    };
    fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(), &widths, &mut out);
    let _ = write!(out, "|");
    for w in &widths {
        let _ = write!(out, "{}|", "-".repeat(w + 2));
    }
    let _ = writeln!(out);
    for row in rows {
        fmt_row(row, &widths, &mut out);
    }
    out
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = table(
            &["name", "value"],
            &[vec!["a".into(), "1.0".into()], vec!["long-name".into(), "2".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines the same width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].contains("name") && lines[3].contains("long-name"));
    }
}
