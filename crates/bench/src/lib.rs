//! # dv-bench — regenerates every figure of the paper's evaluation
//!
//! One binary per figure (the paper's evaluation has no numbered tables;
//! its results are Figures 3–9), plus the studies, perf smokes and
//! artifact tools around them — all 16 bins:
//!
//! | binary | role | content |
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
//! | `perf_smoke` | perf trajectory | `SwitchSim` cycles/sec: narrow kernel vs the frozen reference, batched kernel at 4096 ports → `BENCH_switch.json` |
//! | `net_smoke` | perf trajectory | `RoutedNetSim` cycles/sec vs the frozen reference → `BENCH_net.json` |
//! | `sched_smoke` | perf trajectory | cooperative vs reference scheduler dispatch rate → `BENCH_sim.json` |
//! | `dv-report` | artifact tool | renders `BENCH_*.json`, `--timeline` for streams, `--gate` for CI |
//! | `dv-top` | artifact tool | live / `--replay` dashboard over a `dv-events-v1` stream |
//!
//! The figure, study and ablation binaries accept `--quick` for reduced
//! problem sizes, `--json <path>` for a `dv-bench-v1` artifact and
//! `--stream <path>` for `dv-events-v1` telemetry; the sweep binaries
//! accept `--serial` to disable the parallel sweep driver (CI `cmp`s
//! serial vs parallel output for byte equality). `perf_smoke` and
//! `net_smoke` share [`replay`] — one seeded trace, one `drive` loop over
//! any `dv_switch::CycleEngine`, one alternating best-of-reps — and both
//! take `--verify <path>` for the deterministic half of their output.
//! Wall-clock micro-benchmarks of the hot substrates live in
//! `benches/micro.rs`, a dependency-free harness (`cargo bench -p
//! dv-bench`).

use std::fmt::Write as _;

pub mod replay;
pub mod report;
pub mod stream;

pub use report::{json_path, Report};
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

/// True when `--quick` was passed (CI-friendly sizes).
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The value of `--flag <value>` / `--flag=<value>` on the command line,
/// if the flag is present. A flag with no trailing value exits with a
/// diagnostic — every value-carrying bench flag shares this behavior.
pub fn arg_value(flag: &str) -> Option<String> {
    match arg_value_in(std::env::args(), flag) {
        Ok(v) => v,
        Err(()) => {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        }
    }
}

/// Testable core of [`arg_value`]: `Err(())` means the flag was present
/// with no value.
fn arg_value_in(
    mut args: impl Iterator<Item = String>,
    flag: &str,
) -> Result<Option<String>, ()> {
    while let Some(a) = args.next() {
        if a == flag {
            return args.next().map(Some).ok_or(());
        }
        if let Some(v) = a.strip_prefix(flag).and_then(|rest| rest.strip_prefix('=')) {
            return Ok(Some(v.to_string()));
        }
    }
    Ok(None)
}

/// Parse `--topo <kind>` into the sweep bins' rival-topology selection
/// (`dv`, `fattree`, `minpath` — see `dv_switch::TopoKind::parse` for
/// the accepted spellings). Returns `None` when the flag is absent (bins
/// default to the Data Vortex); exits with a diagnostic on an unknown
/// kind.
pub fn topo() -> Option<dv_switch::TopoKind> {
    let spec = arg_value("--topo")?;
    match dv_switch::TopoKind::parse(&spec) {
        Some(kind) => Some(kind),
        None => {
            eprintln!("unknown --topo {spec:?} (expected dv, fattree, or minpath)");
            std::process::exit(2);
        }
    }
}

/// True when `--serial` was passed: run sweeps on the serial driver
/// instead of the (byte-identical) parallel one. CI uses this to `cmp`
/// the two paths' JSON artifacts.
pub fn serial() -> bool {
    std::env::args().any(|a| a == "--serial")
}

/// Parse `--faults <spec>` / `--faults=<spec>` into a deterministic fault
/// plan (see `dv_core::fault::FaultPlan::parse` for the grammar, e.g.
/// `seed=7,fifodrop=0.02`). Returns `None` when the flag is absent; exits
/// with a diagnostic on a malformed spec.
pub fn faults() -> Option<dv_core::fault::FaultPlan> {
    let spec = arg_value("--faults")?;
    match dv_core::fault::FaultPlan::parse(&spec) {
        Ok(plan) => Some(plan),
        Err(e) => {
            eprintln!("invalid --faults spec {spec:?}: {e}");
            std::process::exit(2);
        }
    }
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

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter().map(|s| s.to_string()).collect::<Vec<_>>().into_iter()
    }

    #[test]
    fn arg_value_accepts_both_flag_forms() {
        assert_eq!(
            arg_value_in(args(&["bin", "--topo", "fattree"]), "--topo"),
            Ok(Some("fattree".into()))
        );
        assert_eq!(
            arg_value_in(args(&["bin", "--quick", "--topo=minpath"]), "--topo"),
            Ok(Some("minpath".into()))
        );
        assert_eq!(arg_value_in(args(&["bin", "--quick"]), "--topo"), Ok(None));
        // `--topology x` must not satisfy a `--topo` lookup.
        assert_eq!(arg_value_in(args(&["bin", "--topology", "x"]), "--topo"), Ok(None));
        assert_eq!(arg_value_in(args(&["bin", "--topo"]), "--topo"), Err(()));
    }

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
