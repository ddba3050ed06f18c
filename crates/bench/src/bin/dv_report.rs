//! Render a `BENCH_*.json` artifact (written by any fig binary's
//! `--json <path>` flag) as a human-readable perf report: result tables,
//! top counters, histograms, and the execution timeline.
//!
//! Usage:
//!   `dv-report <file.json> [more.json ...]`
//!   `dv-report --gate <current.json> <previous.json> [--max-regress PCT]`
//!   `dv-report --gate <BENCH_net.json | BENCH_sim.json> [--min-speedup X]`
//!
//! `--gate` is the CI perf check over the `FIGURES` table, in two
//! shapes keyed on what it is given:
//!
//! * **Two artifacts** — the perf-trajectory check (current build vs the
//!   previous run's uploaded artifact): every figure of the artifact's
//!   `bench` is extracted from both, and the gate exits nonzero if any
//!   current number regressed by more than `PCT` percent (default 10).
//!   Improvements always pass; a figure the previous artifact predates is
//!   skipped.
//! * **One artifact** — the absolute floors: every figure of the
//!   artifact's `bench` that carries one (speedups over a frozen in-tree
//!   reference, stable across runner hardware).
//!
//! An artifact whose `bench` has no figure in the table is an error, not
//! a pass.

use dv_bench::report::render_report;
use dv_core::json::Json;

/// `(bench, row, column, floor)`: the cell under `column` in the row whose
/// first cell is `row`, and the least it may read in a one-artifact gate.
type Figure = (&'static str, &'static str, &'static str, Option<f64>);

/// The gated figures.
const FIGURES: [Figure; 4] = [
    // Absolute rates of the two DV movement kernels the figures run.
    ("perf_smoke", "arena+worklist", "cycles/sec", None),
    ("perf_smoke", "wide batched (rotating origin)", "cycles/sec", None),
    // Rebuilt routed engine over the frozen reference, sparse 4096 ports.
    ("net_smoke", "net cycles/sec speedup", "value", Some(3.0)),
    // Cooperative scheduler over the frozen reference: the dispatch-throughput
    // row (the ring rows are context-switch bound and not gated).
    ("sched_smoke", "pump@1024", "speedup", Some(4.0)),
];

/// The numeric cell under `column` in the first row named `row` of a
/// `dv-bench-v1` artifact.
fn cell(doc: &Json, row: &str, column: &str) -> Result<f64, String> {
    if doc.get("schema").and_then(Json::as_str) != Some("dv-bench-v1") {
        return Err("not a dv-bench-v1 artifact".into());
    }
    for section in doc.get("results").and_then(Json::as_arr).unwrap_or_default() {
        let headers = section.get("headers").and_then(Json::as_arr).unwrap_or_default();
        let Some(col) = headers.iter().position(|h| h.as_str() == Some(column)) else {
            continue;
        };
        for cells in section.get("rows").and_then(Json::as_arr).unwrap_or_default() {
            let cells = cells.as_arr().unwrap_or_default();
            if cells.first().and_then(Json::as_str) == Some(row) {
                return cells
                    .get(col)
                    .and_then(Json::as_str)
                    .and_then(|s| s.parse::<f64>().ok())
                    .ok_or_else(|| format!("{row} row has no numeric {column}"));
            }
        }
    }
    Err(format!("no section with a {row} {column} cell"))
}

/// The [`FIGURES`] rows of an artifact's `bench`; an unknown bench is an
/// error.
fn figures(doc: &Json) -> Result<Vec<&'static Figure>, String> {
    let bench = doc.get("bench").and_then(Json::as_str).unwrap_or("<none>");
    let rows: Vec<_> = FIGURES.iter().filter(|f| f.0 == bench).collect();
    if rows.is_empty() {
        return Err(format!("no gated figure is defined for bench {bench:?}"));
    }
    Ok(rows)
}

/// Load and parse one artifact, mapping errors to readable messages.
fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Run the perf gate; returns the process exit code (2 for unusable
/// input, 1 for a failed gate).
fn run_gate(args: &[String]) -> i32 {
    gate(args).unwrap_or_else(|e| {
        eprintln!("gate: {e}");
        2
    })
}

const USAGE: &str = "usage: dv-report --gate <current.json> <previous.json> [--max-regress PCT] | dv-report --gate <BENCH_net.json | BENCH_sim.json> [--min-speedup X]";

fn gate(args: &[String]) -> Result<i32, String> {
    let mut max_regress_pct = 10.0;
    let mut min_speedup: Option<f64> = None;
    let mut files: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--max-regress" || a == "--min-speedup" {
            match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if a == "--max-regress" => max_regress_pct = v,
                Some(v) => min_speedup = Some(v),
                None => return Err(format!("{a} needs a numeric value")),
            }
        } else {
            files.push(a);
        }
    }
    let (current, previous) = match files[..] {
        [one] => (load(one)?, None),
        [current, previous] => (load(current)?, Some(load(previous)?)),
        _ => return Err(USAGE.into()),
    };
    let rows = figures(&current)?;
    let Some(previous) = previous else {
        // One artifact: the absolute floors.
        let floors: Vec<_> =
            rows.iter().filter_map(|&&(_, row, col, floor)| Some((row, col, floor?))).collect();
        if floors.is_empty() {
            return Err("this bench has trajectory figures only; pass the previous artifact".into());
        }
        for (row, col, floor) in floors {
            let floor = min_speedup.unwrap_or(floor);
            let speedup = cell(&current, row, col)?;
            println!("gate: {row} = {speedup:.2}x");
            if speedup < floor {
                eprintln!("gate FAILED: below the {floor:.2}x floor");
                return Ok(1);
            }
            println!("gate passed (floor: {floor:.2}x)");
        }
        return Ok(0);
    };
    for &(_, row, col, _) in rows {
        let now = cell(&current, row, col)?;
        let Ok(was) = cell(&previous, row, col) else {
            println!("perf gate: previous artifact has no {row} {col}; skipped");
            continue;
        };
        let change_pct = (now - was) / was * 100.0;
        println!("perf gate: {row} {col} {was:.2} -> {now:.2} ({change_pct:+.1}%)");
        if change_pct < -max_regress_pct {
            eprintln!("perf gate FAILED: regression exceeds {max_regress_pct:.1}% budget");
            return Ok(1);
        }
    }
    println!("perf gate passed (budget: -{max_regress_pct:.1}%)");
    Ok(0)
}

/// Render dv-events-v1 streams as virtual-time timelines; returns the
/// process exit code.
fn run_timeline(files: &[String]) -> i32 {
    if files.is_empty() {
        eprintln!("usage: dv-report --timeline <stream.jsonl> [more ...]");
        return 2;
    }
    let mut code = 0;
    for file in files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{file}: {e}");
                code = 1;
                continue;
            }
        };
        match dv_bench::stream::parse_stream(&text) {
            Ok(doc) => {
                println!("# {file}");
                println!("{}", dv_bench::stream::render_timeline(&doc));
            }
            Err(e) => {
                eprintln!("{file}: {e}");
                code = 1;
            }
        }
    }
    code
}

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.first().map(String::as_str) == Some("--gate") {
        std::process::exit(run_gate(&files[1..]));
    }
    if files.first().map(String::as_str) == Some("--timeline") {
        std::process::exit(run_timeline(&files[1..]));
    }
    if files.is_empty() {
        eprintln!(
            "usage: dv-report <file.json> [more.json ...] | dv-report --gate <cur> <prev> | dv-report --timeline <stream.jsonl>"
        );
        std::process::exit(2);
    }
    let mut failed = false;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{file}: {e}");
                failed = true;
                continue;
            }
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("{file}: {e}");
                failed = true;
                continue;
            }
        };
        match render_report(&doc) {
            Ok(report) => {
                println!("# {file}");
                println!("{report}");
            }
            Err(e) => {
                eprintln!("{file}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
