//! Render a `BENCH_*.json` artifact (written by any scenario's
//! `--json <path>` flag) as a human-readable perf report: result tables,
//! top counters, histograms, and the execution timeline.
//!
//! Usage:
//!   `dv-report <file.json> [more.json ...]`
//!   `dv-report --timeline <stream.jsonl> [more ...]`

use dv_bench::report::render_report;
use dv_core::json::Json;

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
    if files.first().map(String::as_str) == Some("--timeline") {
        std::process::exit(run_timeline(&files[1..]));
    }
    // `--timeline` is the only flag: any other dashed word is a mistake
    // to name, not a file to open.
    if files.is_empty() || files.iter().any(|f| f.starts_with("--")) {
        eprintln!("usage: dv-report <file.json> [more.json ...] | dv-report --timeline <stream.jsonl> [more ...]");
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
