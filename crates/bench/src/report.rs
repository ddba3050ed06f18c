//! Benchmark run reports: the `--json <path>` artifact every scenario can
//! emit, and the renderer behind the `dv-report` viewer.
//!
//! The document schema (`dv-bench-v1`):
//!
//! ```json
//! {
//!   "schema": "dv-bench-v1",
//!   "bench": "fig6",
//!   "quick": true,
//!   "results": [ {"title": "...", "headers": [...], "rows": [[...]]} ],
//!   "runs":    [ {"label": "dv.n4", "metrics": { ...MetricsSnapshot... }} ],
//!   "trace":   "S 0 0 1000 Compute\n..."   // optional Tracer::dump
//! }
//! ```
//!
//! Everything in the document is derived from virtual time and
//! deterministic counters, so running the same scenario twice produces
//! byte-identical files — CI can diff `BENCH_*.json` artifacts across
//! commits the same way `tests/determinism.rs` compares trace hashes.

use std::fs::File;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use dv_core::json::Json;
use dv_core::metrics::{MetricsRegistry, MetricsSnapshot};
use dv_core::trace::Tracer;

use crate::Opts;

/// Collects a benchmark's tables, instrumented runs, and optional trace,
/// printing tables to stdout as it goes; [`Report::finish`] writes the
/// JSON artifact into the file [`Report::new`] created for `--json` and
/// reports the run's host wall-clock on stderr — never stdout or the
/// artifact, which stay byte-reproducible.
pub struct Report {
    started: Instant,
    bench: &'static str,
    quick: bool,
    json: Option<(PathBuf, File)>,
    results: Vec<Json>,
    runs: Vec<Json>,
    trace: Option<String>,
}

impl Report {
    /// Start the report of one `dv-bench` invocation, creating the
    /// `--json` file now: a path that cannot be written exits 1 before
    /// anything is simulated, as `--stream` does.
    pub fn new(opts: &Opts) -> Self {
        let json = opts.json.as_ref().map(|path| match File::create(path) {
            Ok(file) => (path.clone(), file),
            Err(e) => {
                eprintln!("failed to create {}: {e}", path.display());
                std::process::exit(1);
            }
        });
        Self {
            started: Instant::now(),
            bench: opts.bench,
            quick: opts.quick,
            json,
            results: Vec::new(),
            runs: Vec::new(),
            trace: None,
        }
    }

    /// Print a titled table to stdout and record it in the document.
    pub fn section(&mut self, title: &str, headers: &[&str], rows: Vec<Vec<String>>) {
        println!("{title}\n");
        println!("{}", crate::table(headers, &rows));
        self.results.push(Json::Obj(vec![
            ("title".to_string(), Json::str(title)),
            (
                "headers".to_string(),
                Json::Arr(headers.iter().map(|h| Json::str(*h)).collect()),
            ),
            (
                "rows".to_string(),
                Json::Arr(
                    rows.into_iter()
                        .map(|r| Json::Arr(r.into_iter().map(Json::str).collect()))
                        .collect(),
                ),
            ),
        ]));
    }

    /// Record one instrumented run's metrics under `label` (skipped when
    /// the registry recorded nothing, e.g. it was disabled).
    pub fn add_run(&mut self, label: &str, metrics: &MetricsRegistry) {
        let snap = metrics.snapshot();
        if snap.is_empty() {
            return;
        }
        self.runs.push(Json::Obj(vec![
            ("label".to_string(), Json::str(label)),
            ("metrics".to_string(), snap.to_json()),
        ]));
    }

    /// Attach an execution trace (`Tracer::dump` text) for the timeline
    /// panel of `dv-report`.
    pub fn set_trace(&mut self, trace: String) {
        self.trace = Some(trace);
    }

    /// The full `dv-bench-v1` document.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("schema".to_string(), Json::str("dv-bench-v1")),
            ("bench".to_string(), Json::str(self.bench)),
            ("quick".to_string(), Json::Bool(self.quick)),
            ("results".to_string(), Json::Arr(self.results.clone())),
            ("runs".to_string(), Json::Arr(self.runs.clone())),
        ];
        if let Some(t) = &self.trace {
            members.push(("trace".to_string(), Json::str(t.clone())));
        }
        Json::Obj(members)
    }

    /// Write the document if `--json <path>` was passed, then print the
    /// `wall: <s> s` line to stderr. Call last.
    pub fn finish(mut self) {
        if let Some((path, mut file)) = self.json.take() {
            if let Err(e) = file.write_all(self.to_json().render_pretty().as_bytes()) {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("wrote {}", path.display());
        }
        eprintln!("wall: {:.3} s", self.started.elapsed().as_secs_f64());
    }
}

/// Render a `dv-bench-v1` document as a human-readable perf report
/// (the `dv-report` binary is a thin wrapper around this).
pub fn render_report(doc: &Json) -> Result<String, String> {
    use std::fmt::Write as _;

    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("?");
    if schema != "dv-bench-v1" {
        return Err(format!("unsupported schema {schema:?} (expected \"dv-bench-v1\")"));
    }
    let bench = doc.get("bench").and_then(Json::as_str).unwrap_or("?");
    let quick = doc.get("quick").and_then(|q| match q {
        Json::Bool(b) => Some(*b),
        _ => None,
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench: {bench}{}",
        if quick == Some(true) { " (--quick)" } else { "" }
    );

    // Result tables, re-rendered from headers + rows.
    for section in doc.get("results").and_then(Json::as_arr).unwrap_or(&[]) {
        let title = section.get("title").and_then(Json::as_str).unwrap_or("");
        let headers: Vec<&str> = section
            .get("headers")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_str)
            .collect();
        let rows: Vec<Vec<String>> = section
            .get("rows")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_arr)
            .map(|r| r.iter().map(|c| c.as_str().unwrap_or("?").to_string()).collect())
            .collect();
        let _ = writeln!(out, "\n{title}\n");
        let _ = write!(out, "{}", crate::table(&headers, &rows));
    }

    // Per-run metrics panels.
    for run in doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
        let label = run.get("label").and_then(Json::as_str).unwrap_or("?");
        let snap = run
            .get("metrics")
            .ok_or_else(|| format!("run {label:?} has no metrics"))
            .and_then(MetricsSnapshot::from_json)?;
        let _ = writeln!(out, "\n== run {label} ==");
        let _ = write!(out, "{}", render_snapshot(&snap));
    }

    // Timeline.
    if let Some(trace) = doc.get("trace").and_then(Json::as_str) {
        let tracer = Tracer::parse(trace)?;
        let nodes =
            tracer.state_totals().keys().map(|&(n, _)| n + 1).max().unwrap_or(0);
        if nodes > 0 {
            let _ = writeln!(out, "\n== timeline ==");
            let _ = write!(out, "{}", tracer.render_ascii(nodes, 100, None));
        }
    }
    Ok(out)
}

/// One run's metrics: top counters, gauges, histogram bars.
fn render_snapshot(snap: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;

    const TOP: usize = 20;
    let mut out = String::new();
    let key_str = |(name, labels): &(String, dv_core::metrics::Labels)| -> String {
        if labels.is_empty() {
            name.clone()
        } else {
            let l: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{name}{{{}}}", l.join(","))
        }
    };

    if !snap.counters().is_empty() {
        let mut counters: Vec<(String, u64)> =
            snap.counters().iter().map(|(k, &v)| (key_str(k), v)).collect();
        // Largest first; ties resolve by key so the order is deterministic.
        counters.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let shown = counters.len().min(TOP);
        let _ = writeln!(out, "top counters ({shown} of {}):", counters.len());
        let width = counters[..shown].iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        for (k, v) in &counters[..shown] {
            let _ = writeln!(out, "  {k:<width$}  {v}");
        }
    }

    if !snap.gauges().is_empty() {
        let _ = writeln!(out, "gauges:");
        let width = snap.gauges().keys().map(|k| key_str(k).len()).max().unwrap_or(0);
        for (k, v) in snap.gauges() {
            let _ = writeln!(out, "  {:<width$}  {v:.4}", key_str(k));
        }
    }

    for (k, h) in snap.histograms() {
        let _ = writeln!(out, "histogram {} (total {}):", key_str(k), h.total);
        let peak = h.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (i, &count) in h.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let bar = "#".repeat(((count * 40).div_ceil(peak)) as usize);
            let _ = writeln!(out, "  2^{i:<2} {bar} {count}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_document_round_trips_and_renders() {
        let metrics = MetricsRegistry::enabled();
        metrics.incr("demo.count", 7);
        metrics.gauge("demo.level", 0.5);
        metrics.observe("demo.sizes", 9);

        let mut r = Report::new(&Opts::new("demo"));
        r.section(
            "A table",
            &["nodes", "value"],
            vec![vec!["4".into(), "1.25".into()]],
        );
        r.add_run("run.a", &metrics);
        r.set_trace("S 0 0 1000 Compute\n".to_string());

        let text = r.to_json().render_pretty();
        let doc = Json::parse(&text).expect("document parses");
        let report = render_report(&doc).expect("renders");
        assert!(report.contains("bench: demo"));
        assert!(report.contains("A table"));
        assert!(report.contains("demo.count"));
        assert!(report.contains("histogram demo.sizes"));
        assert!(report.contains("== timeline =="));
    }

    #[test]
    fn render_rejects_unknown_schema() {
        let doc = Json::parse(r#"{"schema":"nope"}"#).unwrap();
        assert!(render_report(&doc).is_err());
    }
}
