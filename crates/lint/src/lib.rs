//! # dv-lint — determinism & simulation-safety static analysis
//!
//! Every figure this workspace reproduces rests on one promise: the
//! discrete-event simulation is *deterministic* — same seed in, identical
//! event trace out. That promise is easy to break silently: one `HashMap`
//! iteration feeding a send loop, one `Instant::now()` in a cost model,
//! and results stop reproducing while every functional test still passes.
//!
//! `dv-lint` is the static half of the enforcement (the runtime halves
//! are `dv_sim::OrderAudit` and `dv_core::sync::lock_order_conflicts`).
//! It is a two-pass analyzer with no external dependencies: pass one is a
//! real lexer ([`lexer`]) producing the spanned token stream that
//! [`scanner`] holds as the one source model every rule reads; pass
//! two ([`scope`]) builds a lightweight item model — fn boundaries, `use`
//! imports, test regions, `unsafe` spans, live lock guards — that the
//! concurrency rules and the whole-workspace lock-order graph
//! ([`lockgraph`]) consume. An audited exception is written one way:
//! inline, next to the code it excuses, with its reason ([`suppress`]).
//!
//! ## Shipped rules
//!
//! | id | severity | meaning |
//! |----|----------|---------|
//! | `DV-W001` | error | `HashMap`/`HashSet` in simulation-reachable code (iteration order can leak into simulated sends) — use `BTreeMap`/`BTreeSet` or a sorted drain |
//! | `DV-W002` | error | wall-clock time (`Instant`, `SystemTime`) inside simulation crates — all time must be virtual |
//! | `DV-W004` | warning | `unwrap()`/`expect()` on lock or channel results in sim hot paths — use `dv_core::sync::Mutex` (poison-recovering) or handle the error |
//! | `DV-W006` | warning | `print!`-family macros in library crates — record through metrics/trace instead |
//! | `DV-W007` | warning | mixed `Ordering::Relaxed`/`Ordering::SeqCst` atomics in one function |
//! | `DV-W008` | error | raw `std::thread::spawn` outside the dv-sim scheduler |
//! | `DV-W009` | warning | `unsafe` block/impl without an adjacent `// SAFETY:` comment |
//! | `DV-W010` | error | host-blocking call (`sleep`, `thread::park`, `yield_now`, `recv_timeout`) in virtual-time code |
//! | `DV-W011` | warning | narrowing `as` cast on a port/address/cycle value on the packet path |
//! | `DV-W012` | warning | nested lock guards from different mutexes in one function |
//! | `DV-W013` | error | lock-order cycle among named mutexes (whole-workspace graph) |
//!
//! Two synthesized diagnostics keep the suppression machinery honest:
//! `DV-S001` (malformed inline suppression) and `DV-S002` (inline
//! suppression that matched nothing). Both are warnings, so
//! `--deny-warnings` CI catches rot.
//!
//! Run it as `cargo run -p dv-lint` (add `-- --deny-warnings` in CI, and
//! `--format json` for the machine-readable report), or use [`run_lint`]
//! as a library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod lockgraph;
pub mod rules;
pub mod scanner;
pub mod scope;
pub mod suppress;

use std::path::{Path, PathBuf};

use dv_core::json::Json;

pub use lockgraph::LockGraph;
pub use rules::{AnalyzedFile, Finding, Rule, Severity, RULES};
pub use scanner::SourceFile;

/// Result of a workspace lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings that survived the inline suppressions, in (path, line,
    /// rule) order.
    pub findings: Vec<Finding>,
    /// Findings suppressed inline, with the written reason.
    pub suppressed: Vec<(Finding, String)>,
    /// Number of files scanned.
    pub files: usize,
    /// The whole-workspace lock-order graph (bindings resolved, edges
    /// unioned across every scanned file).
    pub locks: LockGraph,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Warning).count()
    }

    /// The deterministic machine-readable report (`--format json`): every
    /// collection is emitted in sorted order, so two runs over the same
    /// tree produce byte-identical output.
    pub fn to_json(&self) -> Json {
        let finding_json = |f: &Finding| {
            Json::Obj(vec![
                ("rule".into(), Json::str(f.rule)),
                ("severity".into(), Json::str(f.severity.to_string())),
                ("path".into(), Json::str(&f.path)),
                ("line".into(), Json::U64(f.line as u64)),
                ("text".into(), Json::str(&f.text)),
                ("message".into(), Json::str(f.message)),
                ("note".into(), Json::str(&f.note)),
            ])
        };
        let suppressed = Json::Arr(
            self.suppressed
                .iter()
                .map(|(f, reason)| {
                    Json::Obj(vec![
                        ("rule".into(), Json::str(f.rule)),
                        ("path".into(), Json::str(&f.path)),
                        ("line".into(), Json::U64(f.line as u64)),
                        ("reason".into(), Json::str(reason)),
                    ])
                })
                .collect(),
        );
        let edges = Json::Arr(
            self.locks
                .edges
                .iter()
                .map(|((held, acquired), w)| {
                    Json::Obj(vec![
                        ("held".into(), Json::str(held)),
                        ("acquired".into(), Json::str(acquired)),
                        ("path".into(), Json::str(&w.path)),
                        ("line".into(), Json::U64(w.line as u64)),
                        ("in_fn".into(), Json::str(&w.in_fn)),
                    ])
                })
                .collect(),
        );
        let cycles = Json::Arr(
            self.locks
                .cycles()
                .into_iter()
                .map(|c| Json::Arr(c.into_iter().map(Json::Str).collect()))
                .collect(),
        );
        Json::Obj(vec![
            ("schema".into(), Json::str("dv-lint-v2")),
            ("files".into(), Json::U64(self.files as u64)),
            ("errors".into(), Json::U64(self.errors() as u64)),
            ("warnings".into(), Json::U64(self.warnings() as u64)),
            ("findings".into(), Json::Arr(self.findings.iter().map(finding_json).collect())),
            ("suppressed".into(), suppressed),
            (
                "lock_graph".into(),
                Json::Obj(vec![
                    (
                        "names".into(),
                        Json::Arr(self.locks.names().into_iter().map(Json::Str).collect()),
                    ),
                    ("edges".into(), edges),
                    ("cycles".into(), cycles),
                ]),
            ),
        ])
    }
}

/// Rust sources under `root` that the lint scans: workspace crates and
/// their integration tests (`crates/*/src`, `crates/*/tests`, linted in
/// their crate's scope), the root crate (`src`), and the root integration
/// tests (`tests`). Benches, fixtures and examples are intentionally not
/// scanned — benches own the host clock, fixtures *contain* violations by
/// design, and examples are binaries with no crate scope of their own.
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates) {
        let mut dirs: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        dirs.sort();
        for dir in dirs {
            collect_rs(&dir.join("src"), &mut out);
            collect_rs(&dir.join("tests"), &mut out);
        }
    }
    collect_rs(&root.join("src"), &mut out);
    collect_rs(&root.join("tests"), &mut out);
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The crate-scope name for a workspace-relative path: `crates/api/src/..`
/// → `api`, `src/lib.rs` → `datavortex`, `tests/..` → `tests`.
pub fn crate_of(rel_path: &str) -> &str {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or(""),
        Some("tests") => "tests",
        _ => "datavortex",
    }
}

/// Severity of every synthesized `DV-S***` diagnostic.
const META_SEVERITY: Severity = Severity::Warning;

fn meta_finding(
    rule: &'static str,
    message: &'static str,
    hint: &'static str,
    path: &str,
    line: usize,
    text: String,
    note: String,
) -> Finding {
    Finding {
        rule,
        severity: META_SEVERITY,
        path: path.to_string(),
        line,
        text,
        message,
        hint,
        note,
    }
}

/// Lint every workspace source under `root` against all shipped rules,
/// then apply the inline suppressions. Per-file `DV-W013` findings are
/// replaced by the whole-workspace lock graph's (cross-file cycles are
/// invisible to any single file).
pub fn run_lint(root: &Path) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    let mut graph = LockGraph::new();
    let mut raw_findings: Vec<Finding> = Vec::new();
    // (file path, suppression, used) across the workspace.
    let mut suppressions: Vec<(String, suppress::Suppression, bool)> = Vec::new();
    let mut files: Vec<AnalyzedFile> = Vec::new();

    for path in workspace_sources(root) {
        let source = std::fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        report.files += 1;
        let file = AnalyzedFile::parse(&rel, &source);
        graph.add_file(&file);
        raw_findings
            .extend(rules::scan_file(crate_of(&rel), &file).into_iter().filter(|f| f.rule != "DV-W013"));
        let (found, malformed) = suppress::collect(&file.src);
        for m in malformed {
            raw_findings.push(meta_finding(
                "DV-S001",
                "malformed dv-lint suppression comment",
                "write `dv-lint: allow(DV-XNNN, reason = \"...\")` — one rule id, \
                 non-empty quoted reason",
                &rel,
                m.line,
                file.src.line_text(m.line),
                m.message,
            ));
        }
        suppressions.extend(found.into_iter().map(|s| (rel.clone(), s, false)));
        files.push(file);
    }

    graph.resolve();
    if let Some(w013) = rules::rule("DV-W013") {
        for (path, line, note) in rules::cycle_findings(&graph) {
            // Every witness comes from a scanned file.
            if let Some(file) = files.iter().find(|x| x.src.path == path) {
                raw_findings.push(w013.finding(&file.src, line, note));
            }
        }
    }

    for finding in raw_findings {
        let inline = suppressions.iter_mut().find(|(path, s, _)| {
            s.rule == finding.rule && s.target_line == finding.line && *path == finding.path
        });
        match inline {
            Some((_, s, used)) => {
                *used = true;
                report.suppressed.push((finding, s.reason.clone()));
            }
            None => report.findings.push(finding),
        }
    }

    // Silencers that silenced nothing are findings themselves.
    for (path, s, used) in &suppressions {
        if !used {
            report.findings.push(meta_finding(
                "DV-S002",
                "inline suppression matched no finding",
                "the code it silenced is gone or the rule no longer fires — delete \
                 the comment",
                path,
                s.at_line,
                String::new(),
                format!("allow({}, reason = \"{}\")", s.rule, s.reason),
            ));
        }
    }

    report.locks = graph;
    report.findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report
        .suppressed
        .sort_by(|a, b| (&a.0.path, a.0.line, a.0.rule).cmp(&(&b.0.path, b.0.line, b.0.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_maps_paths_to_scopes() {
        assert_eq!(crate_of("crates/api/src/ctx.rs"), "api");
        assert_eq!(crate_of("crates/lint/src/lib.rs"), "lint");
        assert_eq!(crate_of("src/lib.rs"), "datavortex");
        assert_eq!(crate_of("tests/determinism.rs"), "tests");
    }

    #[test]
    fn workspace_scan_has_no_unsuppressed_findings() {
        // The real workspace must lint clean — the same invariant CI
        // enforces. Walk up from this crate to the workspace root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = run_lint(&root).expect("scan must succeed");
        assert!(
            report.findings.is_empty(),
            "workspace has unsuppressed lint findings:\n{}",
            report
                .findings
                .iter()
                .map(|f| f.render())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(report.files > 50, "scanner should see the whole workspace");
    }

    #[test]
    fn workspace_lock_graph_is_acyclic_and_names_known_locks(){
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = run_lint(&root).expect("scan must succeed");
        assert!(report.locks.cycles().is_empty(), "{:?}", report.locks.cycles());
        let names = report.locks.names();
        for expected in ["sim.kernel", "sim.registry", "api.vic", "api.barrier", "mpi.pending"] {
            assert!(names.iter().any(|n| n == expected), "lock {expected} not found in {names:?}");
        }
    }

    #[test]
    fn json_report_is_byte_stable() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let a = run_lint(&root).expect("scan").to_json().render_pretty();
        let b = run_lint(&root).expect("scan").to_json().render_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"dv-lint-v2\""));
    }
}
