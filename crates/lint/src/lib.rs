//! # dv-lint — determinism & simulation-safety static analysis
//!
//! Every figure this workspace reproduces rests on one promise: the
//! discrete-event simulation is *deterministic* — same seed in, identical
//! event trace out. That promise is easy to break silently: one `HashMap`
//! iteration feeding a send loop, one `Instant::now()` in a cost model,
//! and results stop reproducing while every functional test still passes.
//!
//! `dv-lint` is the static half of the lock and atomic discipline (the
//! runtime halves are `dv_sim::OrderAudit` and
//! `dv_core::sync::lock_order_conflicts`). It is a two-pass analyzer with
//! no external dependencies: pass one is a real lexer ([`lexer`])
//! producing the spanned token stream that [`scanner`] holds as the one
//! source model every rule reads; pass two ([`scope`]) builds a
//! lightweight item model — fn boundaries, test regions, live lock
//! guards — that the rules and the whole-workspace lock-order graph
//! ([`lockgraph`]) consume.
//!
//! The rest of the determinism policy is clippy config: `HashMap`/`HashSet`
//! (DV-W001), the wall clock (DV-W002), std locks and channels in the hot
//! paths (DV-W004), raw threads (DV-W008) and host-blocking calls
//! (DV-W010) are `disallowed-types` / `disallowed-methods` in the root
//! `clippy.toml` and its per-crate copies; prints in libraries (DV-W006) and unsafe without a
//! `// SAFETY:` comment (DV-W009) are `[workspace.lints.clippy]`; lossy
//! casts in dv-switch and dv-vic (DV-W011) are `cast_possible_truncation`,
//! `cast_possible_wrap` and `cast_sign_loss`.
//! An audited exception to those is `#[expect(clippy::…, reason = "…")]`.
//!
//! ## Shipped rules
//!
//! | id | severity | meaning |
//! |----|----------|---------|
//! | `DV-W007` | warning | mixed `Ordering::Relaxed`/`Ordering::SeqCst` atomics in one function |
//! | `DV-W012` | warning | nested lock guards from different mutexes in one function |
//! | `DV-W013` | error | lock-order cycle among named mutexes (whole-workspace graph) |
//!
//! dv-lint has no suppression path: a finding is fixed, not silenced.
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

use std::path::{Path, PathBuf};

use dv_core::json::Json;

pub use lockgraph::LockGraph;
pub use rules::{AnalyzedFile, Finding, Rule, Severity, RULES};
pub use scanner::SourceFile;

/// Result of a workspace lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Every finding, in (path, line, rule) order.
    pub findings: Vec<Finding>,
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
            ("schema".into(), Json::str("dv-lint-v3")),
            ("files".into(), Json::U64(self.files as u64)),
            ("errors".into(), Json::U64(self.errors() as u64)),
            ("warnings".into(), Json::U64(self.warnings() as u64)),
            ("findings".into(), Json::Arr(self.findings.iter().map(finding_json).collect())),
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

/// Lint every workspace source under `root` against all shipped rules.
/// Per-file `DV-W013` findings are replaced by the whole-workspace lock
/// graph's (cross-file cycles are invisible to any single file).
pub fn run_lint(root: &Path) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    let mut graph = LockGraph::new();
    let mut files: Vec<AnalyzedFile> = Vec::new();

    for path in workspace_sources(root) {
        let source = std::fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        report.files += 1;
        let file = AnalyzedFile::parse(&rel, &source);
        graph.add_file(&file);
        report
            .findings
            .extend(rules::scan_file(crate_of(&rel), &file).into_iter().filter(|f| f.rule != "DV-W013"));
        files.push(file);
    }

    graph.resolve();
    if let Some(w013) = rules::rule("DV-W013") {
        for (path, line, note) in rules::cycle_findings(&graph) {
            // Every witness comes from a scanned file.
            if let Some(file) = files.iter().find(|x| x.src.path == path) {
                report.findings.push(w013.finding(&file.src, line, note));
            }
        }
    }

    report.locks = graph;
    report.findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
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
    fn workspace_scan_has_no_findings() {
        // The real workspace must lint clean — the same invariant CI
        // enforces. Walk up from this crate to the workspace root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = run_lint(&root).expect("scan must succeed");
        assert!(
            report.findings.is_empty(),
            "workspace has lint findings:\n{}",
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
        for expected in ["sim.kernel", "sim.registry", "metrics.sampler"] {
            assert!(names.iter().any(|n| n == expected), "lock {expected} not found in {names:?}");
        }
    }

    #[test]
    fn json_report_is_byte_stable() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let a = run_lint(&root).expect("scan").to_json().render_pretty();
        let b = run_lint(&root).expect("scan").to_json().render_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"dv-lint-v3\""));
    }
}
