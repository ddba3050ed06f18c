//! The rule engine and the three shipped `DV-W***` rules.
//!
//! Two passes run per file: the lexer pass produces the spanned token
//! stream (see [`crate::scanner`]), and the scope pass builds the item
//! model ([`crate::scope`]). Every rule has one shape: a whole-file
//! analysis over both, returning `(line, note)` pairs. What dv-lint keeps
//! is what clippy cannot say: atomic orderings mixed within one function
//! (DV-W007), nested guards of different mutexes (DV-W012) and lock-order
//! cycles across the workspace (DV-W013). The single-name rules (hash
//! containers, wall clock, host blocking, raw threads, prints, unsafe
//! comments, narrowing casts) are clippy config: see the root
//! `clippy.toml`.
//!
//! A rule also carries a crate scope and a `skip_tests` flag (lock
//! discipline ignores `#[cfg(test)]` regions and `tests/` files, where
//! throwaway harness locks are legitimate). Adding a rule means adding
//! one [`Rule`] entry to [`RULES`] and a pair of fixture files under
//! `fixtures/` (positive + negative), which the unit tests enforce per
//! rule.

use std::collections::BTreeMap;

use crate::lockgraph::LockGraph;
use crate::scanner::SourceFile;
use crate::scope::ScopeModel;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Suspicious; fails the build only under `--deny-warnings`.
    Warning,
    /// A determinism hazard; always fails the lint.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One scanned file with both passes applied: the source model and the
/// scope model every rule reads.
#[derive(Debug)]
pub struct AnalyzedFile {
    /// Pass one: raw lines and the token stream.
    pub src: SourceFile,
    /// Pass two: fns, test regions, lock nesting.
    pub scopes: ScopeModel,
}

impl AnalyzedFile {
    /// Run both passes over `source`.
    pub fn parse(path: &str, source: &str) -> Self {
        let src = SourceFile::parse(path, source);
        let scopes = ScopeModel::build(&src);
        Self { src, scopes }
    }
}

/// Crates whose code runs (or builds data used) inside the simulation:
/// an ordering there can reach the event trace. `datavortex` is the root
/// facade crate; `tests` the root integration tests, which assert
/// bit-exactness and so inherit the rules.
const SIM_REACHABLE: &[&str] =
    &["core", "sim", "switch", "vic", "mpi", "api", "kernels", "apps", "datavortex", "tests"];

/// Every crate in the workspace, the bench harness included.
const EVERYWHERE: &[&str] = &[
    "core", "sim", "switch", "vic", "mpi", "api", "kernels", "apps", "lint", "bench",
    "datavortex", "tests",
];

/// A single static-analysis rule.
pub struct Rule {
    /// Stable identifier (`DV-W007`...).
    pub id: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// One-line description of the hazard.
    pub summary: &'static str,
    /// How to fix it.
    pub hint: &'static str,
    /// Crate scopes the rule applies to (see [`crate::crate_of`]).
    pub crates: &'static [&'static str],
    /// Whether findings inside test-only code are dropped.
    pub skip_tests: bool,
    /// The analysis: `(1-based line, note)` per violation.
    check: fn(&AnalyzedFile) -> Vec<(usize, String)>,
}

/// One rule violation at one source line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier.
    pub rule: &'static str,
    /// Rule severity.
    pub severity: Severity,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending raw source line, trimmed.
    pub text: String,
    /// The rule's summary.
    pub message: &'static str,
    /// The rule's fix hint.
    pub hint: &'static str,
    /// Finding-specific detail.
    pub note: String,
}

impl Finding {
    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{} [{}] {}:{}\n  {}\n  = {}",
            self.rule, self.severity, self.path, self.line, self.text, self.message
        );
        if !self.note.is_empty() {
            s.push_str("\n  note: ");
            s.push_str(&self.note);
        }
        s.push_str("\n  help: ");
        s.push_str(self.hint);
        s
    }
}

/// The memory orderings `std::sync::atomic::Ordering` offers.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// DV-W007: a function that mixes `Ordering::Relaxed` with
/// `Ordering::SeqCst` is either over- or under-synchronized; in this
/// workspace every sim-reachable atomic is a Relaxed counter, so a SeqCst
/// next to a Relaxed marks a misunderstanding, not a protocol.
fn w007_mixed_atomic_orderings(f: &AnalyzedFile) -> Vec<(usize, String)> {
    let toks = f.src.code_tokens();
    // fn name -> (ordering, line) uses, in source order.
    let mut per_fn: BTreeMap<String, Vec<(&str, usize)>> = BTreeMap::new();
    for k in 0..toks.len() {
        if !(toks[k].is_ident("Ordering") && toks.get(k + 1).is_some_and(|t| t.is_punct("::"))) {
            continue;
        }
        let Some(ord) = toks
            .get(k + 2)
            .and_then(|t| ORDERINGS.iter().find(|o| t.is_ident(o)))
        else {
            continue;
        };
        let scope = f
            .scopes
            .enclosing_fn(toks[k].line)
            .map(|s| s.name.clone())
            .unwrap_or_else(|| "<top level>".to_string());
        per_fn.entry(scope).or_default().push((ord, toks[k].line));
    }
    let mut out = Vec::new();
    for (fn_name, uses) in per_fn {
        let relaxed = uses.iter().find(|(o, _)| *o == "Relaxed");
        let seqcst: Vec<_> = uses.iter().filter(|(o, _)| *o == "SeqCst").collect();
        if let Some(&(_, relaxed_line)) = relaxed {
            for (_, line) in seqcst {
                out.push((
                    *line,
                    format!(
                        "`{fn_name}` uses Ordering::SeqCst here but Ordering::Relaxed \
                         at line {relaxed_line}"
                    ),
                ));
            }
        }
    }
    out
}

/// DV-W012: a `.lock()` taken while a guard from a *different* mutex is
/// still live in the same function — the shape lock-order cycles are
/// made of, and a latency cliff even when ordered correctly.
fn w012_nested_lock_guards(f: &AnalyzedFile) -> Vec<(usize, String)> {
    f.scopes
        .lock_acquires
        .iter()
        .filter(|a| a.held.iter().any(|(recv, _, _)| recv != &a.recv))
        .map(|a| {
            let held: Vec<String> = a
                .held
                .iter()
                .filter(|(recv, _, _)| recv != &a.recv)
                .map(|(recv, var, line)| format!("`{var}` ({recv}, line {line})"))
                .collect();
            (
                a.line,
                format!("`{}.lock()` in `{}` while holding {}", a.recv, a.in_fn, held.join(", ")),
            )
        })
        .collect()
}

/// DV-W013 (per-file mode): lock-order cycles among this file's named
/// mutexes. `run_lint` replaces these with whole-workspace graph results.
fn w013_lock_order_cycle(f: &AnalyzedFile) -> Vec<(usize, String)> {
    let mut g = LockGraph::new();
    g.add_file(f);
    g.resolve();
    cycle_findings(&g).into_iter().map(|(_, line, note)| (line, note)).collect()
}

/// A lock graph's cycles as DV-W013 `(path, line, note)` triples, each
/// anchored at the first witnessed edge along the cycle.
pub(crate) fn cycle_findings(g: &LockGraph) -> Vec<(String, usize, String)> {
    let mut out = Vec::new();
    for cycle in g.cycles() {
        let mut route = cycle.clone();
        if let Some(first) = cycle.first() {
            route.push(first.clone());
        }
        // Every edge along the cycle, with its first witness.
        let mut legs = Vec::new();
        let mut anchor = None;
        for pair in route.windows(2) {
            if let Some(w) = g.edges.get(&(pair[0].clone(), pair[1].clone())) {
                legs.push(format!(
                    "holds `{}` then takes `{}` at {}:{} (fn {})",
                    pair[0], pair[1], w.path, w.line, w.in_fn
                ));
                anchor.get_or_insert(w);
            }
        }
        if let Some(w) = anchor {
            let note = format!("cycle {}; {}", route.join(" -> "), legs.join("; "));
            out.push((w.path.clone(), w.line, note));
        }
    }
    out
}

/// Every shipped rule, in id order.
pub static RULES: &[Rule] = &[
    Rule {
        id: "DV-W007",
        severity: Severity::Warning,
        summary: "mixed atomic orderings in one function: Relaxed and SeqCst on what \
                  is presumably the same protocol is either under- or over-synchronized",
        hint: "sim-reachable atomics are Relaxed counters (dv_core::metrics); if a \
               stronger ordering is really needed, use it consistently and document \
               the protocol",
        crates: SIM_REACHABLE,
        skip_tests: false,
        check: w007_mixed_atomic_orderings,
    },
    Rule {
        id: "DV-W012",
        severity: Severity::Warning,
        summary: "nested lock guards from different mutexes in one function: this is \
                  the shape deadlocks are made of",
        hint: "narrow the first guard's scope (drop it before the second lock) or \
               document the global order and keep every path consistent with it",
        crates: SIM_REACHABLE,
        skip_tests: true,
        check: w012_nested_lock_guards,
    },
    Rule {
        id: "DV-W013",
        severity: Severity::Error,
        summary: "lock-order cycle among named mutexes: two code paths acquire these \
                  locks in opposite orders, which can deadlock under contention",
        hint: "pick one global acquisition order and make every path follow it; the \
               runtime audit (dv_core::sync::lock_order_conflicts) only sees executed \
               interleavings, so fix the order rather than suppressing",
        crates: EVERYWHERE,
        skip_tests: true,
        check: w013_lock_order_cycle,
    },
];

/// Look up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

impl Rule {
    /// This rule's finding at `line` of `src`, quoting the raw line.
    pub(crate) fn finding(&self, src: &SourceFile, line: usize, note: String) -> Finding {
        Finding {
            rule: self.id,
            severity: self.severity,
            path: src.path.clone(),
            line,
            text: src.line_text(line),
            message: self.summary,
            hint: self.hint,
            note,
        }
    }
}

/// Apply every in-scope rule to an analyzed file, returning findings in
/// (line, rule) order. `crate_name` selects rule scopes (see
/// [`crate::crate_of`]).
pub fn scan_file(crate_name: &str, file: &AnalyzedFile) -> Vec<Finding> {
    let mut findings: Vec<Finding> = RULES
        .iter()
        .filter(|rule| rule.crates.contains(&crate_name))
        .flat_map(|rule| {
            (rule.check)(file)
                .into_iter()
                .filter(|&(line, _)| !(rule.skip_tests && file.scopes.is_test_line(line)))
                .map(|(line, note)| rule.finding(&file.src, line, note))
        })
        .collect();
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Parse-and-scan convenience used by the fixture tests.
pub fn scan_source(crate_name: &str, rel_path: &str, source: &str) -> Vec<Finding> {
    scan_file(crate_name, &AnalyzedFile::parse(rel_path, source))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (rule id, in-scope crate, positive fixture, negative fixture, every
    /// `(rule, line)` the positive fixture reports in that crate). Every
    /// shipped rule must appear here — checked by
    /// `every_rule_has_fixture_coverage`.
    type Pins = &'static [(&'static str, usize)];
    const FIXTURES: &[(&str, &str, &str, &str, Pins)] = &[
        (
            "DV-W007",
            "api",
            include_str!("../fixtures/w007_pos.rs"),
            include_str!("../fixtures/w007_neg.rs"),
            &[("DV-W007", 7)],
        ),
        (
            "DV-W012",
            "api",
            include_str!("../fixtures/w012_pos.rs"),
            include_str!("../fixtures/w012_neg.rs"),
            &[("DV-W012", 4)],
        ),
        (
            "DV-W013",
            "sim",
            include_str!("../fixtures/w013_pos.rs"),
            include_str!("../fixtures/w013_neg.rs"),
            &[("DV-W012", 17), ("DV-W013", 17), ("DV-W012", 24)],
        ),
    ];

    fn findings_for(crate_name: &str, src: &str, id: &str) -> Vec<Finding> {
        scan_source(crate_name, &format!("crates/{crate_name}/src/fixture.rs"), src)
            .into_iter()
            .filter(|f| f.rule == id)
            .collect()
    }

    #[test]
    fn every_rule_has_fixture_coverage() {
        for rule in RULES {
            assert!(
                FIXTURES.iter().any(|(id, ..)| *id == rule.id),
                "rule {} has no fixture pair",
                rule.id
            );
        }
        assert_eq!(FIXTURES.len(), RULES.len());
    }

    #[test]
    fn positive_fixtures_report_exactly_their_pinned_lines() {
        for (id, scope, pos, _, expect) in FIXTURES {
            let hits = scan_source(scope, &format!("crates/{scope}/src/fixture.rs"), pos);
            let got: Vec<(&str, usize)> = hits.iter().map(|f| (f.rule, f.line)).collect();
            assert_eq!(got, *expect, "{id} positive fixture");
            assert!(hits.iter().all(|f| !f.text.is_empty()), "{id}: a finding quotes no text");
        }
    }

    #[test]
    fn negative_fixtures_stay_clean() {
        for (id, scope, _, neg, _) in FIXTURES {
            let hits = findings_for(scope, neg, id);
            assert!(
                hits.is_empty(),
                "{id} negative fixture tripped: {:?}",
                hits.iter().map(|f| (f.line, f.note.clone())).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn rules_respect_crate_scope() {
        // Mixed orderings are the bench harness's business...
        let src = include_str!("../fixtures/w007_pos.rs");
        assert!(scan_source("bench", "crates/bench/src/x.rs", src).is_empty());
        // ...but not the sim engine's.
        assert!(!scan_source("sim", "crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn comments_and_literals_hide_names_but_not_the_code_around_them() {
        // (source, every `(rule, line)` it reports in dv-sim).
        let mixed = "counter.fetch_add(1, Ordering::Relaxed);";
        let cases: &[(String, &[(&str, usize)])] = &[
            (format!("fn f() {{\n{mixed}\n// Ordering::SeqCst in prose\n}}"), &[]),
            (format!("fn f() {{\n{mixed}\nlet s = \"Ordering::SeqCst\";\n}}"), &[]),
            (format!("fn f() {{\n{mixed}\n/* a /* nested */ Ordering::SeqCst */\n}}"), &[]),
            // Code after a literal, on its line or the next, is code.
            (
                format!("fn f() {{\n{mixed}\nlet q = '\"'; flag.load(Ordering::SeqCst);\n}}"),
                &[("DV-W007", 3)],
            ),
            (
                format!("fn f() {{\n{mixed}\nlet s = \"a\nb\"; flag.load(Ordering::SeqCst);\n}}"),
                &[("DV-W007", 4)],
            ),
        ];
        for (src, expect) in cases {
            let hits = scan_source("sim", "crates/sim/src/x.rs", src);
            let got: Vec<(&str, usize)> = hits.iter().map(|f| (f.rule, f.line)).collect();
            assert_eq!(got, *expect, "{src:?}");
        }
    }

    #[test]
    fn severity_split_matches_spec() {
        let expect =
            [("DV-W007", Severity::Warning), ("DV-W012", Severity::Warning), ("DV-W013", Severity::Error)];
        assert_eq!(expect.len(), RULES.len());
        for (id, sev) in expect {
            assert_eq!(rule(id).unwrap().severity, sev, "{id}");
        }
    }

    #[test]
    fn skip_tests_rules_ignore_test_code() {
        let nested = "fn t(&self) { let a = self.kernel.lock(); let b = self.registry.lock(); }";
        let src = format!("#[cfg(test)]\nmod tests {{\n    {nested}\n}}\n");
        assert!(findings_for("core", &src, "DV-W012").is_empty());
        // The same code outside a test region trips it.
        assert_eq!(findings_for("core", nested, "DV-W012").len(), 1);
    }

    #[test]
    fn w012_findings_name_the_held_guard() {
        let src = "fn f(&self) {\n    let a = self.kernel.lock();\n    \
                   let b = self.registry.lock();\n}\n";
        let hits = findings_for("api", src, "DV-W012");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 3);
        assert!(hits[0].note.contains("kernel"));
    }
}
