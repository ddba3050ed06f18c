//! The rule engine and the shipped `DV-W***` rules.
//!
//! v2 runs two passes per file: the lexer/scanner pass produces the
//! spanned token stream and the sanitized line view (comments and string
//! contents blanked — see [`crate::scanner`]), and the scope pass builds
//! the item model ([`crate::scope`]). Rules come in two shapes:
//!
//! * [`Matcher::Line`] — a predicate over one sanitized line (the v1
//!   shape; still right for single-token hazards like `HashMap`), and
//! * [`Matcher::File`] — a whole-file analysis returning `(line, note)`
//!   pairs, for rules that need scopes, token structure, or cross-line
//!   state (mixed atomic orderings, nested lock guards, cast operands).
//!
//! A rule also carries a crate scope (determinism rules only fire in
//! crates whose code can run *inside* the simulation) and a `skip_tests`
//! flag (concurrency-discipline rules ignore `#[cfg(test)]` regions and
//! `tests/` files, where throwaway threads and prints are legitimate).
//! Adding a rule means adding one [`Rule`] entry to [`RULES`] and a pair
//! of fixture files under `fixtures/` (positive + negative), which the
//! unit tests enforce per rule.

use std::collections::BTreeMap;

use crate::lockgraph::LockGraph;
use crate::scanner::SourceFile;
use crate::scope::{ScopeModel, UnsafeKind};

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
    /// Pass one: raw/sanitized lines and the token stream.
    pub src: SourceFile,
    /// Pass two: fns, uses, test regions, unsafes, lock nesting.
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
/// iteration order there can reach the event trace. `datavortex` is the
/// root facade crate; `tests` the root integration tests, which assert
/// bit-exactness and so inherit the rules.
const SIM_REACHABLE: &[&str] =
    &["core", "sim", "switch", "vic", "mpi", "api", "kernels", "apps", "datavortex", "tests"];

/// Crates holding simulation hot paths (scheduler, NIC, VIC, protocol
/// engines) where a panic on a poisoned lock or closed channel would tear
/// down the run with a misleading secondary error.
const HOT_PATHS: &[&str] = &["sim", "api", "mpi", "vic", "switch"];

/// Library crates: everything a downstream program links against. Binaries
/// (`dv-bench`) and the lint tool itself own their stdout; libraries do
/// not.
const LIBRARY: &[&str] =
    &["core", "sim", "switch", "vic", "mpi", "api", "kernels", "apps", "datavortex"];

/// Every crate in the workspace, the bench harness included.
const EVERYWHERE: &[&str] = &[
    "core", "sim", "switch", "vic", "mpi", "api", "kernels", "apps", "lint", "bench",
    "datavortex", "tests",
];

/// Crates that must not start OS threads themselves: every worker goes
/// through dv-sim's scheduler so the run stays reproducible. `sim` (the
/// scheduler) and `bench` (the harness) are exempt.
const NO_RAW_THREADS: &[&str] =
    &["core", "switch", "vic", "mpi", "api", "kernels", "apps", "lint", "datavortex", "tests"];

/// Crates on the packet path, where ports, addresses, and cycle counts
/// flow through narrow integer fields.
const PACKET_PATHS: &[&str] = &["switch", "vic"];

/// How a rule inspects a file.
pub enum Matcher {
    /// Per-line predicate over the sanitized source.
    Line(fn(&AnalyzedFile, &str) -> bool),
    /// Whole-file analysis returning `(1-based line, note)` findings.
    File(fn(&AnalyzedFile) -> Vec<(usize, String)>),
}

/// A single static-analysis rule.
pub struct Rule {
    /// Stable identifier (`DV-W001`...).
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
    matcher: Matcher,
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
    /// Finding-specific detail (empty for plain line matches).
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

/// `needle` occurs in `hay` as a full token (no identifier char on either
/// side).
fn contains_token(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= hay.len()
            || !hay[after..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len().max(1);
    }
    false
}

fn any_token(hay: &str, needles: &[&str]) -> bool {
    needles.iter().any(|n| contains_token(hay, n))
}

fn w001_hash_containers(_: &AnalyzedFile, line: &str) -> bool {
    any_token(line, &["HashMap", "HashSet"])
}

fn w002_wall_clock(_: &AnalyzedFile, line: &str) -> bool {
    any_token(line, &["Instant", "SystemTime"])
}

fn w004_unwrap_on_sync(_: &AnalyzedFile, line: &str) -> bool {
    let unwraps = line.contains(".unwrap()") || line.contains(".expect(");
    let sync_result = [".lock()", ".try_lock()", ".recv()", ".try_recv()", ".send("]
        .iter()
        .any(|p| line.contains(p));
    unwraps && sync_result
}

fn w006_print_in_library(_: &AnalyzedFile, line: &str) -> bool {
    any_token(line, &["println", "eprintln", "print", "eprint"])
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

/// DV-W008: raw `std::thread::spawn` outside the dv-sim scheduler.
fn w008_raw_thread_spawn(f: &AnalyzedFile, line: &str) -> bool {
    line.contains("thread::spawn")
        || (contains_token(line, "spawn")
            && f.scopes.uses.iter().any(|u| u.contains("std::thread")))
}

/// DV-W009: `unsafe` blocks/impls without an adjacent `// SAFETY:`
/// comment (same line, or the contiguous comment block directly above).
fn w009_unsafe_without_safety_comment(f: &AnalyzedFile) -> Vec<(usize, String)> {
    f.scopes
        .unsafes
        .iter()
        .filter(|u| !has_safety_comment(&f.src, u.line))
        .map(|u| {
            let what = match u.kind {
                UnsafeKind::Block => "unsafe block",
                UnsafeKind::Impl => "unsafe impl",
            };
            (u.line, format!("this {what} has no `// SAFETY:` comment"))
        })
        .collect()
}

fn has_safety_comment(src: &SourceFile, line: usize) -> bool {
    if src.raw.get(line - 1).is_some_and(|l| l.contains("SAFETY:")) {
        return true;
    }
    // Walk the contiguous comment/attribute block directly above.
    let mut n = line - 1;
    while n >= 1 {
        let Some(above) = src.raw.get(n - 1) else { break };
        let t = above.trim();
        if t.starts_with("//") || t.starts_with('#') {
            if t.contains("SAFETY:") {
                return true;
            }
            n -= 1;
        } else {
            break;
        }
    }
    false
}

/// DV-W010: host-blocking calls in virtual-time code. `ctx.park()` (the
/// sim's own virtual-time park) is fine; `thread::park` is not.
fn w010_blocking_in_virtual_time(_: &AnalyzedFile, line: &str) -> bool {
    any_token(line, &["yield_now", "recv_timeout"])
        || contains_token(line, "sleep")
        || line.contains("thread::park")
}

/// Narrowing `as` targets DV-W011 watches.
const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Identifier stems that mark port/address/cycle-carrying values.
fn has_packet_value_stem(name: &str) -> bool {
    const STEMS: &[&str] = &["port", "addr", "cycle", "src", "dst"];
    name.split('_').any(|seg| STEMS.iter().any(|s| seg.starts_with(s)))
}

/// DV-W011: `as` casts to narrow integer types whose operand names a
/// port/address/cycle value — silent truncation corrupts routes.
fn w011_lossy_packet_cast(f: &AnalyzedFile) -> Vec<(usize, String)> {
    let toks = f.src.code_tokens();
    let mut out = Vec::new();
    for k in 1..toks.len() {
        if !toks[k].is_ident("as") {
            continue;
        }
        let Some(ty) = toks.get(k + 1).filter(|t| NARROW_INTS.contains(&t.text.as_str()))
        else {
            continue;
        };
        let operands = cast_operand_idents(&toks, k - 1);
        if let Some(hit) = operands.iter().find(|n| has_packet_value_stem(n)) {
            out.push((
                toks[k].line,
                format!("`{hit} as {}` can silently truncate; prove the range or use try_from", ty.text),
            ));
        }
    }
    out
}

/// Identifiers feeding the cast whose `as` precedes index `j`: the
/// immediately preceding identifier, or — when the operand is a call or
/// index expression — the identifiers inside that group plus its callee.
fn cast_operand_idents(toks: &[&crate::lexer::Token], j: usize) -> Vec<String> {
    use crate::lexer::TokenKind;
    let t = toks[j];
    if t.kind == TokenKind::Ident {
        return vec![t.text.clone()];
    }
    for (close, open) in [(")", "("), ("]", "[")] {
        if t.is_punct(close) {
            let mut d = 1;
            let mut k = j;
            let mut names = Vec::new();
            while d > 0 && k > 0 {
                k -= 1;
                if toks[k].is_punct(close) {
                    d += 1;
                } else if toks[k].is_punct(open) {
                    d -= 1;
                } else if toks[k].kind == TokenKind::Ident {
                    names.push(toks[k].text.clone());
                }
            }
            if k > 0 && toks[k - 1].kind == TokenKind::Ident {
                names.push(toks[k - 1].text.clone());
            }
            return names;
        }
    }
    Vec::new()
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
    cycle_findings(&g).into_iter().map(|fi| (fi.line, fi.note)).collect()
}

/// Render a lock graph's cycles as DV-W013 findings (text left empty —
/// callers that hold the sources fill it in).
pub fn cycle_findings(g: &LockGraph) -> Vec<Finding> {
    let Some(r) = rule("DV-W013") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for cycle in g.cycles() {
        let mut route = cycle.clone();
        if let Some(first) = cycle.first() {
            route.push(first.clone());
        }
        // Every edge along the cycle, with its first witness.
        let mut legs = Vec::new();
        let mut anchor: Option<(&String, &crate::lockgraph::EdgeWitness)> = None;
        for pair in route.windows(2) {
            if let Some(w) = g.edges.get(&(pair[0].clone(), pair[1].clone())) {
                legs.push(format!(
                    "holds `{}` then takes `{}` at {}:{} (fn {})",
                    pair[0], pair[1], w.path, w.line, w.in_fn
                ));
                if anchor.is_none() {
                    anchor = Some((&pair[0], w));
                }
            }
        }
        if let Some((_, w)) = anchor {
            out.push(Finding {
                rule: r.id,
                severity: r.severity,
                path: w.path.clone(),
                line: w.line,
                text: String::new(),
                message: r.summary,
                hint: r.hint,
                note: format!("cycle {}; {}", route.join(" -> "), legs.join("; ")),
            });
        }
    }
    out
}

/// Every shipped rule, in id order.
pub static RULES: &[Rule] = &[
    Rule {
        id: "DV-W001",
        severity: Severity::Error,
        summary: "HashMap/HashSet in simulation-reachable code: iteration order is \
                  randomized per-process and can leak into simulated sends",
        hint: "use BTreeMap/BTreeSet, or drain through sorted keys before anything \
               order-sensitive (sends, packet batches, float accumulation)",
        crates: SIM_REACHABLE,
        skip_tests: false,
        matcher: Matcher::Line(w001_hash_containers),
    },
    Rule {
        id: "DV-W002",
        severity: Severity::Error,
        summary: "wall-clock time in simulation code: host timing must never reach \
                  virtual-time results",
        hint: "use virtual time (SimCtx::now / dv_core::time); wall-clock timing \
               belongs only in dv-bench harness code",
        crates: &["core", "sim", "switch", "vic", "mpi", "api", "kernels", "apps", "datavortex"],
        skip_tests: false,
        matcher: Matcher::Line(w002_wall_clock),
    },
    Rule {
        id: "DV-W004",
        severity: Severity::Warning,
        summary: "unwrap()/expect() on a lock or channel result in a sim hot path: a \
                  poisoned lock or closed channel would panic every process and bury \
                  the original error",
        hint: "use dv_core::sync::Mutex (lock() recovers from poisoning), or handle \
               the Err arm explicitly; suppress scheduler-fatal cases inline, with the reason",
        crates: HOT_PATHS,
        skip_tests: false,
        matcher: Matcher::Line(w004_unwrap_on_sync),
    },
    Rule {
        id: "DV-W006",
        severity: Severity::Warning,
        summary: "print!/println!/eprint!/eprintln! in a library crate: libraries must \
                  not write to the process's stdout/stderr behind the caller's back",
        hint: "record through dv_core::metrics / dv_core::trace and let the caller \
               render, or return the text; suppress diagnostic test probes inline, with the reason",
        crates: LIBRARY,
        skip_tests: true,
        matcher: Matcher::Line(w006_print_in_library),
    },
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
        matcher: Matcher::File(w007_mixed_atomic_orderings),
    },
    Rule {
        id: "DV-W008",
        severity: Severity::Error,
        summary: "raw std::thread::spawn outside the dv-sim scheduler: unmanaged \
                  threads race the virtual clock and break run-to-run reproducibility",
        hint: "spawn workers through dv-sim (Sim::spawn_process / the scheduler API) \
               so execution interleaving stays deterministic",
        crates: NO_RAW_THREADS,
        skip_tests: true,
        matcher: Matcher::Line(w008_raw_thread_spawn),
    },
    Rule {
        id: "DV-W009",
        severity: Severity::Warning,
        summary: "unsafe without a `// SAFETY:` comment: every unsafe block or impl \
                  must state the invariant that makes it sound",
        hint: "add `// SAFETY: <why this cannot exhibit UB>` on or directly above \
               the unsafe keyword",
        crates: EVERYWHERE,
        skip_tests: false,
        matcher: Matcher::File(w009_unsafe_without_safety_comment),
    },
    Rule {
        id: "DV-W010",
        severity: Severity::Error,
        summary: "host-blocking call in virtual-time code: sleep/park/yield_now/\
                  recv_timeout consume wall-clock, which the simulation clock never sees",
        hint: "block on virtual time instead (SimCtx::wait_until / wait_for); \
               host waiting belongs only in the bench harness",
        crates: SIM_REACHABLE,
        skip_tests: true,
        matcher: Matcher::Line(w010_blocking_in_virtual_time),
    },
    Rule {
        id: "DV-W011",
        severity: Severity::Warning,
        summary: "narrowing `as` cast on a port/address/cycle value: silent \
                  truncation corrupts routes and timestamps without a panic",
        hint: "use From for widening, try_from (with an expect naming the invariant) \
               for narrowing, or mask explicitly and say why the range fits",
        crates: PACKET_PATHS,
        skip_tests: true,
        matcher: Matcher::File(w011_lossy_packet_cast),
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
        matcher: Matcher::File(w012_nested_lock_guards),
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
        matcher: Matcher::File(w013_lock_order_cycle),
    },
];

/// Look up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Apply every in-scope rule to an analyzed file, returning findings in
/// (line, rule) order. `crate_name` selects rule scopes (see
/// [`crate::crate_of`]).
pub fn scan_file(crate_name: &str, file: &AnalyzedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in RULES {
        if !rule.crates.contains(&crate_name) {
            continue;
        }
        let push = |line: usize, note: String, findings: &mut Vec<Finding>| {
            if rule.skip_tests && file.scopes.is_test_line(line) {
                return;
            }
            findings.push(Finding {
                rule: rule.id,
                severity: rule.severity,
                path: file.src.path.clone(),
                line,
                text: file.src.raw.get(line - 1).map(|l| l.trim().to_string()).unwrap_or_default(),
                message: rule.summary,
                hint: rule.hint,
                note,
            });
        };
        match rule.matcher {
            Matcher::Line(m) => {
                for (line_no, code_line) in file.src.code_lines() {
                    if m(file, code_line) {
                        push(line_no, String::new(), &mut findings);
                    }
                }
            }
            Matcher::File(m) => {
                for (line_no, note) in m(file) {
                    push(line_no, note, &mut findings);
                }
            }
        }
    }
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

    /// (rule id, in-scope crate, positive fixture, negative fixture).
    /// Every shipped rule must appear here — checked by
    /// `every_rule_has_fixture_coverage`.
    const FIXTURES: &[(&str, &str, &str, &str)] = &[
        (
            "DV-W001",
            "api",
            include_str!("../fixtures/w001_pos.rs"),
            include_str!("../fixtures/w001_neg.rs"),
        ),
        (
            "DV-W002",
            "sim",
            include_str!("../fixtures/w002_pos.rs"),
            include_str!("../fixtures/w002_neg.rs"),
        ),
        (
            "DV-W004",
            "mpi",
            include_str!("../fixtures/w004_pos.rs"),
            include_str!("../fixtures/w004_neg.rs"),
        ),
        (
            "DV-W006",
            "core",
            include_str!("../fixtures/w006_pos.rs"),
            include_str!("../fixtures/w006_neg.rs"),
        ),
        (
            "DV-W007",
            "api",
            include_str!("../fixtures/w007_pos.rs"),
            include_str!("../fixtures/w007_neg.rs"),
        ),
        (
            "DV-W008",
            "api",
            include_str!("../fixtures/w008_pos.rs"),
            include_str!("../fixtures/w008_neg.rs"),
        ),
        (
            "DV-W009",
            "vic",
            include_str!("../fixtures/w009_pos.rs"),
            include_str!("../fixtures/w009_neg.rs"),
        ),
        (
            "DV-W010",
            "kernels",
            include_str!("../fixtures/w010_pos.rs"),
            include_str!("../fixtures/w010_neg.rs"),
        ),
        (
            "DV-W011",
            "switch",
            include_str!("../fixtures/w011_pos.rs"),
            include_str!("../fixtures/w011_neg.rs"),
        ),
        (
            "DV-W012",
            "api",
            include_str!("../fixtures/w012_pos.rs"),
            include_str!("../fixtures/w012_neg.rs"),
        ),
        (
            "DV-W013",
            "sim",
            include_str!("../fixtures/w013_pos.rs"),
            include_str!("../fixtures/w013_neg.rs"),
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
    fn positive_fixtures_trip_their_rule() {
        for (id, scope, pos, _) in FIXTURES {
            let hits = findings_for(scope, pos, id);
            assert!(!hits.is_empty(), "{id} positive fixture produced no findings");
            for f in &hits {
                assert_eq!(f.rule, *id);
                assert!(!f.text.is_empty());
            }
        }
    }

    #[test]
    fn negative_fixtures_stay_clean() {
        for (id, scope, _, neg) in FIXTURES {
            let hits = findings_for(scope, neg, id);
            assert!(
                hits.is_empty(),
                "{id} negative fixture tripped: {:?}",
                hits.iter().map(|f| (f.line, f.note.clone())).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn char_literal_fixture_pair_exercises_the_lexer() {
        // A `'"'` char literal must not open string mode: the HashMap on
        // the next line is real code and must still trip DV-W001.
        let pos = include_str!("../fixtures/charlit_pos.rs");
        let neg = include_str!("../fixtures/charlit_neg.rs");
        assert!(
            !findings_for("api", pos, "DV-W001").is_empty(),
            "HashMap after a quote char literal must still be seen"
        );
        assert!(findings_for("api", neg, "DV-W001").is_empty());
    }

    #[test]
    fn rules_respect_crate_scope() {
        // Wall clock is fine in dv-bench...
        let src = "fn t() { let t0 = std::time::Instant::now(); }\n";
        assert!(scan_source("bench", "crates/bench/src/x.rs", src).is_empty());
        // ...but not in the sim engine.
        assert!(!scan_source("sim", "crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn comments_and_strings_never_trip_rules() {
        let src = r#"
// HashMap in a comment is fine; so is Instant::now in prose.
/// Docs may say SystemTime freely.
fn ok() {
    let s = "HashMap::new() and Instant::now() in a string";
    let _ = s;
}
"#;
        assert!(scan_source("sim", "crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn token_boundaries_prevent_substring_hits() {
        // `InstantaneousLoad` and `MyHashMapLike` are different tokens.
        let src = "struct InstantaneousLoad; struct MyHashMapLike; fn f(x: InstantaneousLoad) {}\n";
        assert!(scan_source("sim", "crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn severity_split_matches_spec() {
        let expect = [
            ("DV-W001", Severity::Error),
            ("DV-W002", Severity::Error),
            ("DV-W004", Severity::Warning),
            ("DV-W006", Severity::Warning),
            ("DV-W007", Severity::Warning),
            ("DV-W008", Severity::Error),
            ("DV-W009", Severity::Warning),
            ("DV-W010", Severity::Error),
            ("DV-W011", Severity::Warning),
            ("DV-W012", Severity::Warning),
            ("DV-W013", Severity::Error),
        ];
        assert_eq!(expect.len(), RULES.len());
        for (id, sev) in expect {
            assert_eq!(rule(id).unwrap().severity, sev, "{id}");
        }
    }

    #[test]
    fn printing_is_fine_in_the_bench_harness() {
        let src = "fn t() { println!(\"table\"); }\n";
        assert!(scan_source("bench", "crates/bench/src/x.rs", src).is_empty());
        assert!(!scan_source("core", "crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn ansi_tui_is_exempt_but_stream_emitters_stay_print_free() {
        // dv-top's hand-rolled ANSI frame writer lives in crates/bench,
        // which is outside DV-W006's library scope: drawing to stdout is
        // its whole job.
        let tui = "fn draw(frame: &str) { print!(\"\\x1b[H{frame}\\x1b[J\"); \
                   println!(\"{frame}\"); }\n";
        assert!(
            scan_source("bench", "crates/bench/src/bin/dv_top.rs", tui).is_empty(),
            "the bench-crate ANSI writer must not trip DV-W006"
        );
        // Library-crate telemetry emitters must write through their sink
        // (the dv-events stream goes wherever `--stream` pointed), never
        // straight to stdout.
        let emitter = "fn emit(line: &str) { println!(\"{line}\"); }\n";
        for (krate, path) in
            [("core", "crates/core/src/metrics.rs"), ("vic", "crates/vic/src/vic.rs")]
        {
            assert!(
                scan_source(krate, path, emitter).iter().any(|f| f.rule == "DV-W006"),
                "{krate} stream emitter must stay print-free"
            );
        }
    }

    #[test]
    fn skip_tests_rules_ignore_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { println!(\"probe\"); \
                   std::thread::spawn(|| {}); }\n}\n";
        let hits = scan_source("core", "crates/core/src/x.rs", src);
        assert!(
            hits.iter().all(|f| f.rule != "DV-W006" && f.rule != "DV-W008"),
            "{hits:?}"
        );
        // The same code outside a test region trips both.
        let src = "fn t() { println!(\"probe\"); std::thread::spawn(|| {}); }\n";
        let hits = scan_source("core", "crates/core/src/x.rs", src);
        assert!(hits.iter().any(|f| f.rule == "DV-W006"));
        assert!(hits.iter().any(|f| f.rule == "DV-W008"));
    }

    #[test]
    fn virtual_time_park_is_not_blocking() {
        let ok = "fn f(ctx: &SimCtx) { ctx.park(); }\n";
        assert!(findings_for("kernels", ok, "DV-W010").is_empty());
        let bad = "fn f() { std::thread::park(); }\n";
        assert!(!findings_for("kernels", bad, "DV-W010").is_empty());
        // The engine's own crate is in scope as well: the one `thread::park`
        // under `Parker::wait` passes by its inline suppression, not by scope.
        let bad = "fn wait(&self) { while self.sleeping() { thread::park(); } }\n";
        assert_eq!(findings_for("sim", bad, "DV-W010").len(), 1);
    }

    #[test]
    fn masked_widths_and_plain_counts_do_not_trip_w011() {
        let ok = "fn f(cells: u64, words: u64) { let a = cells as u32; \
                  let b = PAGE_WORDS as u32; let c = words as u16; }\n";
        assert!(findings_for("switch", ok, "DV-W011").is_empty());
        let bad = "fn f(port: u64) { let p = port as u8; }\n";
        let hits = findings_for("switch", bad, "DV-W011");
        assert_eq!(hits.len(), 1);
        assert!(hits[0].note.contains("port as u8"));
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
