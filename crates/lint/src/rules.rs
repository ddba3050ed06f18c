//! The rule engine and the shipped `DV-W***` rules.
//!
//! Two passes run per file: the lexer pass produces the spanned token
//! stream (see [`crate::scanner`]), and the scope pass builds the item
//! model ([`crate::scope`]). Every rule has one shape: a whole-file
//! analysis over both, returning `(line, note)` pairs. Single-token
//! hazards like `HashMap` are predicates over one line's code tokens
//! (`lines_where`); rules that need scopes, token structure, or
//! cross-line state (mixed atomic orderings, nested lock guards, cast
//! operands) walk the whole stream.
//!
//! A rule also carries a crate scope (determinism rules only fire in
//! crates whose code can run *inside* the simulation) and a `skip_tests`
//! flag (concurrency-discipline rules ignore `#[cfg(test)]` regions and
//! `tests/` files, where throwaway threads and prints are legitimate).
//! Adding a rule means adding one [`Rule`] entry to [`RULES`] and a pair
//! of fixture files under `fixtures/` (positive + negative), which the
//! unit tests enforce per rule.

use std::collections::BTreeMap;

use crate::lexer::{Token, TokenKind};
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
    /// Pass one: raw lines and the token stream.
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

/// A per-line rule's findings: the lines whose code tokens satisfy
/// `pred`, each seen alone (tokens grouped by their start line).
fn lines_where(f: &AnalyzedFile, pred: impl Fn(&[&Token]) -> bool) -> Vec<(usize, String)> {
    f.src
        .code_tokens()
        .chunk_by(|a, b| a.line == b.line)
        .filter(|line| pred(line))
        .map(|line| (line[0].line, String::new()))
        .collect()
}

/// The line names one of the identifiers `names`.
fn has_ident(line: &[&Token], names: &[&str]) -> bool {
    line.iter().any(|t| names.iter().any(|n| t.is_ident(n)))
}

/// The line spells the path `a::b`.
fn has_path(line: &[&Token], a: &str, b: &str) -> bool {
    line.windows(3).any(|w| w[0].is_ident(a) && w[1].is_punct("::") && w[2].is_ident(b))
}

/// The line calls method `name`: `.name(`, or only `.name()` when
/// `no_args`.
fn has_call(line: &[&Token], name: &str, no_args: bool) -> bool {
    line.windows(3 + usize::from(no_args)).any(|w| {
        w[0].is_punct(".")
            && w[1].is_ident(name)
            && w[2].is_punct("(")
            && (!no_args || w[3].is_punct(")"))
    })
}

fn w001_hash_containers(f: &AnalyzedFile) -> Vec<(usize, String)> {
    lines_where(f, |l| has_ident(l, &["HashMap", "HashSet"]))
}

fn w002_wall_clock(f: &AnalyzedFile) -> Vec<(usize, String)> {
    lines_where(f, |l| has_ident(l, &["Instant", "SystemTime"]))
}

/// Lock and channel calls whose `Result` DV-W004 watches, and whether
/// the call takes no arguments.
const SYNC_CALLS: &[(&str, bool)] =
    &[("lock", true), ("try_lock", true), ("recv", true), ("try_recv", true), ("send", false)];

fn w004_unwrap_on_sync(f: &AnalyzedFile) -> Vec<(usize, String)> {
    lines_where(f, |l| {
        (has_call(l, "unwrap", true) || has_call(l, "expect", false))
            && SYNC_CALLS.iter().any(|&(name, no_args)| has_call(l, name, no_args))
    })
}

fn w006_print_in_library(f: &AnalyzedFile) -> Vec<(usize, String)> {
    lines_where(f, |l| has_ident(l, &["println", "eprintln", "print", "eprint"]))
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
fn w008_raw_thread_spawn(f: &AnalyzedFile) -> Vec<(usize, String)> {
    let imports_thread = f.scopes.uses.iter().any(|u| u.contains("std::thread"));
    lines_where(f, |l| {
        has_path(l, "thread", "spawn") || (imports_thread && has_ident(l, &["spawn"]))
    })
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
fn w010_blocking_in_virtual_time(f: &AnalyzedFile) -> Vec<(usize, String)> {
    lines_where(f, |l| {
        has_ident(l, &["yield_now", "recv_timeout", "sleep"]) || has_path(l, "thread", "park")
    })
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
fn cast_operand_idents(toks: &[&Token], j: usize) -> Vec<String> {
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
        id: "DV-W001",
        severity: Severity::Error,
        summary: "HashMap/HashSet in simulation-reachable code: iteration order is \
                  randomized per-process and can leak into simulated sends",
        hint: "use BTreeMap/BTreeSet, or drain through sorted keys before anything \
               order-sensitive (sends, packet batches, float accumulation)",
        crates: SIM_REACHABLE,
        skip_tests: false,
        check: w001_hash_containers,
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
        check: w002_wall_clock,
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
        check: w004_unwrap_on_sync,
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
        check: w006_print_in_library,
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
        check: w007_mixed_atomic_orderings,
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
        check: w008_raw_thread_spawn,
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
        check: w009_unsafe_without_safety_comment,
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
        check: w010_blocking_in_virtual_time,
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
        check: w011_lossy_packet_cast,
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
            "DV-W001",
            "api",
            include_str!("../fixtures/w001_pos.rs"),
            include_str!("../fixtures/w001_neg.rs"),
            &[("DV-W001", 2), ("DV-W001", 4), ("DV-W001", 5), ("DV-W001", 10), ("DV-W001", 11)],
        ),
        (
            "DV-W002",
            "sim",
            include_str!("../fixtures/w002_pos.rs"),
            include_str!("../fixtures/w002_neg.rs"),
            &[("DV-W002", 2), ("DV-W002", 5), ("DV-W002", 10), ("DV-W002", 11)],
        ),
        (
            "DV-W004",
            "mpi",
            include_str!("../fixtures/w004_pos.rs"),
            include_str!("../fixtures/w004_neg.rs"),
            &[("DV-W004", 7), ("DV-W004", 8), ("DV-W004", 9), ("DV-W004", 13)],
        ),
        (
            "DV-W006",
            "core",
            include_str!("../fixtures/w006_pos.rs"),
            include_str!("../fixtures/w006_neg.rs"),
            &[("DV-W006", 5), ("DV-W006", 7), ("DV-W006", 9), ("DV-W006", 10)],
        ),
        (
            "DV-W007",
            "api",
            include_str!("../fixtures/w007_pos.rs"),
            include_str!("../fixtures/w007_neg.rs"),
            &[("DV-W007", 7)],
        ),
        (
            "DV-W008",
            "api",
            include_str!("../fixtures/w008_pos.rs"),
            include_str!("../fixtures/w008_neg.rs"),
            &[("DV-W008", 3)],
        ),
        (
            "DV-W009",
            "vic",
            include_str!("../fixtures/w009_pos.rs"),
            include_str!("../fixtures/w009_neg.rs"),
            &[("DV-W009", 3)],
        ),
        (
            "DV-W010",
            "kernels",
            include_str!("../fixtures/w010_pos.rs"),
            include_str!("../fixtures/w010_neg.rs"),
            &[("DV-W010", 3), ("DV-W010", 4), ("DV-W010", 5)],
        ),
        (
            "DV-W011",
            "switch",
            include_str!("../fixtures/w011_pos.rs"),
            include_str!("../fixtures/w011_neg.rs"),
            &[("DV-W011", 3), ("DV-W011", 4)],
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
    fn comments_and_literals_hide_names_but_not_the_code_around_them() {
        // (source, every `(rule, line)` it reports in dv-sim).
        let cases: &[(&str, &[(&str, usize)])] = &[
            (
                "// HashMap in a comment is fine; so is Instant::now in prose.\n\
                 /// Docs may say SystemTime freely.\n\
                 fn ok() { let s = \"HashMap::new() and Instant::now() in a string\"; }",
                &[],
            ),
            ("let x = 1; // HashMap here\n/// HashMap doc\nlet y = 2;", &[]),
            ("a /* HashMap\n still /* nested */ Instant\n end */ b", &[]),
            ("let s = \"HashMap::new()\"; let t = 5;", &[]),
            (r##"let s = r#"Instant::now()"#; let u = 1;"##, &[]),
            (r#"let s = "a\"HashMap\"b"; thread_rng();"#, &[]),
            ("let s = \"start\nHashMap inside\nend\"; let z = 9;", &[]),
            ("fn f<'a>(x: &'a str) { let q = '\"'; let h = 1; }", &[]),
            // Code after a literal, on its line or the next, is code.
            ("let s = \"HashMap\"; let m = HashMap::new();", &[("DV-W001", 1)]),
            (r##"let s = r#"x"#; let t = Instant::now();"##, &[("DV-W002", 1)]),
            ("let s = \"start\nend\"; let t = Instant::now();", &[("DV-W002", 2)]),
            (
                "let c = '\"';\nlet m = HashMap::new();\nInstant::now();",
                &[("DV-W001", 2), ("DV-W002", 3)],
            ),
        ];
        for (src, expect) in cases {
            let hits = scan_source("sim", "crates/sim/src/x.rs", src);
            let got: Vec<(&str, usize)> = hits.iter().map(|f| (f.rule, f.line)).collect();
            assert_eq!(got, *expect, "{src:?}");
        }
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
