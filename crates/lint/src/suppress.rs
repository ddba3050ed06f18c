//! Inline suppressions: `// dv-lint: allow(DV-W0NN, reason = "...")`.
//!
//! This is the one way to audit an exception: the justification sits
//! next to the code it excuses (a provably-masked cast, a documented lock
//! order, a scheduler-fatal `expect`). The grammar is strict on purpose:
//!
//! * exactly one rule id per comment,
//! * a `reason` string is mandatory and must be non-empty,
//! * the comment applies to its own line, or — when it stands alone on a
//!   line — to the next line that contains code.
//!
//! A malformed suppression is itself reported (`DV-S001`), and so is a
//! suppression that matched nothing (`DV-S002`): silencers that rot must
//! not outlive what they silenced.

use crate::lexer::TokenKind;
use crate::scanner::SourceFile;

/// One parsed inline suppression.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule id it silences (`DV-W011`).
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
    /// 1-based line the suppression applies to.
    pub target_line: usize,
    /// 1-based line of the comment itself.
    pub at_line: usize,
}

/// A suppression comment that does not parse.
#[derive(Debug, Clone)]
pub struct Malformed {
    /// 1-based line of the comment.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

/// The marker every suppression comment carries.
const MARKER: &str = "dv-lint:";

/// Collect the file's inline suppressions and malformed attempts.
pub fn collect(file: &SourceFile) -> (Vec<Suppression>, Vec<Malformed>) {
    let mut found = Vec::new();
    let mut bad = Vec::new();
    let marks = code_marks(file);
    for t in &file.tokens {
        // Only plain `//` line comments: doc comments are prose (they may
        // quote the grammar), and a directive buried mid-sentence is not
        // a directive.
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let content = t.text.trim_start_matches('/');
        if t.text.starts_with("///") || t.text.starts_with("//!") {
            continue;
        }
        let content = content.trim();
        let Some(rest) = content.strip_prefix(MARKER) else {
            continue;
        };
        let body = rest.trim();
        match parse_body(body) {
            Ok((rule, reason)) => {
                // Alone on its line, it targets the next line with code.
                let alone = !marks.iter().any(|&(line, col)| line == t.line && col < t.col);
                let target_line = if alone {
                    marks.iter().map(|&(line, _)| line).find(|&n| n > t.line).unwrap_or(t.line)
                } else {
                    t.line
                };
                found.push(Suppression { rule, reason, target_line, at_line: t.line });
            }
            Err(message) => bad.push(Malformed { line: t.line, message }),
        }
    }
    (found, bad)
}

/// Parse `allow(DV-W0NN, reason = "...")`.
fn parse_body(body: &str) -> Result<(String, String), String> {
    let inner = body
        .strip_prefix("allow(")
        .and_then(|r| r.trim_end().strip_suffix(')'))
        .ok_or_else(|| format!("expected `allow(DV-XNNN, reason = \"...\")`, got {body:?}"))?;
    let (rule, rest) = inner
        .split_once(',')
        .ok_or_else(|| "suppression has no `reason` — every inline allow must be justified".to_string())?;
    let rule = rule.trim();
    if !rule.starts_with("DV-") || rule.len() < 6 {
        return Err(format!("{rule:?} is not a dv-lint rule id"));
    }
    let value = rest
        .trim()
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim)
        .ok_or_else(|| "expected `reason = \"...\"` after the rule id".to_string())?;
    let reason = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| "reason must be a double-quoted string".to_string())?;
    if reason.trim().is_empty() {
        return Err("reason must not be empty".to_string());
    }
    Ok((rule.to_string(), reason.to_string()))
}

/// Where a line holds code, as `(line, col)` in source order: each code
/// token's start, and the closing quote of each string literal that
/// closes on a later line than it opened.
fn code_marks(file: &SourceFile) -> Vec<(usize, usize)> {
    let mut marks = Vec::new();
    for t in file.code_tokens() {
        marks.push((t.line, t.col));
        if t.kind == TokenKind::Str && t.end_line > t.line && t.text.rfind('"') > t.text.find('"') {
            marks.push((t.end_line, t.end_col.saturating_sub(1)));
        }
    }
    marks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> (Vec<Suppression>, Vec<Malformed>) {
        collect(&SourceFile::parse("crates/x/src/y.rs", src))
    }

    #[test]
    fn same_line_suppression_targets_its_line() {
        let (s, bad) = run(
            "let x = port as u16; // dv-lint: allow(DV-W011, reason = \"masked above\")\n",
        );
        assert!(bad.is_empty());
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].rule, "DV-W011");
        assert_eq!(s[0].reason, "masked above");
        assert_eq!(s[0].target_line, 1);
    }

    #[test]
    fn standalone_suppression_targets_next_code_line() {
        let (s, _) = run(
            "// dv-lint: allow(DV-W012, reason = \"documented order\")\n\nlet g = a.lock();\n",
        );
        assert_eq!(s[0].at_line, 1);
        assert_eq!(s[0].target_line, 3);
    }

    #[test]
    fn standalone_suppression_skips_a_block_comment_line() {
        let (s, _) = run(
            "// dv-lint: allow(DV-W001, reason = \"r\")\n/* block */\nlet m = HashMap::new();\n",
        );
        assert_eq!(s[0].target_line, 3);
    }

    #[test]
    fn suppression_after_a_multiline_string_targets_its_closing_line() {
        // The closing quote is code: the comment is not alone on its line.
        let (s, _) = run("let s = \"a\nb\" // dv-lint: allow(DV-W001, reason = \"r\")\n.len();\n");
        assert_eq!((s[0].at_line, s[0].target_line), (2, 2));
    }

    #[test]
    fn missing_reason_is_malformed() {
        let (s, bad) = run("// dv-lint: allow(DV-W011)\nlet x = 1;\n");
        assert!(s.is_empty());
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("reason"));
    }

    #[test]
    fn empty_reason_and_bad_ids_are_malformed() {
        let (_, bad) = run("// dv-lint: allow(DV-W011, reason = \"  \")\n");
        assert_eq!(bad.len(), 1);
        let (_, bad) = run("// dv-lint: allow(clippy::foo, reason = \"x\")\n");
        assert_eq!(bad.len(), 1);
        let (_, bad) = run("// dv-lint: allow(DV-W011, reason = unquoted)\n");
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn kernel_suppression_shapes_cover_their_findings_exactly() {
        // The two suppression shapes: same-line DV-W011 allows on
        // back-to-back cast lines (crates/switch/src/cycle.rs's inject
        // loop), and a standalone DV-W002 allow above a wall-clock
        // read. Each must pair 1:1 with a finding — leftovers on either
        // side fail `--deny-warnings` (DV-S002 or the finding).
        let src = include_str!("../fixtures/suppress_kernel.rs");
        let path = "crates/switch/src/fixture.rs";
        let (sups, bad) = collect(&SourceFile::parse(path, src));
        assert!(bad.is_empty(), "{bad:?}");
        let findings = crate::rules::scan_source("switch", path, src);
        for f in &findings {
            assert_eq!(
                sups.iter().filter(|s| s.rule == f.rule && s.target_line == f.line).count(),
                1,
                "{} at line {} must have exactly one suppression",
                f.rule,
                f.line
            );
        }
        for s in &sups {
            assert!(
                findings.iter().any(|f| f.rule == s.rule && f.line == s.target_line),
                "suppression of {} targeting line {} matches nothing",
                s.rule,
                s.target_line
            );
        }
        assert_eq!(sups.len(), 3);
        assert_eq!(findings.len(), 3);
    }

    #[test]
    fn stacked_standalone_suppressions_collapse_onto_one_line() {
        // The sharp edge the kernel's same-line form avoids: two
        // standalone comments above a two-cast block both target the
        // same next code line, leaving the second cast unsilenced and
        // one comment as DV-S002 rot.
        let (s, bad) = run(
            "// dv-lint: allow(DV-W011, reason = \"first\")\n\
             // dv-lint: allow(DV-W011, reason = \"second\")\n\
             let a = src_port as u16;\n\
             let b = dst_port as u16;\n",
        );
        assert!(bad.is_empty());
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].target_line, 3);
        assert_eq!(s[1].target_line, 3, "both standalone comments land on the first code line");
    }

    #[test]
    fn ordinary_comments_are_ignored() {
        let (s, bad) = run("// mentions dv-lint in prose, not a directive\nlet x = 1;\n");
        assert!(s.is_empty());
        assert!(bad.is_empty());
    }
}
