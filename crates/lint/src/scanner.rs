//! Source model: token-stream-backed views of Rust files.
//!
//! Rules must match *code*, not prose: a doc comment explaining why
//! `HashMap` is banned must not trip the `HashMap` rule. v1 solved this
//! with a per-line state machine; v2 delegates to the real lexer
//! ([`crate::lexer`]) and derives the sanitized line view from the token
//! stream: comments and string/char literal *contents* are blanked while
//! delimiters and every other byte stay at their original columns, so
//! per-line pattern rules keep working unchanged and findings still point
//! at raw source positions. Scope-aware rules read [`SourceFile::tokens`]
//! directly.

use crate::lexer::{self, Token, TokenKind};

/// One scanned source file: raw lines, their sanitized twins, and the
/// spanned token stream both views are derived from.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (display only).
    pub path: String,
    /// Raw lines, as read.
    pub raw: Vec<String>,
    /// Lines with comments and string/char literal contents blanked.
    pub code: Vec<String>,
    /// The full token stream (comments included), in source order.
    pub tokens: Vec<Token>,
}

impl SourceFile {
    /// Scan `source` (workspace-relative `path` is carried for display).
    pub fn parse(path: &str, source: &str) -> Self {
        let raw: Vec<String> = source.lines().map(str::to_string).collect();
        let tokens = lexer::tokenize(source);
        let code = sanitize(&raw, &tokens);
        Self { path: path.to_string(), raw, code, tokens }
    }

    /// Sanitized lines paired with 1-based line numbers.
    pub fn code_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.code.iter().enumerate().map(|(i, l)| (i + 1, l.as_str()))
    }

    /// Tokens with comments filtered out — the stream structural analysis
    /// (scopes, lock nesting, cast operands) walks.
    pub fn code_tokens(&self) -> Vec<&Token> {
        self.tokens.iter().filter(|t| !t.is_comment()).collect()
    }
}

/// Build the sanitized line view: start from all-spaces lines of the raw
/// lengths, then write every token back except comment bodies and
/// literal contents (delimiters — quotes, prefixes, hashes — are kept so
/// paired-quote heuristics and column arithmetic survive).
fn sanitize(raw: &[String], tokens: &[Token]) -> Vec<String> {
    let mut grid: Vec<Vec<u8>> = raw.iter().map(|l| vec![b' '; l.len()]).collect();
    for t in tokens {
        match t.kind {
            TokenKind::LineComment | TokenKind::BlockComment => {}
            TokenKind::Str => {
                // Opening delimiter: everything up to and including the
                // first quote (`"`, `r#"`, `br"`...).
                if let Some(q) = t.text.find('"') {
                    write_at(&mut grid, t.line, t.col, &t.text.as_bytes()[..=q]);
                    // Closing delimiter: the last quote plus raw hashes,
                    // if the literal is terminated.
                    if let Some(last) = t.text.rfind('"') {
                        if last > q {
                            let tail = &t.text.as_bytes()[last..];
                            write_at(&mut grid, t.end_line, t.end_col - tail.len(), tail);
                        }
                    }
                }
            }
            TokenKind::Char => {
                // Keep the quotes (and a `b` prefix), blank the content.
                if let Some(q) = t.text.find('\'') {
                    write_at(&mut grid, t.line, t.col, &t.text.as_bytes()[..=q]);
                }
                if t.text.len() > 1 && t.text.ends_with('\'') {
                    write_at(&mut grid, t.end_line, t.end_col - 1, b"'");
                }
            }
            _ => write_at(&mut grid, t.line, t.col, t.text.as_bytes()),
        }
    }
    grid.into_iter()
        .map(|bytes| {
            // Blanking multi-byte codepoints can split UTF-8; recover
            // lossily (columns are byte offsets either way).
            String::from_utf8(bytes)
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
        })
        .collect()
}

/// Copy `bytes` into the grid at (1-based `line`, byte `col`), clipped to
/// the line's length.
fn write_at(grid: &mut [Vec<u8>], line: usize, col: usize, bytes: &[u8]) {
    let Some(row) = grid.get_mut(line - 1) else {
        return;
    };
    for (k, &b) in bytes.iter().enumerate() {
        if let Some(slot) = row.get_mut(col + k) {
            *slot = b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        SourceFile::parse("t.rs", src).code
    }

    #[test]
    fn line_comments_are_blanked() {
        let c = code_of("let x = 1; // HashMap here\n/// HashMap doc\nlet y = 2;");
        assert!(c[0].contains("let x = 1;"));
        assert!(!c[0].contains("HashMap"));
        assert!(!c[1].contains("HashMap"));
        assert!(c[2].contains("let y = 2;"));
    }

    #[test]
    fn block_comments_span_lines_and_nest() {
        let c = code_of("a /* HashMap\n still /* nested */ comment\n end */ b");
        assert!(!c.join("\n").contains("HashMap"));
        assert!(c[0].starts_with('a'));
        assert!(c[2].contains('b'));
    }

    #[test]
    fn string_contents_are_blanked_but_quotes_remain() {
        let c = code_of(r#"let s = "HashMap::new()"; let t = 5;"#);
        assert!(!c[0].contains("HashMap"));
        assert!(c[0].contains("let t = 5;"));
        assert!(c[0].contains('"'));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let c = code_of(r##"let s = r#"Instant::now()"#; let u = 1;"##);
        assert!(!c[0].contains("Instant"));
        assert!(c[0].contains("let u = 1;"));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let c = code_of(r#"let s = "a\"HashMap\"b"; thread_rng();"#);
        assert!(!c[0].contains("HashMap"));
        assert!(c[0].contains("thread_rng"));
    }

    #[test]
    fn char_literals_and_lifetimes_survive() {
        let c = code_of("fn f<'a>(x: &'a str) { let q = '\"'; let h = 1; }");
        assert!(c[0].contains("fn f<'a>(x: &'a str)"));
        assert!(c[0].contains("let h = 1;"));
    }

    #[test]
    fn quote_char_literal_does_not_flip_string_mode() {
        // Regression: a `'"'` char literal must not open string mode and
        // blank the rest of the file (the charlit fixture pair proves the
        // same through the rule engine).
        let c = code_of("let c = '\"';\nlet m = HashMap::new();\nInstant::now();");
        assert!(c[1].contains("HashMap::new()"));
        assert!(c[2].contains("Instant::now()"));
        assert!(!c[0].contains('"'), "char literal content must be blanked: {:?}", c[0]);
    }

    #[test]
    fn multiline_strings_are_blanked() {
        let c = code_of("let s = \"start\nHashMap inside\nend\"; let z = 9;");
        assert!(!c.join("\n").contains("HashMap"));
        assert!(c[2].contains("let z = 9;"));
    }

    #[test]
    fn columns_are_preserved() {
        let src = "abc /* x */ def";
        let c = code_of(src);
        assert_eq!(c[0].len(), src.len());
        assert_eq!(&c[0][12..15], "def");
    }

    #[test]
    fn every_line_keeps_its_byte_length() {
        let src = "fn f() {\n  let s = \"a\nb\"; let c = '\u{e9}'; // tail\n}\n";
        let f = SourceFile::parse("t.rs", src);
        for (raw, code) in f.raw.iter().zip(&f.code) {
            assert_eq!(raw.len(), code.len());
        }
    }
}
