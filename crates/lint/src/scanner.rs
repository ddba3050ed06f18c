//! Source model: the spanned token stream of one Rust file.
//!
//! Rules must match *code*, not prose: a comment that names
//! `Ordering::SeqCst` must not trip the mixed-ordering rule. The lexer
//! ([`crate::lexer`]) decides that once: comments and string/char
//! literals are tokens of their own kinds, so a rule that reads only
//! [`SourceFile::code_tokens`] never sees what they contain. The raw
//! lines are kept for quoting a finding's line, nothing else.

use crate::lexer::{self, Token};

/// One scanned source file: its raw lines and the spanned token stream.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (display only).
    pub path: String,
    /// Raw lines, as read.
    pub raw: Vec<String>,
    /// The full token stream (comments included), in source order.
    pub tokens: Vec<Token>,
}

impl SourceFile {
    /// Scan `source` (workspace-relative `path` is carried for display).
    pub fn parse(path: &str, source: &str) -> Self {
        let raw = source.lines().map(str::to_string).collect();
        Self { path: path.to_string(), raw, tokens: lexer::tokenize(source) }
    }

    /// The raw text of 1-based `line`, trimmed — what a finding quotes.
    pub fn line_text(&self, line: usize) -> String {
        self.raw.get(line - 1).map(|l| l.trim().to_string()).unwrap_or_default()
    }

    /// Tokens with comments filtered out — the stream every rule walks.
    pub fn code_tokens(&self) -> Vec<&Token> {
        self.tokens.iter().filter(|t| !t.is_comment()).collect()
    }
}
