//! Pass one of the analyzer: a real Rust lexer producing a spanned token
//! stream.
//!
//! The v1 scanner was a per-line state machine that could only answer
//! "is this byte inside a comment or string?". Scope-aware rules (function
//! boundaries, nested lock acquisitions, `as`-cast operands) need actual
//! tokens with positions, so this module tokenizes the whole file in one
//! pass: identifiers, lifetimes, numbers, string/char literals in every
//! flavor (raw, byte, escaped), line and nested block comments, and
//! punctuation (with `::`, `->` and `=>` composed, so path separators and
//! return arrows are unambiguous single tokens).
//!
//! Every token carries its byte-accurate start and end coordinates in the
//! original source. Nothing is normalized or dropped — the token stream
//! re-serializes to the input exactly, which is what lets findings point
//! at raw source lines and columns (see the round-trip property test).

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `HashMap`, `spawn`, ...).
    Ident,
    /// A lifetime or loop label (`'a`, `'static`, `'outer`).
    Lifetime,
    /// An integer or float literal (`42`, `0xff`, `1.5`, `3u64`).
    Number,
    /// A string literal: plain, raw, or byte (`"x"`, `r#"x"#`, `b"x"`).
    Str,
    /// A char or byte-char literal (`'x'`, `'\n'`, `b'q'`, `'"'`).
    Char,
    /// `// ...` to end of line (including `///` and `//!` doc comments).
    LineComment,
    /// `/* ... */`, possibly nested and spanning lines.
    BlockComment,
    /// Any other codepoint or composed operator (`::`, `->`, `=>`).
    Punct,
}

/// One spanned token. Positions are 1-based lines and 0-based byte
/// columns into the raw source; `text` is the exact source slice.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Exact raw text (may span lines for strings and block comments).
    pub text: String,
    /// 1-based line of the first byte.
    pub line: usize,
    /// 0-based byte column of the first byte on `line`.
    pub col: usize,
    /// 1-based line of the last byte.
    pub end_line: usize,
    /// 0-based byte column just past the last byte on `end_line`.
    pub end_col: usize,
}

impl Token {
    /// Is this token an identifier with exactly this text?
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// Is this token punctuation with exactly this text?
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }

    /// Is this a comment of either flavor?
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// A byte cursor that tracks line/column as it advances.
struct Cursor<'a> {
    bytes: &'a [u8],
    i: usize,
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Self { bytes: src.as_bytes(), i: 0, line: 1, col: 0 }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.i + ahead).copied()
    }

    fn bump(&mut self) {
        if self.bytes.get(self.i) == Some(&b'\n') {
            self.line += 1;
            self.col = 0;
        } else {
            self.col += 1;
        }
        self.i += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn at_end(&self) -> bool {
        self.i >= self.bytes.len()
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Does a raw or ordinary string literal start at the cursor, given the
/// byte is `r` or `b`? Recognizes `r"`, `r#"`, `b"`, `br"`, `br#"`.
fn string_prefix_len(c: &Cursor) -> Option<usize> {
    let mut j = 0;
    if c.peek(j) == Some(b'b') {
        j += 1;
    }
    if c.peek(j) == Some(b'r') {
        j += 1;
        while c.peek(j) == Some(b'#') {
            j += 1;
        }
        return (c.peek(j) == Some(b'"')).then_some(j + 1);
    }
    // `b"..."` byte string (no raw marker).
    (j == 1 && c.peek(j) == Some(b'"')).then_some(j + 1)
}

/// Tokenize `src` into a spanned token stream. Whitespace is skipped;
/// everything else (including comments) becomes a token. The lexer never
/// fails: malformed input degrades to `Punct` tokens.
pub fn tokenize(src: &str) -> Vec<Token> {
    let mut c = Cursor::new(src);
    let mut out = Vec::new();
    while !c.at_end() {
        let b = c.peek(0).unwrap();
        if b == b'\n' || b.is_ascii_whitespace() {
            c.bump();
            continue;
        }
        let (start, line, col) = (c.i, c.line, c.col);
        let kind = match b {
            b'/' if c.peek(1) == Some(b'/') => {
                while !c.at_end() && c.peek(0) != Some(b'\n') {
                    c.bump();
                }
                TokenKind::LineComment
            }
            b'/' if c.peek(1) == Some(b'*') => {
                c.bump_n(2);
                let mut depth = 1u32;
                while !c.at_end() && depth > 0 {
                    if c.peek(0) == Some(b'*') && c.peek(1) == Some(b'/') {
                        depth -= 1;
                        c.bump_n(2);
                    } else if c.peek(0) == Some(b'/') && c.peek(1) == Some(b'*') {
                        depth += 1;
                        c.bump_n(2);
                    } else {
                        c.bump();
                    }
                }
                TokenKind::BlockComment
            }
            b'"' => {
                lex_string_body(&mut c, 1, usize::MAX);
                TokenKind::Str
            }
            b'r' | b'b' if string_prefix_len(&c).is_some() => {
                let prefix = string_prefix_len(&c).unwrap();
                // Hash count: prefix minus the quote, minus `b`/`r` chars.
                let mut hashes = 0;
                for k in 0..prefix - 1 {
                    if c.peek(k) == Some(b'#') {
                        hashes += 1;
                    }
                }
                let raw = (b == b'r') || c.peek(1) == Some(b'r');
                lex_string_body(&mut c, prefix, if raw { hashes } else { usize::MAX });
                TokenKind::Str
            }
            b'b' if c.peek(1) == Some(b'\'') => {
                c.bump(); // the `b`
                lex_char_body(&mut c);
                TokenKind::Char
            }
            b'\'' => lex_char_or_lifetime(&mut c),
            _ if is_ident_start(b) => {
                while c.peek(0).is_some_and(is_ident_continue) {
                    c.bump();
                }
                TokenKind::Ident
            }
            _ if b.is_ascii_digit() => {
                while c.peek(0).is_some_and(is_ident_continue) {
                    c.bump();
                }
                // `1.5` — consume a fraction, but not a `..` range.
                if c.peek(0) == Some(b'.') && c.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                    c.bump();
                    while c.peek(0).is_some_and(is_ident_continue) {
                        c.bump();
                    }
                }
                TokenKind::Number
            }
            _ => {
                // Compose the operators scope analysis must not split.
                let two = [c.peek(0), c.peek(1)];
                match two {
                    [Some(b':'), Some(b':')] | [Some(b'-'), Some(b'>')] | [Some(b'='), Some(b'>')] => {
                        c.bump_n(2);
                    }
                    _ => {
                        // One codepoint (multi-byte UTF-8 stays whole).
                        c.bump();
                        while c.peek(0).is_some_and(|n| n & 0xC0 == 0x80) {
                            c.bump();
                        }
                    }
                }
                TokenKind::Punct
            }
        };
        out.push(Token {
            kind,
            text: src[start..c.i].to_string(),
            line,
            col,
            end_line: c.line,
            end_col: c.col,
        });
    }
    out
}

/// Consume a string literal whose opening delimiter is `prefix` bytes
/// (`"` = 1, `r#"` = 3, ...). `hashes` is the raw-string hash count, or
/// `usize::MAX` for escape-processing (non-raw) strings.
fn lex_string_body(c: &mut Cursor, prefix: usize, hashes: usize) {
    c.bump_n(prefix);
    let raw = hashes != usize::MAX;
    while !c.at_end() {
        match c.peek(0) {
            Some(b'\\') if !raw => {
                c.bump();
                if !c.at_end() {
                    c.bump();
                }
            }
            Some(b'"') => {
                if raw {
                    if (1..=hashes).all(|k| c.peek(k) == Some(b'#')) {
                        c.bump_n(1 + hashes);
                        return;
                    }
                    c.bump();
                } else {
                    c.bump();
                    return;
                }
            }
            _ => c.bump(),
        }
    }
}

/// Consume a char literal body starting at the opening `'`.
fn lex_char_body(c: &mut Cursor) {
    c.bump(); // opening '
    while !c.at_end() {
        match c.peek(0) {
            Some(b'\\') => {
                c.bump();
                if !c.at_end() {
                    c.bump();
                }
            }
            Some(b'\'') => {
                c.bump();
                return;
            }
            Some(b'\n') => return, // malformed; don't swallow the file
            _ => c.bump(),
        }
    }
}

/// Disambiguate `'x'` / `'\n'` (char literals) from `'a` / `'static`
/// (lifetimes and loop labels) at an opening `'`.
fn lex_char_or_lifetime(c: &mut Cursor) -> TokenKind {
    match c.peek(1) {
        // `'\...'` is always a char literal.
        Some(b'\\') => {
            lex_char_body(c);
            TokenKind::Char
        }
        Some(n) if is_ident_start(n) => {
            // One full codepoint, then: closing quote → char literal
            // (`'a'`, `'é'`); anything else → lifetime (`'a`, `'static`).
            let mut w = 2;
            while c.peek(w).is_some_and(|b| b & 0xC0 == 0x80) {
                w += 1;
            }
            if c.peek(w) == Some(b'\'') {
                lex_char_body(c);
                TokenKind::Char
            } else {
                c.bump(); // the '
                while c.peek(0).is_some_and(is_ident_continue) {
                    c.bump();
                }
                TokenKind::Lifetime
            }
        }
        // `'"'`, `' '`, `'{'` ... — non-identifier char literals.
        Some(_) => {
            lex_char_body(c);
            TokenKind::Char
        }
        None => {
            c.bump();
            TokenKind::Punct
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        tokenize(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_numbers_puncts() {
        let t = kinds("fn add(a: u32) -> u32 { a + 0xff }");
        assert!(t.contains(&(TokenKind::Ident, "add".into())));
        assert!(t.contains(&(TokenKind::Number, "0xff".into())));
        assert!(t.contains(&(TokenKind::Punct, "->".into())));
    }

    #[test]
    fn path_separator_is_one_token() {
        let t = kinds("std::thread::spawn");
        assert_eq!(
            t,
            vec![
                (TokenKind::Ident, "std".into()),
                (TokenKind::Punct, "::".into()),
                (TokenKind::Ident, "thread".into()),
                (TokenKind::Punct, "::".into()),
                (TokenKind::Ident, "spawn".into()),
            ]
        );
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let t = kinds("fn f<'a>(x: &'a str) { let c = '\"'; let d = 'x'; 'outer: loop {} }");
        let lifetimes: Vec<_> =
            t.iter().filter(|(k, _)| *k == TokenKind::Lifetime).map(|(_, s)| s.clone()).collect();
        let chars: Vec<_> =
            t.iter().filter(|(k, _)| *k == TokenKind::Char).map(|(_, s)| s.clone()).collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'outer"]);
        assert_eq!(chars, vec!["'\"'", "'x'"]);
    }

    #[test]
    fn a_quote_char_literal_does_not_open_a_string() {
        // The code on the line after `'"'` is code, not string contents.
        let t = kinds("let quote = '\"';\nlet m = std::collections::HashMap::new();\n");
        assert!(t.contains(&(TokenKind::Char, "'\"'".into())));
        assert!(t.contains(&(TokenKind::Ident, "HashMap".into())));
        assert!(t.iter().all(|(k, _)| *k != TokenKind::Str));
    }

    #[test]
    fn escaped_and_unicode_chars() {
        let t = kinds(r"let a = '\''; let b = '\u{1F600}'; let c = 'é';");
        let chars: Vec<_> =
            t.iter().filter(|(k, _)| *k == TokenKind::Char).map(|(_, s)| s.clone()).collect();
        assert_eq!(chars, vec![r"'\''", r"'\u{1F600}'", "'é'"]);
    }

    #[test]
    fn byte_literals() {
        let t = kinds(r##"let a = b'q'; let s = b"bytes"; let r = br#"raw"#;"##);
        assert!(t.contains(&(TokenKind::Char, "b'q'".into())));
        assert!(t.contains(&(TokenKind::Str, "b\"bytes\"".into())));
        assert!(t.contains(&(TokenKind::Str, "br#\"raw\"#".into())));
    }

    #[test]
    fn raw_strings_ignore_escapes_and_quotes() {
        let t = kinds(r###"let s = r##"has "quote" and \"##; x"###);
        let strs: Vec<_> =
            t.iter().filter(|(k, _)| *k == TokenKind::Str).map(|(_, s)| s.clone()).collect();
        assert_eq!(strs, vec![r###"r##"has "quote" and \"##"###]);
        assert!(t.contains(&(TokenKind::Ident, "x".into())));
    }

    #[test]
    fn comments_nest_and_span_lines() {
        let t = kinds("a /* one /* two */ still */ b // tail\nc");
        assert!(t.iter().any(|(k, s)| *k == TokenKind::BlockComment && s.contains("two")));
        assert!(t.iter().any(|(k, s)| *k == TokenKind::LineComment && s.contains("tail")));
        assert!(t.contains(&(TokenKind::Ident, "c".into())));
    }

    #[test]
    fn spans_reserialize_to_the_source() {
        let src = "fn f() {\n    let s = \"two\nline\"; // c\n    let c = '\"';\n}\n";
        let lines: Vec<&str> = src.lines().collect();
        for t in tokenize(src) {
            // Reconstruct the token's text from its span coordinates.
            let mut got = String::new();
            if t.line == t.end_line {
                got.push_str(&lines[t.line - 1][t.col..t.end_col]);
            } else {
                got.push_str(&lines[t.line - 1][t.col..]);
                for mid in &lines[t.line..t.end_line - 1] {
                    got.push('\n');
                    got.push_str(mid);
                }
                got.push('\n');
                got.push_str(&lines[t.end_line - 1][..t.end_col]);
            }
            assert_eq!(got, t.text, "span mismatch for {t:?}");
        }
    }

    #[test]
    fn float_and_range_disambiguation() {
        assert_eq!(
            kinds("1.5 0..10"),
            vec![
                (TokenKind::Number, "1.5".into()),
                (TokenKind::Number, "0".into()),
                (TokenKind::Punct, ".".into()),
                (TokenKind::Punct, ".".into()),
                (TokenKind::Number, "10".into()),
            ]
        );
    }
}
