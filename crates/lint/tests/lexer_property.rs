//! Property test for the lint lexer: generate random-but-valid source
//! from a fragment pool (seeded, deterministic) and check the invariant
//! every downstream pass depends on: **spans are byte-accurate**. Each
//! token's `text` equals the raw source slice at its recorded
//! (line, col)..(end_line, end_col), so a finding's line is the raw line
//! its tokens came from.

use dv_core::rng::SplitMix64;
use dv_lint::scanner::SourceFile;

/// Fragments chosen to stress every lexer mode: plain/raw/byte strings,
/// escaped quotes, char and byte-char literals (including `'"'` and
/// multi-byte), lifetimes, nested block comments, doc comments, numbers
/// with suffixes, and composed punctuation.
const FRAGMENTS: &[&str] = &[
    "fn f(x: u32) -> u32 { x + 1 }",
    "let s = \"plain string\";",
    "let e = \"esc \\\" quote\";",
    "let r = r#\"raw \"inner\" text\"#;",
    "let b = b\"bytes\";",
    "let br = br#\"raw bytes\"#;",
    "let c = 'x';",
    "let q = '\"';",
    "let nl = '\\n';",
    "let bc = b'q';",
    "let uni = '\u{e9}';",
    "// line comment with \"quotes\" and 'chars'",
    "/// doc comment HashMap::new()",
    "/* block */",
    "/* outer /* nested */ tail */",
    "fn g<'a>(v: &'a str) -> &'a str { v }",
    "'outer: loop { break 'outer; }",
    "let n = 0xff_u64 + 1.5e3;",
    "let p: Vec<u8> = vec![1, 2, 3];",
    "match x { Some(_) => 1, None => 0 }",
    "let m = a::b::c(d);",
    "let s = \"multi\nline\nstring\";",
    "impl S { fn m(&self) {} }",
    "let w = \"tab\\tand\\\\back\";",
];

const SEPARATORS: &[&str] = &["\n", "\n\n", " ", "\n    "];

/// Build one pseudo-random program from the pool.
fn gen_program(rng: &mut SplitMix64) -> String {
    let n = 3 + rng.next_below(20) as usize;
    let mut out = String::new();
    for _ in 0..n {
        out.push_str(FRAGMENTS[rng.next_below(FRAGMENTS.len() as u64) as usize]);
        out.push_str(SEPARATORS[rng.next_below(SEPARATORS.len() as u64) as usize]);
    }
    out
}

/// Byte offset of 1-based `line`, byte column `col` in `src`.
fn offset_of(line_starts: &[usize], line: usize, col: usize) -> usize {
    line_starts[line - 1] + col
}

fn line_starts(src: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in src.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

#[test]
fn token_spans_reserialize_to_the_exact_source_slice() {
    let mut rng = SplitMix64::new(0xDA7A_0517);
    for _ in 0..200 {
        let src = gen_program(&mut rng);
        let starts = line_starts(&src);
        let f = SourceFile::parse("prop.rs", &src);
        for t in &f.tokens {
            let lo = offset_of(&starts, t.line, t.col);
            let hi = offset_of(&starts, t.end_line, t.end_col);
            assert_eq!(
                &src[lo..hi],
                t.text,
                "span mismatch at {}:{} in program:\n{src}",
                t.line,
                t.col
            );
        }
    }
}
