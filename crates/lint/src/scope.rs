//! Pass two of the analyzer: a lightweight item/scope model over the
//! token stream.
//!
//! This is deliberately not a parser — it answers exactly the questions
//! the concurrency rules ask: where do functions begin and end (brace
//! tracking from the `fn` keyword), which lines are test-only
//! (`#[cfg(test)]` / `#[test]` items, and whole files under `tests/`), and
//! which lock guards are live at each `.lock()` call inside a function
//! body.

use crate::lexer::{Token, TokenKind};
use crate::scanner::SourceFile;

/// One `fn` item: its name and body extent.
#[derive(Debug, Clone)]
pub struct FnScope {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Inclusive indices into [`SourceFile::code_tokens`] of the body's
    /// `{` and `}` (absent for bodiless trait declarations).
    pub body: Option<(usize, usize)>,
    /// Inclusive 1-based line range of the body braces.
    pub body_lines: (usize, usize),
}

/// A `.lock()` call observed while other lock guards were live in the
/// same function body.
#[derive(Debug, Clone)]
pub struct LockAcquire {
    /// Name of the enclosing function.
    pub in_fn: String,
    /// 1-based line of this `.lock()` call.
    pub line: usize,
    /// Receiver identifier (`self.kernel.lock()` → `kernel`).
    pub recv: String,
    /// Guards still live at this call: (receiver, bound variable, line).
    pub held: Vec<(String, String, usize)>,
}

/// The scope model for one file.
#[derive(Debug, Default)]
pub struct ScopeModel {
    /// Every `fn` item, in source order.
    pub fns: Vec<FnScope>,
    /// Inclusive 1-based line ranges of test-only items.
    pub test_ranges: Vec<(usize, usize)>,
    /// Whether the whole file is test code (under `tests/`).
    pub all_tests: bool,
    /// Every nested lock acquisition, across all fns.
    pub lock_acquires: Vec<LockAcquire>,
}

impl ScopeModel {
    /// Build the model for `file` (whose workspace-relative path decides
    /// whether it is an integration-test file).
    pub fn build(file: &SourceFile) -> Self {
        let toks = file.code_tokens();
        let mut model = ScopeModel {
            all_tests: file.path.starts_with("tests/") || file.path.contains("/tests/"),
            ..Default::default()
        };
        model.collect_items(&toks);
        model.collect_lock_acquires(&toks);
        model
    }

    /// Is this 1-based line inside test-only code?
    pub fn is_test_line(&self, line: usize) -> bool {
        self.all_tests || self.test_ranges.iter().any(|&(a, b)| (a..=b).contains(&line))
    }

    /// The innermost function whose body contains `line`.
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnScope> {
        self.fns
            .iter()
            .filter(|f| (f.body_lines.0..=f.body_lines.1).contains(&line))
            .min_by_key(|f| f.body_lines.1 - f.body_lines.0)
    }

    /// Single walk collecting fns and test regions.
    fn collect_items(&mut self, toks: &[&Token]) {
        let mut k = 0;
        while k < toks.len() {
            let t = toks[k];
            if t.is_ident("fn") {
                if let Some(name) = toks.get(k + 1).filter(|n| n.kind == TokenKind::Ident) {
                    let body = find_body(toks, k + 2);
                    self.fns.push(FnScope {
                        name: name.text.clone(),
                        line: t.line,
                        body,
                        body_lines: body
                            .map(|(o, c)| (toks[o].line, toks[c].line))
                            .unwrap_or((t.line, t.line)),
                    });
                }
            } else if t.is_punct("#") && toks.get(k + 1).is_some_and(|n| n.is_punct("[")) {
                if let Some((end, is_test)) = attribute_extent(toks, k + 1) {
                    if is_test {
                        // The attribute covers the item that follows it
                        // (skipping further attributes).
                        let mut j = end + 1;
                        while j + 1 < toks.len()
                            && toks[j].is_punct("#")
                            && toks[j + 1].is_punct("[")
                        {
                            match attribute_extent(toks, j + 1) {
                                Some((e, _)) => j = e + 1,
                                None => break,
                            }
                        }
                        if let Some(last) = item_extent(toks, j) {
                            self.test_ranges.push((t.line, toks[last].line));
                        }
                    }
                    k = end;
                }
            }
            k += 1;
        }
    }

    /// Walk every fn body tracking live lock guards; record each
    /// `.lock()` call together with the guards held at that point.
    fn collect_lock_acquires(&mut self, toks: &[&Token]) {
        for f in &self.fns {
            let Some((open, close)) = f.body else { continue };
            let mut held: Vec<(String, String, usize, i32)> = Vec::new(); // (recv, var, line, depth)
            let mut depth = 0i32;
            let mut k = open;
            // The variable the current `let` statement binds, if its
            // initializer turns out to be a `.lock()` call.
            let mut pending_let: Option<String> = None;
            while k <= close {
                let t = toks[k];
                if t.is_punct("{") {
                    depth += 1;
                } else if t.is_punct("}") {
                    depth -= 1;
                    held.retain(|g| g.3 < depth + 1);
                } else if t.is_punct(";") {
                    pending_let = None;
                } else if t.is_ident("let") {
                    let mut j = k + 1;
                    if toks.get(j).is_some_and(|n| n.is_ident("mut")) {
                        j += 1;
                    }
                    pending_let = toks
                        .get(j)
                        .filter(|n| n.kind == TokenKind::Ident)
                        .map(|n| n.text.clone());
                } else if t.is_ident("drop")
                    && toks.get(k + 1).is_some_and(|n| n.is_punct("("))
                    && toks.get(k + 3).is_some_and(|n| n.is_punct(")"))
                {
                    if let Some(var) = toks.get(k + 2).filter(|n| n.kind == TokenKind::Ident) {
                        held.retain(|g| g.1 != var.text);
                    }
                } else if t.is_ident("lock")
                    && k > open
                    && toks[k - 1].is_punct(".")
                    && toks.get(k + 1).is_some_and(|n| n.is_punct("("))
                    && toks.get(k + 2).is_some_and(|n| n.is_punct(")"))
                {
                    let recv = receiver_of(toks, k - 1).unwrap_or_default();
                    if !recv.is_empty() {
                        self.lock_acquires.push(LockAcquire {
                            in_fn: f.name.clone(),
                            line: t.line,
                            recv: recv.clone(),
                            held: held
                                .iter()
                                .map(|g| (g.0.clone(), g.1.clone(), g.2))
                                .collect(),
                        });
                        // The binding holds a guard only when `.lock()`
                        // ends the initializer (`let g = x.lock();`) —
                        // in `let n = x.lock().len();` the guard is a
                        // temporary and dies with the statement.
                        if toks.get(k + 3).is_some_and(|n| n.is_punct(";")) {
                            if let Some(var) = pending_let.take() {
                                // Rebinding a name drops the old guard.
                                held.retain(|g| g.1 != var);
                                held.push((recv, var, t.line, depth));
                            }
                        }
                    }
                }
                k += 1;
            }
        }
    }
}

/// The receiver identifier of a method call whose `.` is at `dot`:
/// `self.kernel.lock()` → `kernel`; `vics[i].lock()` → `vics`;
/// `state().lock()` → `state`.
fn receiver_of(toks: &[&Token], dot: usize) -> Option<String> {
    let mut k = dot.checked_sub(1)?;
    // Step back over one trailing index/call group.
    for (close, open) in [("]", "["), (")", "(")] {
        if toks[k].is_punct(close) {
            let mut d = 1;
            while d > 0 {
                k = k.checked_sub(1)?;
                if toks[k].is_punct(close) {
                    d += 1;
                } else if toks[k].is_punct(open) {
                    d -= 1;
                }
            }
            k = k.checked_sub(1)?;
        }
    }
    (toks[k].kind == TokenKind::Ident).then(|| toks[k].text.clone())
}

/// Scan forward from `start` for an item body: the first `{` at paren,
/// bracket, and angle depth zero (its matching `}` is returned), or stop
/// at a top-level `;` (bodiless item).
fn find_body(toks: &[&Token], start: usize) -> Option<(usize, usize)> {
    let (mut paren, mut bracket, mut angle) = (0i32, 0i32, 0i32);
    let mut k = start;
    while k < toks.len() {
        let t = toks[k];
        match t.text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "<" if t.kind == TokenKind::Punct => angle += 1,
            ">" if t.kind == TokenKind::Punct => angle = (angle - 1).max(0),
            ";" if paren == 0 && bracket == 0 => return None,
            "{" if paren == 0 && bracket == 0 && angle == 0 => {
                return matching_brace(toks, k).map(|close| (k, close));
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// The index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[&Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// For an attribute whose `[` is at `open`: the index of its closing `]`
/// and whether it marks test-only code (`#[test]`, `#[cfg(test)]` and
/// `cfg(all(test, ...))` variants — but not `#[cfg(not(test))]`).
fn attribute_extent(toks: &[&Token], open: usize) -> Option<(usize, bool)> {
    let mut depth = 0i32;
    let mut has_test = false;
    let mut has_not = false;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return Some((k, has_test && !has_not));
            }
        } else if t.is_ident("test") {
            has_test = true;
        } else if t.is_ident("not") {
            has_not = true;
        }
    }
    None
}

/// The last token of the item starting at `start`: through the matching
/// `}` of its first top-level brace, or its terminating `;`.
fn item_extent(toks: &[&Token], start: usize) -> Option<usize> {
    let (mut paren, mut bracket) = (0i32, 0i32);
    let mut k = start;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            ";" if paren == 0 && bracket == 0 => return Some(k),
            "{" if paren == 0 && bracket == 0 => return matching_brace(toks, k),
            _ => {}
        }
        k += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> ScopeModel {
        ScopeModel::build(&SourceFile::parse("crates/x/src/y.rs", src))
    }

    #[test]
    fn fn_boundaries_are_found() {
        let m = model("fn a() { 1; }\n\npub fn b<T: Ord>(x: Vec<T>) -> Vec<T> {\n    x\n}\n");
        assert_eq!(m.fns.len(), 2);
        assert_eq!(m.fns[0].name, "a");
        assert_eq!(m.fns[0].body_lines, (1, 1));
        assert_eq!(m.fns[1].name, "b");
        assert_eq!(m.fns[1].body_lines, (3, 5));
    }

    #[test]
    fn bodiless_trait_fn_has_no_body() {
        let m = model("trait T { fn decl(&self) -> u32; fn with(&self) { } }");
        assert_eq!(m.fns.len(), 2);
        assert!(m.fns[0].body.is_none());
        assert!(m.fns[1].body.is_some());
    }

    #[test]
    fn where_clauses_and_generics_do_not_confuse_body_search() {
        let m = model("fn g<F>(f: F) -> u32\nwhere\n    F: Fn() -> u32,\n{\n    f()\n}\n");
        assert_eq!(m.fns[0].body_lines, (4, 6));
    }

    #[test]
    fn cfg_test_regions_cover_their_item() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}\n";
        let m = model(src);
        assert!(!m.is_test_line(1));
        assert!(m.is_test_line(3));
        assert!(m.is_test_line(4));
        assert!(!m.is_test_line(6));
    }

    #[test]
    fn test_attribute_and_stacked_attributes() {
        let src = "#[test]\n#[ignore]\nfn probe() {\n    x();\n}\nfn real() {}\n";
        let m = model(src);
        assert!(m.is_test_line(4));
        assert!(!m.is_test_line(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let m = model("#[cfg(not(test))]\nfn shipped() { x(); }\n");
        assert!(!m.is_test_line(2));
    }

    #[test]
    fn integration_test_files_are_all_test() {
        let f = SourceFile::parse("tests/determinism.rs", "fn x() {}\n");
        assert!(ScopeModel::build(&f).is_test_line(1));
    }

    #[test]
    fn nested_lock_guards_are_tracked() {
        let src = "
fn nested(&self) {
    let a = self.kernel.lock();
    let b = self.registry.lock();
    drop(b);
    let c = self.registry.lock();
}
fn scoped(&self) {
    {
        let a = self.kernel.lock();
    }
    let b = self.registry.lock();
}
";
        let m = model(src);
        let in_nested: Vec<_> =
            m.lock_acquires.iter().filter(|a| a.in_fn == "nested").collect();
        assert_eq!(in_nested.len(), 3);
        assert!(in_nested[0].held.is_empty());
        assert_eq!(in_nested[1].held.len(), 1);
        assert_eq!(in_nested[1].held[0].0, "kernel");
        // After drop(b) the second registry lock still holds only `a`.
        assert_eq!(in_nested[2].held.len(), 2 - 1);
        let scoped: Vec<_> = m.lock_acquires.iter().filter(|a| a.in_fn == "scoped").collect();
        assert!(scoped[1].held.is_empty(), "block-scoped guard must die with its block");
    }

    #[test]
    fn receiver_steps_over_index_groups() {
        let m = model("fn f(&self) { let g = self.vics[self.idx(src)].lock(); let h = other.lock(); }");
        assert_eq!(m.lock_acquires[0].recv, "vics");
        assert_eq!(m.lock_acquires[1].recv, "other");
        assert_eq!(m.lock_acquires[1].held[0].0, "vics");
    }

    #[test]
    fn enclosing_fn_picks_innermost() {
        let m = model("fn outer() {\n    fn inner() {\n        x();\n    }\n}\n");
        assert_eq!(m.enclosing_fn(3).unwrap().name, "inner");
        assert_eq!(m.enclosing_fn(5).unwrap().name, "outer");
    }
}
