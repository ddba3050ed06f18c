//! There is one way to silence a finding: an inline suppression with a
//! reason. Everything else a user could try leaves it standing.

use dv_lint::run_lint;

#[test]
fn only_an_inline_suppression_with_a_reason_silences_a_finding() {
    // One DV-W004 line in a scratch workspace, under each silencer in
    // turn. (The directory is this test's own.)
    let root = std::env::temp_dir().join(format!("dv-lint-silencers-{}", std::process::id()));
    let src = root.join("crates/sim/src");
    std::fs::create_dir_all(&src).expect("scratch workspace");
    let scan = |comment: &str| {
        let code = format!(
            "fn f(rx: &std::sync::mpsc::Receiver<u64>) -> u64 {{\n    {comment}\n    \
             rx.recv().expect(\"closed\")\n}}\n"
        );
        std::fs::write(src.join("lib.rs"), code).expect("scratch source");
        let report = run_lint(&root).expect("scan must succeed");
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        (rules, report.suppressed.len())
    };

    let reasoned = "// dv-lint: allow(DV-W004, reason = \"fatal by design\")";
    assert_eq!(scan(reasoned), (vec![], 1));
    assert_eq!(scan("// nothing to see"), (vec!["DV-W004"], 0));
    // No reason: the comment is malformed and the finding stands.
    assert_eq!(scan("// dv-lint: allow(DV-W004)"), (vec!["DV-S001", "DV-W004"], 0));
    // Another rule's suppression: stale, and the finding stands.
    let wrong_rule = "// dv-lint: allow(DV-W002, reason = \"fatal by design\")";
    assert_eq!(scan(wrong_rule), (vec!["DV-S002", "DV-W004"], 0));
    // A lint.toml at the root is not an audit path.
    std::fs::write(
        root.join("lint.toml"),
        "[[allow]]\nrule = \"DV-W004\"\npath = \"crates/sim/src/lib.rs\"\nreason = \"x\"\n",
    )
    .expect("scratch lint.toml");
    assert_eq!(scan("// nothing to see"), (vec!["DV-W004"], 0));
    std::fs::remove_dir_all(&root).expect("scratch workspace removed");
}
