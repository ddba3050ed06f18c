//! The `dv-bench` front end: `Opts::parse` against a stand-in table, then
//! the built executable driven as a user drives it. Misuse must exit 2
//! naming the problem and listing the scenarios, and the scenario table,
//! the docs and CI must agree.

use std::path::Path;
use std::process::Command;

use dv_bench::{Opts, Report, Scenario};
use dv_switch::TopoKind;

fn noop(_: &Opts, _: &mut Report) {}

/// A two-row stand-in for the front end's table.
static TABLE: [Scenario; 2] = [
    Scenario {
        name: "study",
        role: "",
        flags: &["--stream", "--stream-interval", "--faults", "--topo"],
        run: noop,
    },
    Scenario { name: "plain", role: "", flags: &[], run: noop },
];

fn parse(list: &[&str]) -> Result<Opts, String> {
    Opts::parse(list.iter().map(|s| s.to_string()), &TABLE).map(|(_, opts)| opts)
}

#[test]
fn parse_accepts_both_flag_forms_and_names_every_offender() {
    let spaced = parse(&["study", "--quick", "--topo", "fattree", "--json", "a.json"])
        .expect("spaced form parses");
    assert!(spaced.quick);
    assert_eq!(spaced.bench, "study");
    assert_eq!(spaced.topo, Some(TopoKind::FatTree));
    assert_eq!(spaced.json.as_deref(), Some(Path::new("a.json")));
    let inline = parse(&["study", "--topo=minpath", "--stream=-", "--stream-interval=5"])
        .expect("inline form parses");
    assert_eq!(inline.topo, Some(TopoKind::MinPath));
    assert_eq!(inline.stream.as_deref(), Some("-"));
    assert_eq!(inline.stream_interval, dv_core::time::us(5));
    // The interval may come before its stream.
    let late = parse(&["study", "--stream-interval", "5", "--stream", "-"]).expect("either order parses");
    assert_eq!((late.stream.as_deref(), late.stream_interval), (Some("-"), dv_core::time::us(5)));
    assert_eq!(parse(&["plain"]), Ok(Opts::new("plain")));
    assert!(parse(&["study", "--faults", "seed=7,fifodrop=0.02"]).expect("plan parses").faults.is_some());

    // Each misuse is an `Err` that names the offender.
    for (args, offender) in [
        (&[][..], "no scenario"),
        (&["nope"], "\"nope\""),
        // `--topology x` must not satisfy `--topo`.
        (&["study", "--topology", "x"], "\"--topology\""),
        (&["study", "--quik"], "\"--quik\""),
        (&["study", "--quick", "--json"], "--json requires a value"),
        (&["study", "--json", "--quick"], "--json requires a value"),
        // An empty inline value is a forgotten one, caught before anything runs.
        (&["study", "--stream="], "--stream requires a value"),
        (&["study", "--quick=1"], "--quick takes no value"),
        (&["plain", "--topo", "dv"], "plain takes no flag \"--topo\""),
        (&["study", "--topo", "torus"], "\"torus\""),
        (&["study", "--faults", "bogus"], "\"bogus\""),
        (&["study", "--stream-interval", "0"], "--stream-interval"),
        // 2^58 µs does not fit in u64 picoseconds: it must not wrap to 0 ps.
        (&["study", "--stream-interval", "288230376151711744"], "--stream-interval"),
        // An interval without a stream would be read by nothing.
        (&["study", "--stream-interval", "5"], "--stream-interval needs --stream"),
        // A second value must not silently replace the first.
        (&["study", "--faults", "seed=7,fifodrop=0.02", "--faults=seed=1"], "--faults given twice"),
        (&["study", "--json", "a", "--json", "b"], "--json given twice"),
        (&["study", "--quick", "--quick"], "--quick given twice"),
    ] {
        let err = parse(args).expect_err("misuse must not parse");
        assert!(err.contains(offender), "{args:?}: {err:?} does not name {offender:?}");
    }
}

/// Run the real front end; `(exit code, stdout, stderr)`.
fn dv_bench(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dv-bench")).args(args).output().expect("dv-bench runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

/// The scenario names of the usage listing (`  <name>  <role> [flags]`).
fn listed_scenarios(stderr: &str) -> Vec<String> {
    let (_, list) = stderr.split_once("\nscenarios:\n").expect("usage lists the scenarios");
    list.lines().filter_map(|l| l.split_whitespace().next()).map(str::to_string).collect()
}

#[test]
fn misuse_exits_2_naming_the_problem_and_listing_the_scenarios() {
    for (args, problem) in [
        (&[][..], "no scenario given"),
        (&["nope"], "unknown scenario \"nope\""),
        (&["fig6", "--quik"], "fig6 takes no flag \"--quik\""),
        (&["fig6", "--json"], "--json requires a value"),
        (&["fig4", "--json="], "--json requires a value"),
        (&["fig6", "--topo", "dv"], "fig6 takes no flag \"--topo\""),
        (&["fig4", "--faults", "seed=1"], "fig4 takes no flag \"--faults\""),
        (&["switch_study", "--topo", "fattree"], "switch_study takes no flag \"--topo\""),
        (&["fig3", "--quick", "--stream-interval", "5"], "--stream-interval needs --stream"),
        // A flag given twice: the second plan would run fig6 fault-free,
        // the second path would leave the first without its artifact.
        (&["fig6", "--quick", "--faults", "seed=7,fifodrop=0.02", "--faults", "seed=1"], "--faults given twice"),
        (&["fig6", "--quick", "--json", "a.json", "--json", "b.json"], "--json given twice"),
        // So must a fault key given twice inside one plan.
        (&["fig6", "--quick", "--faults", "seed=7,fifodrop=0.02,fifodrop=0"], "fault key \"fifodrop\" given twice"),
        // Not scenarios: `benchmark/` is the one perf harness.
        (&["perf_smoke", "--quick"], "unknown scenario \"perf_smoke\""),
        (&["net_smoke", "--quick"], "unknown scenario \"net_smoke\""),
        (&["sched_smoke", "--quick"], "unknown scenario \"sched_smoke\""),
    ] {
        let (code, stdout, stderr) = dv_bench(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stdout.is_empty(), "{args:?} ran something: {stdout}");
        assert!(stderr.contains(problem), "{args:?}: {stderr}");
        assert!(listed_scenarios(&stderr).iter().any(|s| s == "fig6"), "{args:?}: {stderr}");
    }
}

#[test]
fn an_unwritable_json_path_fails_before_anything_runs() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir/x.json");
    let (code, stdout, stderr) = dv_bench(&["fig8", "--quick", "--json", path.to_str().expect("utf-8 path")]);
    assert_eq!(code, Some(1), "{stderr}");
    // A scenario prints each table as it finishes: none may have run.
    assert!(stdout.is_empty(), "fig8 ran before failing: {stdout}");
    assert!(stderr.contains("failed to create") && stderr.contains("no-such-dir"), "{stderr}");
}

#[test]
fn dv_report_names_a_flag_it_does_not_take_instead_of_opening_it() {
    let out = Command::new(env!("CARGO_BIN_EXE_dv-report"))
        .args(["--gate", "x.json"])
        .output()
        .expect("dv-report runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("usage: dv-report"), "{stderr}");
}

/// The scenario named by each `dv-bench` invocation in `text`: the word
/// after `-p dv-bench -- ` or `release/dv-bench `, and every word of a
/// shell `for b in …; do` list (CI loops over scenarios with `$b`). Shell
/// variables and `<placeholders>` are skipped.
fn scenarios_named_in(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    for line in text.lines() {
        for marker in ["-p dv-bench -- ", "release/dv-bench "] {
            for (at, _) in line.match_indices(marker) {
                names.extend(line[at + marker.len()..].split_whitespace().next().map(str::to_string));
            }
        }
        if let Some(list) = line.trim().strip_prefix("for b in ").and_then(|l| l.strip_suffix("; do")) {
            names.extend(list.split_whitespace().map(str::to_string));
        }
    }
    names
        .into_iter()
        .map(|n| n.trim_matches(|c| "`\"'".contains(c)).to_string())
        .filter(|n| !n.starts_with('$') && !n.starts_with('<'))
        .collect()
}

#[test]
fn scenario_names_are_unique_and_docs_and_ci_name_only_them() {
    let table = listed_scenarios(&dv_bench(&[]).2);
    assert_eq!(table.len(), 11, "{table:?}");
    for (i, name) in table.iter().enumerate() {
        assert!(!table[..i].contains(name), "duplicate scenario {name}");
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for file in [".github/workflows/ci.yml", "EXPERIMENTS.md", "README.md"] {
        let text = std::fs::read_to_string(root.join(file)).expect(file);
        let named = scenarios_named_in(&text);
        assert!(!named.is_empty(), "{file} names no dv-bench scenario — did the invocation shape change?");
        for name in named {
            assert!(table.contains(&name), "{file} runs `dv-bench {name}`, which is not a scenario");
        }
    }
}
