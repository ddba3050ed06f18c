//! Clippy reads the nearest `clippy.toml` above a crate's manifest and
//! merges none, so the crates whose determinism rules differ from the
//! root's carry their own file. The simulation hot paths' copies must
//! repeat the root policy line for line (reasons included), add DV-W004
//! and drop only what their crate is exempt from; dv-bench's must
//! disallow nothing.

use std::path::Path;

/// DV-W004's disallowed types and methods, which only the hot paths'
/// copies add.
const W004: &[&str] = &[
    "std::sync::Mutex",
    "std::sync::RwLock",
    "std::sync::mpsc::Receiver",
    "std::sync::mpsc::Sender",
    "std::sync::mpsc::SyncSender",
    "std::sync::mpsc::channel",
    "std::sync::mpsc::sync_channel",
];

fn read(rel: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The lines that say something: neither blank nor comments.
fn policy(text: &str) -> Vec<&str> {
    text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')).collect()
}

fn names(line: &str, path: &str) -> bool {
    line.contains(&format!("path = \"{path}\""))
}

#[test]
fn hot_path_copies_repeat_the_root_policy() {
    let root = read("clippy.toml");
    let root = policy(&root);
    // (crate, root entries it is exempt from)
    let copies: [(&str, &[&str]); 5] = [
        ("api", &[]),
        ("mpi", &[]),
        ("vic", &[]),
        ("switch", &[]),
        // DV-W008: the scheduler starts the process threads.
        ("sim", &["std::thread::spawn", "std::thread::Builder::spawn", "std::thread::Scope::spawn"]),
    ];
    for (krate, exempt) in copies {
        let file = format!("crates/{krate}/clippy.toml");
        let text = read(&file);
        let copy = policy(&text);
        for line in &root {
            let dropped = exempt.iter().any(|p| names(line, p));
            assert_eq!(copy.contains(line), !dropped, "{file}: {line}");
        }
        for p in W004 {
            assert!(copy.iter().any(|l| names(l, p)), "{file} lacks DV-W004's {p}");
        }
        for line in &copy {
            assert!(
                root.contains(line) || W004.iter().any(|p| names(line, p)),
                "{file} adds {line}"
            );
        }
    }
}

#[test]
fn the_bench_harness_disallows_nothing() {
    assert_eq!(policy(&read("crates/bench/clippy.toml")), Vec::<&str>::new());
}
