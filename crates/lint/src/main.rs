//! CLI for dv-lint: `cargo run -p dv-lint [-- options]`.
//!
//! Exit status is 0 when clean, 1 when findings remain (errors always;
//! warnings too under `--deny-warnings`), 2 on usage or I/O problems.

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "a CLI's report is its output")]

use std::path::PathBuf;
use std::process::ExitCode;

use dv_lint::{run_lint, RULES};

const USAGE: &str = "\
dv-lint — lock and atomic discipline (DV-W007, DV-W012, DV-W013)

USAGE:
    cargo run -p dv-lint [-- OPTIONS]

OPTIONS:
    --root <DIR>        workspace root to scan [default: auto-detected]
    --deny-warnings     exit nonzero on warnings as well as errors
    --format <FMT>      output format: text (default) or json (stdout is
                        the deterministic dv-lint-v3 report, diagnostics
                        go to stderr)
    --list-rules        print the rule table and exit
    -h, --help          show this help
";

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

struct Options {
    root: PathBuf,
    deny_warnings: bool,
    list_rules: bool,
    format: Format,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: default_root(),
        deny_warnings: false,
        list_rules: false,
        format: Format::Text,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = PathBuf::from(args.next().ok_or("--root needs a directory")?);
            }
            "--deny-warnings" => opts.deny_warnings = true,
            "--format" => {
                opts.format = match args.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => return Err(format!("--format must be text or json, got {other:?}")),
                };
            }
            "--list-rules" => opts.list_rules = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

/// The workspace root: `CARGO_MANIFEST_DIR/../..` when run via cargo,
/// else the current directory.
fn default_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir).join("../.."),
        None => PathBuf::from("."),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in RULES {
            println!("{} [{}] {}", rule.id, rule.severity, rule.summary);
            println!("    fix: {}", rule.hint);
            println!("    scope: {}", rule.crates.join(", "));
        }
        return ExitCode::SUCCESS;
    }

    let report = match run_lint(&opts.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    let errors = report.errors();
    let warnings = report.warnings();

    let summary =
        format!("dv-lint: {} files scanned, {errors} error(s), {warnings} warning(s)", report.files);
    if opts.format == Format::Json {
        println!("{}", report.to_json().render_pretty());
        eprintln!("{summary}");
    } else {
        for finding in &report.findings {
            println!("{}\n", finding.render());
        }
        println!("{summary}");
    }

    if errors > 0 || (opts.deny_warnings && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
