//! The `dv-bench` command line, read once: `dv-bench <scenario> [flags]`.
//!
//! [`Opts::parse`] resolves the scenario against the front end's table
//! and checks every flag against what that scenario takes, so a typo
//! (`--quik`), a forgotten value (`--json` with no path), a flag the
//! scenario never reads (`fig4 --faults …`) or one given twice (the
//! second `--faults` would replace the first plan) is an error naming the
//! offender — not a silently different experiment. [`crate::Report`] and
//! [`crate::Streamer`] take what they need from the parsed [`Opts`].

use std::path::PathBuf;

use dv_core::fault::FaultPlan;
use dv_core::time::{us, Time, US};
use dv_switch::TopoKind;

/// One row of the front end's scenario table.
pub struct Scenario {
    /// Name on the command line, and the `"bench"` of its artifacts.
    pub name: &'static str,
    /// One-line role (the usage listing).
    pub role: &'static str,
    /// The flags it takes beyond `--quick` and `--json`.
    pub flags: &'static [&'static str],
    /// The scenario body; the front end owns the report's start and finish.
    pub run: fn(&Opts, &mut crate::Report),
}

/// A parsed `dv-bench` invocation.
#[derive(Debug, PartialEq)]
pub struct Opts {
    /// The scenario's name.
    pub bench: &'static str,
    /// `--quick`: reduced, CI-friendly problem sizes.
    pub quick: bool,
    /// `--json <path>`: write the `dv-bench-v1` artifact there.
    pub json: Option<PathBuf>,
    /// `--stream <path|->`: emit `dv-events-v1` telemetry (`-` is stdout).
    pub stream: Option<String>,
    /// `--stream-interval <µs>`: virtual time between samples (10 µs
    /// unless given), in picoseconds.
    pub stream_interval: Time,
    /// `--faults <spec>`: a deterministic fault plan (the grammar is
    /// `FaultPlan::parse`'s, e.g. `seed=7,fifodrop=0.02`).
    pub faults: Option<FaultPlan>,
    /// `--topo <kind>`: `dv`, `fattree` or `minpath`.
    pub topo: Option<TopoKind>,
}

impl Opts {
    /// The invocation `dv-bench <bench>` with no flags.
    pub fn new(bench: &'static str) -> Self {
        Self {
            bench,
            quick: false,
            json: None,
            stream: None,
            stream_interval: us(10),
            faults: None,
            topo: None,
        }
    }

    /// Parse `<scenario> [flags]` (the arguments after the program name)
    /// against `table`. Value-carrying flags accept `--flag v` and
    /// `--flag=v`. The error names what was wrong.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        table: &'static [Scenario],
    ) -> Result<(&'static Scenario, Opts), String> {
        let mut args = args.into_iter();
        let name = args.next().ok_or("no scenario given")?;
        let scenario = table
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("unknown scenario {name:?}"))?;
        let mut opts = Opts::new(scenario.name);
        let mut given: Vec<String> = Vec::new();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            if !["--quick", "--json"].contains(&flag) && !scenario.flags.contains(&flag) {
                return Err(format!("{name} takes no flag {flag:?}"));
            }
            if given.iter().any(|g| g == flag) {
                return Err(format!("{flag} given twice"));
            }
            given.push(flag.to_string());
            if flag == "--quick" {
                if inline.is_some() {
                    return Err("--quick takes no value".into());
                }
                opts.quick = true;
                continue;
            }
            // A following `--flag` is the next flag, not this one's value
            // (`--stream -` stays valid: one dash), and an empty value
            // (`--json=`) is a forgotten one.
            let value = inline
                .or_else(|| args.next().filter(|v| !v.starts_with("--")))
                .filter(|v| !v.is_empty())
                .ok_or_else(|| format!("{flag} requires a value"))?;
            match flag {
                "--json" => opts.json = Some(PathBuf::from(value)),
                "--stream" => opts.stream = Some(value),
                "--stream-interval" => match value.parse::<u64>().ok().and_then(|n| n.checked_mul(US)) {
                    Some(ps) if ps > 0 => opts.stream_interval = ps,
                    _ => return Err(format!("--stream-interval takes microseconds > 0, got {value:?}")),
                },
                "--faults" => match FaultPlan::parse(&value) {
                    Ok(plan) => opts.faults = Some(plan),
                    Err(e) => return Err(format!("invalid --faults spec {value:?}: {e}")),
                },
                "--topo" => match TopoKind::parse(&value) {
                    Some(kind) => opts.topo = Some(kind),
                    None => return Err(format!("unknown --topo {value:?} (expected dv, fattree, or minpath)")),
                },
                _ => unreachable!("{name} lists {flag}, which the front end does not parse"),
            }
        }
        Ok((scenario, opts))
    }
}
