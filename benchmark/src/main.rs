//! End-to-end host-time ledger for the Data Vortex reproduction.
//!
//! ```text
//! dv-benchmark [--out FILE]            every workload, untraced + traced, as child processes
//! dv-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                      one workload in this process (what the children and
//!                                      the acceptance driver run); last stdout line is JSON
//! dv-benchmark --compare base.json new.json
//! dv-benchmark --selfcheck             the whole benchmark twice; fails if the two disagree
//! ```
//!
//! See `benchmark/README.md` for the metric, workload and interaction
//! tables.

mod ledger;
mod probes;
mod procfs;
mod report;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;

use dv_core::json::Json;
use dv_core::metrics::MetricsRegistry;

use probes::Metric;
use report::{Better, END_TO_END};
use stats::Summary;
use workloads::{Checks, Inputs, Rep, RepMode, Workload};

/// Seed of the recorded baseline.
const DEFAULT_SEED: u64 = 20_170_529;
/// Held-out seed: a claim made while looking at [`DEFAULT_SEED`] must
/// also hold here.
const HELD_OUT_SEED: u64 = 4_242;
/// Measurement window per run when `--seconds` is not given (the value
/// frozen as `run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 28;
/// Fewest timed repetitions of an untraced run, whatever `--seconds` says.
const MIN_REPS: usize = 5;
/// Fewest untraced/traced repetition pairs of a traced run.
const MIN_TRACE_PAIRS: usize = 3;
/// Prefix of the stdout line that carries a child's full result.
const DETAIL_PREFIX: &str = "detail-json: ";

enum Mode {
    Run,
    Compare(PathBuf, PathBuf),
    Selfcheck,
}

struct Args {
    mode: Mode,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: dv-benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       dv-benchmark --compare BASE.json NEW.json\n       dv-benchmark --selfcheck [--seed N] [--seconds S]\nbaseline seeds: {DEFAULT_SEED} (default) and {HELD_OUT_SEED} (held out)",
        Workload::ALL.map(Workload::name).join("|")
    )
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Run,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=120).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 120".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(value()?.into()),
            "--compare" => args.mode = Mode::Compare(value()?.into(), value()?.into()),
            "--selfcheck" => args.mode = Mode::Selfcheck,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Result of one workload run in this process.
struct RunOutcome {
    /// Everything measured, for the result file.
    detail: Json,
    /// The metrics the acceptance contract asks of this run.
    contract: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::F64(m.value)),
                        ("unit".into(), Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// One workload's inputs, its validated warm-up, and the checks so far:
/// what both kinds of run start from.
struct Prepared {
    workload: Workload,
    seed: u64,
    inputs: Inputs,
    /// Seconds each set-up so far took.
    setup_s: Vec<f64>,
    /// The warm-up repetition (one shard, full validation).
    warm: Rep,
    checks: Checks,
}

impl Prepared {
    /// Run one more repetition in `mode`, fold its checks in, and add one:
    /// it must reproduce the warm-up's simulated results bit for bit (the
    /// warm-up ran on one shard, this one on auto).
    fn rep(&mut self, mode: &RepMode, what: &str) -> Rep {
        let mut rep = workloads::run_rep(&self.inputs, mode);
        self.checks.absorb(std::mem::take(&mut rep.checks));
        let warm = &self.warm;
        self.checks
            .check(rep.digest == warm.digest && rep.ops == warm.ops, || {
                format!(
                "{what}: sim_digest {:016x} / {} ops differ from the warm-up's {:016x} / {} ops",
                rep.digest, rep.ops, warm.digest, warm.ops
            )
            });
        rep
    }
}

/// Untraced run: timed repetitions for `seconds` (at least [`MIN_REPS`]),
/// each followed by one more timed set-up. Prints and returns every
/// end-to-end metric's summary, and the best values (see `stats`) of those
/// the acceptance contract lists.
fn timed_run(p: &mut Prepared, seconds: u64) -> (Vec<(String, Json)>, Vec<Metric>) {
    let (mut wall_s, mut cpu_s, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss_mb = 0.0;
    let start = Instant::now();
    while wall_s.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds as f64 {
        let rep = p.rep(&RepMode::default(), "timed repetition");
        wall_s.push(rep.wall_s);
        cpu_s.push(rep.cpu_s);
        rate.push(rep.ops as f64 / rep.wall_s);
        // The allocator keeps what finished simulations freed, so the
        // high-water mark creeps up with every repetition (+20 MiB each
        // on bulk_regular) and the repetition count depends on the
        // host's speed. Read it after a fixed amount of work instead:
        // set-up, the warm-up and one repetition.
        if wall_s.len() == 1 {
            peak_rss_mb = procfs::peak_rss_mb();
        }
        // One more set-up after every repetition, so that the set-ups are
        // spread over the whole run like the repetitions are: the host's
        // slow spells last seconds, and set-ups taken back to back at the
        // start would all sit inside one or all outside.
        p.setup_s.push(timed_setup(p.workload, p.seed).1);
    }
    let fail_frac = p.checks.failures.len() as f64 / p.checks.attempted as f64;
    let samples = |name: &str| -> Vec<f64> {
        match name {
            "wall_s" => wall_s.clone(),
            "app_ops_per_s" => rate.clone(),
            "cpu_s" => cpu_s.clone(),
            "peak_rss_mb" => vec![peak_rss_mb],
            "virt_time_ms" => vec![p.warm.virt_ms],
            "setup_s" => p.setup_s.clone(),
            "fail_frac" => vec![fail_frac],
            other => unreachable!("end-to-end metric {other} has no samples"),
        }
    };
    println!(
        "  {} timed repetitions after 1 validated warm-up, {} set-ups; one op = one of: {}",
        wall_s.len(),
        p.setup_s.len(),
        p.workload.ops_unit()
    );
    let mut summaries = vec![("reps".to_string(), Json::U64(wall_s.len() as u64))];
    let mut end_to_end = Vec::new();
    let mut listed = Vec::new();
    for metric in &END_TO_END {
        let s = Summary::of(&samples(metric.name));
        let resolved = s.spread(metric.better) <= metric.bound;
        println!(
            "  {:<14} {:>16.6} {:<6} best of {:<3} min {:.6}  q1 {:.6}  median {:.6}  q3 {:.6}  max {:.6}  spread {:.2}% of best, bound {:.1}%{}",
            metric.name,
            s.best(metric.better),
            metric.unit,
            s.n,
            s.min,
            s.q1,
            s.median,
            s.q3,
            s.max,
            100.0 * s.spread(metric.better),
            100.0 * metric.bound,
            if resolved { "" } else { "  UNRESOLVED: spread exceeds bound" }
        );
        end_to_end.push((metric.name.to_string(), s.to_json()));
        if metric.in_contract {
            listed.push(Metric::new(metric.name, metric.unit, s.best(metric.better)));
        }
    }
    summaries.push(("end_to_end".into(), Json::Obj(end_to_end)));
    (summaries, listed)
}

/// Traced run: pairs of (untraced, traced) repetitions for a third of
/// `seconds` (at least [`MIN_TRACE_PAIRS`]; the probe set, fixed work,
/// takes about the rest on the reference host), then the probes and the
/// ledger. Prints and returns every per-layer metric.
fn traced_run(p: &mut Prepared, seconds: u64) -> Vec<Metric> {
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut counts: Option<Vec<Metric>> = None;
    let start = Instant::now();
    while plain_s.len() < MIN_TRACE_PAIRS || start.elapsed().as_secs_f64() < seconds as f64 / 3.0 {
        plain_s.push(p.rep(&RepMode::default(), "untraced repetition").wall_s);
        let registry = Arc::new(MetricsRegistry::enabled());
        let mode = RepMode {
            metrics: Some(Arc::clone(&registry)),
            ..RepMode::default()
        };
        traced_s.push(p.rep(&mode, "traced repetition").wall_s);
        let now = ledger::counts(&registry.snapshot());
        if let Some(before) = &counts {
            p.checks.check(*before == now, || {
                "per-layer counts differ between two traced repetitions".into()
            });
        }
        counts = Some(now);
    }
    let mut per_layer = counts.expect("at least one traced repetition");
    let probe_values = probes::run_all();
    // Best repetitions, as in the untraced run.
    let plain_wall = Summary::of(&plain_s).min;
    let overhead = (Summary::of(&traced_s).min - plain_wall) / plain_wall;
    let rows = ledger::ledger(p.workload, &per_layer, &probe_values, plain_wall);
    per_layer.extend(probe_values);
    per_layer.push(Metric::new(
        "dv-core.metrics_overhead_frac",
        "ratio",
        overhead,
    ));
    per_layer.push(Metric::new("sim.virt_time_ms", "ms", p.warm.virt_ms));
    per_layer.extend(rows);
    for m in &per_layer {
        println!("  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let residual = probes::value_of(&per_layer, "ledger.unattributed_frac");
    let (lo, hi) = ledger::RESIDUAL_BAND;
    if !(lo..=hi).contains(&residual) {
        println!(
            "  ledger does not close: {residual:.3} of wall_s is outside [{lo}, {hi}] (informational)"
        );
    }
    per_layer
}

/// Generate `workload`'s inputs and say how many seconds that took.
fn timed_setup(workload: Workload, seed: u64) -> (Inputs, f64) {
    let t0 = Instant::now();
    let inputs = workloads::setup(workload, seed);
    (inputs, t0.elapsed().as_secs_f64())
}

/// Run one workload in this process, pinned to one CPU: set-up, one
/// validated warm-up repetition, then a timed or a traced run.
fn run_one(workload: Workload, seed: u64, seconds: u64, trace: bool) -> RunOutcome {
    let pinned = procfs::pin_to_one_cpu();
    let (inputs, first_setup_s) = timed_setup(workload, seed);
    let mut warm = workloads::run_rep(
        &inputs,
        &RepMode {
            shards: 1,
            validate: true,
            metrics: None,
        },
    );
    let checks = std::mem::take(&mut warm.checks);
    let mut p = Prepared {
        workload,
        seed,
        inputs,
        setup_s: vec![first_setup_s],
        warm,
        checks,
    };

    println!(
        "== {}  seed {seed}  trace {}  {}",
        workload.name(),
        u8::from(trace),
        pinned.map_or_else(
            || "NOT PINNED to one cpu: times include cross-cpu wake-ups".to_string(),
            |cpu| format!("pinned to cpu {cpu}")
        )
    );
    let mut detail = vec![
        ("workload".to_string(), Json::str(workload.name())),
        ("seed".to_string(), Json::U64(seed)),
        ("trace".to_string(), Json::Bool(trace)),
        (
            "pinned_cpu".to_string(),
            pinned.map_or(Json::Null, |cpu| Json::U64(cpu as u64)),
        ),
        (
            "sim_digest".to_string(),
            Json::str(format!("{:016x}", p.warm.digest)),
        ),
        ("ops_per_rep".to_string(), Json::U64(p.warm.ops)),
    ];
    let contract = if trace {
        let per_layer = traced_run(&mut p, seconds);
        detail.push(("per_layer".into(), metrics_json(&per_layer)));
        per_layer
    } else {
        let (summaries, listed) = timed_run(&mut p, seconds);
        detail.extend(summaries);
        listed
    };

    let (attempted, failed) = (p.checks.attempted, p.checks.failures.len() as u64);
    println!("  sim_digest     {:016x}", p.warm.digest);
    println!("  ops_attempted  {attempted}   ops_failed  {failed}");
    for f in &p.checks.failures {
        println!("  FAILED: {f}");
    }
    detail.push(("ops_attempted".into(), Json::U64(attempted)));
    detail.push(("ops_failed".into(), Json::U64(failed)));
    RunOutcome {
        detail: Json::Obj(detail),
        contract,
        attempted,
        failed,
    }
}

/// The acceptance contract's result line.
fn contract_line(outcome: &RunOutcome) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.failed == 0)),
        ("attempted".into(), Json::U64(outcome.attempted)),
        ("failed".into(), Json::U64(outcome.failed)),
        ("metrics".into(), metrics_json(&outcome.contract)),
    ])
    .render()
}

/// Run `workload` in a child process (so CPU time and peak RSS are its
/// own), pass its report through, and return its detail JSON.
fn run_child(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child for {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    let lines: Vec<&str> = stdout.lines().collect();
    // The last line is the contract's JSON; the report shows the rest.
    for line in &lines[..lines.len().saturating_sub(1)] {
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(json) => {
                detail = Some(Json::parse(json).map_err(|e| format!("child detail: {e}"))?)
            }
            None => println!("{line}"),
        }
    }
    let detail =
        detail.ok_or_else(|| format!("child for {} printed no result", workload.name()))?;
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}) failed its checks",
            workload.name(),
            u8::from(trace)
        ));
    }
    Ok(detail)
}

/// Run every workload untraced and traced, each in a child process, and
/// assemble the result file.
fn collect(seed: u64, seconds: u64) -> Result<Json, String> {
    let host = procfs::host_facts();
    println!("host: {}", host.render());
    let mut entries = Vec::new();
    for workload in Workload::ALL {
        let plain = run_child(workload, seed, seconds, false)?;
        let traced = run_child(workload, seed, seconds, true)?;
        let field = |j: &Json, key: &str| {
            j.get(key)
                .cloned()
                .ok_or_else(|| format!("child result lacks {key}"))
        };
        if field(&plain, "sim_digest")? != field(&traced, "sim_digest")? {
            return Err(format!(
                "{}: traced and untraced runs disagree on sim_digest",
                workload.name()
            ));
        }
        let sum = |key: &str| {
            let count = |j: &Json| j.get(key).and_then(Json::as_u64).unwrap_or(0);
            Json::U64(count(&plain) + count(&traced))
        };
        entries.push(Json::Obj(vec![
            ("name".into(), Json::str(workload.name())),
            ("why".into(), Json::str(workload.why())),
            ("pinned_cpu".into(), field(&plain, "pinned_cpu")?),
            ("reps".into(), field(&plain, "reps")?),
            ("ops_per_rep".into(), field(&plain, "ops_per_rep")?),
            ("ops_attempted".into(), sum("ops_attempted")),
            ("ops_failed".into(), sum("ops_failed")),
            ("sim_digest".into(), field(&plain, "sim_digest")?),
            ("end_to_end".into(), field(&plain, "end_to_end")?),
            ("per_layer".into(), field(&traced, "per_layer")?),
        ]));
    }
    Ok(Json::Obj(vec![
        ("schema".into(), Json::str(report::SCHEMA)),
        ("seed".into(), Json::U64(seed)),
        ("seconds".into(), Json::U64(seconds)),
        ("host".into(), host),
        ("workloads".into(), Json::Arr(entries)),
    ]))
}

fn read_result(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print the comparison and say whether nothing regressed, went
/// unresolved or differed.
fn print_comparison(base: &Json, new: &Json) -> Result<bool, String> {
    let rows = report::compare(base, new)?;
    print!("{}", report::render_rows(&rows));
    for m in &END_TO_END {
        let dir = if m.better == Better::Lower {
            "lower"
        } else {
            "higher"
        };
        println!(
            "  bound {:<14} {:>5.1}%  ({dir} is better)",
            m.name,
            100.0 * m.bound
        );
    }
    Ok(rows.iter().all(|r| !r.bad))
}

fn run(args: Args) -> Result<bool, String> {
    match args.mode {
        Mode::Compare(base, new) => print_comparison(&read_result(&base)?, &read_result(&new)?),
        Mode::Selfcheck => {
            let first = collect(args.seed, args.seconds)?;
            let second = collect(args.seed, args.seconds)?;
            let agree = print_comparison(&first, &second)?;
            println!(
                "selfcheck: {}",
                if agree {
                    "the two runs agree"
                } else {
                    "THE TWO RUNS DISAGREE"
                }
            );
            Ok(agree)
        }
        Mode::Run => {
            if let Some(workload) = args.workload {
                // One workload in this process: the driver's entry point
                // and what `collect` spawns.
                if args.out.is_some() {
                    return Err("--out belongs to a whole-benchmark run, not to --workload".into());
                }
                let outcome = run_one(workload, args.seed, args.seconds, args.trace);
                println!("{DETAIL_PREFIX}{}", outcome.detail.render());
                println!("{}", contract_line(&outcome));
                return Ok(outcome.failed == 0);
            }
            let result = collect(args.seed, args.seconds)?;
            if let Some(path) = &args.out {
                if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                }
                std::fs::write(path, result.render_pretty())
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                println!("wrote {}", path.display());
            }
            println!("all workloads ran, every check passed (fail_frac = 0)");
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contract_file() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(
            &std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root"),
        )
        .expect("BENCHMARK.json is valid JSON")
    }

    fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
        j.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {}", j.render()))
    }

    #[test]
    fn contract_file_lists_the_workloads_and_end_to_end_table() {
        let file = contract_file();
        let workloads: Vec<(&str, &str)> = file
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| (w.name(), w.why())));
        assert_eq!(
            file.get("run_seconds").and_then(Json::as_u64),
            Some(DEFAULT_SECONDS)
        );

        let listed = file
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        let expected: Vec<&report::EndToEnd> =
            END_TO_END.iter().filter(|m| m.in_contract).collect();
        assert_eq!(listed.len(), expected.len());
        for (j, m) in listed.iter().zip(expected) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(
                str_of(j, "better"),
                if m.better == Better::Lower {
                    "lower"
                } else {
                    "higher"
                }
            );
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn contract_file_lists_every_count_and_ledger_row() {
        let file = contract_file();
        let listed: Vec<(&str, &str)> = file
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer")
            .iter()
            .map(|m| (str_of(m, "name"), str_of(m, "unit")))
            .collect();
        let counts = ledger::counts(&Default::default());
        for m in &counts {
            assert!(
                listed.contains(&(m.name.as_str(), m.unit)),
                "{} missing from BENCHMARK.json",
                m.name
            );
        }
        for name in [
            "ledger.dv-sim_s",
            "ledger.unattributed_frac",
            "dv-core.metrics_overhead_frac",
            "sim.virt_time_ms",
        ] {
            assert!(
                listed.iter().any(|(n, _)| *n == name),
                "{name} missing from BENCHMARK.json"
            );
        }
        let layers = [
            "dv-sim.",
            "dv-api.",
            "dv-vic.",
            "mini-mpi.",
            "dv-switch.",
            "dv-kernels.",
            "dv-apps.",
            "dv-core.",
            "ledger.",
            "sim.",
        ];
        for (name, _) in &listed {
            assert!(
                layers.iter().any(|l| name.starts_with(l)),
                "{name} names no layer"
            );
        }
    }

    #[test]
    fn arguments_parse_in_the_drivers_order() {
        let argv = [
            "--workload",
            "switch_sweep",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ];
        let args = parse_args(argv.iter().map(|s| s.to_string())).expect("valid");
        assert_eq!(args.workload, Some(Workload::SwitchSweep));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3, true));
        assert!(parse_args(["--trace", "yes"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_args(["--workload", "nope"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_args(["--seed"].iter().map(|s| s.to_string())).is_err());
    }
}
