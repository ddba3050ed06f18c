//! Simulator-throughput smoke test: the perf trajectory artifact.
//!
//! Measures the cycle-accurate switch's cycles/sec and packets/sec on a
//! saturated uniform replay, and reports the two figures the CI
//! trajectory gate tracks (`dv-report --gate <current> <previous>`, > 10 %
//! drop fails):
//!
//! * **64 ports (H=16, A=4)** — the narrow kernel, for both the optimized
//!   zero-allocation hot path (`SwitchSim`, the `arena+worklist` row) and
//!   the frozen pre-refactor reference (`ReferenceSwitchSim`), with the
//!   speedup between them;
//! * **4096 ports (H=2048, A=2)** — the batched rotating-origin kernel's
//!   absolute whole-step rate (the `wide batched` row) at the scale the
//!   paper's irregular workloads saturate.
//!
//! CI writes the result to `BENCH_switch.json` (dv-bench-v1) so every PR
//! leaves a perf data point to regress against.
//!
//! Unlike every other `BENCH_*.json`, this artifact records **wall-clock
//! host measurements** — it is deliberately *not* byte-reproducible across
//! runs or machines. Compare trends, not bytes. The deterministic half
//! (delivered counts and an order-sensitive digest of each delivered
//! stream) can be written separately with `--verify <path>`; CI `cmp`s
//! that companion across a repeat run.

use std::time::Instant;

use dv_bench::replay::{build_trace, drive, race};
use dv_bench::{f2, Opts, Report};
use dv_switch::traffic::LoadSweep;
use dv_switch::{ReferenceSwitchSim, SwitchSim, Topology};

/// Offered load: every cycle each port fires with p = 0.95.
const LOAD: f64 = 0.95;
/// Backlog bound in packets per port, as in `LoadSweep`.
const DEPTH: usize = 64;
const SEED: u64 = 0x5A7A_0064;

pub(crate) fn run(opts: &Opts, report: &mut Report) {
    let quick = opts.quick;
    let topo = Topology::new(16, 4); // 64 ports, 5 cylinders
    let ports = topo.ports();

    // The reference is given proportionally fewer cycles (it is the slow
    // one); rates normalize the comparison.
    let (ref_cycles, new_cycles) = if quick { (3_000, 30_000) } else { (20_000, 200_000) };
    let trace = build_trace(SEED, ports, new_cycles, LOAD);
    let (old, new) = race(
        5,
        (|| ReferenceSwitchSim::new(topo.clone()), ref_cycles),
        (|| SwitchSim::new(topo.clone()), new_cycles),
        DEPTH,
        &trace,
    );
    let speedup = new.cps() / old.cps();
    report.section(
        &format!("Saturated uniform sweep, {ports} ports (H=16, A=4), offered {LOAD}"),
        &["impl", "cycles", "delivered", "cycles/sec", "packets/sec"],
        vec![old.row("reference (pre-refactor)"), new.row("arena+worklist")],
    );
    report.section(
        "Hot-path speedup (arena+worklist over pre-refactor reference)",
        &["metric", "value"],
        vec![
            vec!["cycles/sec speedup".into(), f2(speedup)],
            vec!["target".into(), ">= 5.00".into()],
        ],
    );

    // Wide-path figure: the batched kernel's absolute rate, injection
    // included — what a sweep at this size actually pays per cycle.
    let wide_topo = Topology::new(2048, 2);
    let wide_ports = wide_topo.ports();
    let wide_cycles = if quick { 1_200 } else { 4_800 };
    let wide_trace = build_trace(SEED, wide_ports, wide_cycles, LOAD);
    let run = || drive(&mut SwitchSim::new(wide_topo.clone()), DEPTH, &wide_trace, wide_cycles);
    let wide = (1..5).fold(run(), |best, _| best.best(run()));
    report.section(
        &format!("Saturated uniform sweep, {wide_ports} ports (H=2048, A=2), offered {LOAD}"),
        &["impl", "cycles", "delivered", "cycles/sec", "packets/sec"],
        vec![wide.row("wide batched (rotating origin)")],
    );

    // Sweep-level wall clock: the parallel driver on the study grid.
    let loads = [0.1, 0.3, 0.5, 0.7, 0.9];
    let mut sweep = LoadSweep::new(topo);
    sweep.measure = if quick { 1_000 } else { 5_000 };
    let t0 = Instant::now();
    let serial = sweep.sweep(&loads);
    let serial_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let parallel = sweep.sweep_parallel(&loads);
    let parallel_secs = t0.elapsed().as_secs_f64();
    assert_eq!(serial, parallel, "parallel sweep diverged from serial");
    report.section(
        &format!("Load sweep wall clock, {} points, 64 ports", loads.len()),
        &["driver", "seconds", "speedup"],
        vec![
            vec!["serial".into(), format!("{serial_secs:.3}"), "1.00".into()],
            vec![
                "parallel (thread::scope)".into(),
                format!("{parallel_secs:.3}"),
                f2(serial_secs / parallel_secs),
            ],
        ],
    );

    let verify = new.verify_line(&format!("dv@{ports} load={LOAD}"))
        + &wide.verify_line(&format!("dv@{wide_ports} load={LOAD}"));
    super::write_verify(opts, &verify);
    if speedup < 5.0 {
        println!("WARNING: hot-path speedup {speedup:.2}x below the 5x target");
    }
}
