//! Scheduler-throughput smoke test: the cooperative engine's perf artifact.
//!
//! Two workloads, both pure scheduler work (pooled timer commit + resume
//! per message, no model computation), both run on both engine
//! generations at 64 and 1024 nodes:
//!
//! * **Pump** — every node drives a self-delivery send/recv loop in its
//!   own disjoint virtual-time window, so consecutive events belong to
//!   the running process. The cooperative engine commits these on the
//!   self-resume fast path (parking *is* dispatching — zero context
//!   switches); the pre-sharding engine pays its full channel round-trip
//!   (two context switches, two allocating sends) per resume regardless.
//!   This is the dispatch-throughput figure, and the one
//!   `dv-report --gate BENCH_sim.json` enforces: the cooperative engine
//!   must clear 4x the reference at 1024 nodes.
//! * **Ring** — every node sends to its right neighbor and blocks on its
//!   own port, in lockstep. Every message forces a real thread handoff
//!   on *both* engines, so this row is bounded by the host's context
//!   switch, not the event path; it is reported as the worst case but
//!   not gated (on a single-core host it measures the OS scheduler). Both
//!   node counts pass the same total number of messages.
//!
//! Like `perf_smoke` (and unlike every figure scenario), this artifact records
//! **wall-clock host measurements** — it is deliberately *not*
//! byte-reproducible across runs or machines. Compare trends, not bytes.
//! (The virtual elapsed times in the table *are* deterministic and
//! engine-invariant; only the rates vary.)

use std::sync::Arc;
use std::time::Instant;

use dv_bench::{f2, Opts, Report};
use dv_core::spec::Engine;
use dv_core::time::us;
use dv_sim::{Port, Sim};

/// Staggered self-delivery pumps: node `i` runs `msgs` send/recv cycles
/// against its own port inside the virtual window starting at
/// `i * (msgs + 16) us`, so windows never overlap and every commit's next
/// event belongs to the process that just parked.
fn pump(engine: Engine, nodes: usize, msgs: u64) -> (u64, f64) {
    let sim = Sim::with_engine(engine);
    let window = msgs + 16;
    for me in 0..nodes {
        sim.spawn(format!("pump{me}"), move |ctx| {
            let port: Port<u64> = Port::new();
            ctx.delay(us(me as u64 * window));
            for k in 0..msgs {
                port.send_delayed(ctx, us(1), k);
                let (_, got) = port.recv(ctx);
                assert_eq!(got, k);
            }
        });
    }
    let t0 = Instant::now();
    let elapsed = sim.run();
    (elapsed, t0.elapsed().as_secs_f64())
}

/// Lockstep message ring: node `i` sends one word to node `i+1`'s port
/// and blocks on its own. Every hop is a cross-process handoff.
fn ring(engine: Engine, nodes: usize, msgs: u64) -> (u64, f64) {
    let sim = Sim::with_engine(engine);
    let ports: Arc<Vec<Port<u64>>> = Arc::new((0..nodes).map(|_| Port::new()).collect());
    for me in 0..nodes {
        let ports = Arc::clone(&ports);
        sim.spawn(format!("ring{me}"), move |ctx| {
            let next = (me + 1) % nodes;
            for k in 0..msgs {
                ports[next].send_delayed(ctx, us(1), k);
                let (_, got) = ports[me].recv(ctx);
                assert_eq!(got, k, "ring is lockstep; every hop carries the round");
            }
        });
    }
    let t0 = Instant::now();
    let elapsed = sim.run();
    (elapsed, t0.elapsed().as_secs_f64())
}

/// Best-of-REPS for one workload shape at one node count, both engines.
/// Returns table rows plus the cooperative-over-reference speedup.
fn measure(
    shape: &str,
    run: impl Fn(Engine, usize, u64) -> (u64, f64),
    nodes: usize,
    msgs: u64,
    reps: usize,
) -> (Vec<Vec<String>>, f64) {
    let mut secs = [f64::INFINITY; 2]; // [reference, cooperative]
    let mut virt = [0u64; 2];
    for _ in 0..reps {
        for (i, engine) in [Engine::Reference, Engine::Cooperative].into_iter().enumerate() {
            let (elapsed, s) = run(engine, nodes, msgs);
            virt[i] = elapsed;
            secs[i] = secs[i].min(s);
        }
    }
    assert_eq!(virt[0], virt[1], "engines disagreed on virtual elapsed time");
    let total = nodes as u64 * msgs;
    let rate = |s: f64| total as f64 / s;
    let rows = [("reference (pre-sharding)", secs[0]), ("cooperative", secs[1])]
        .into_iter()
        .map(|(name, s)| {
            vec![
                shape.into(),
                name.into(),
                nodes.to_string(),
                total.to_string(),
                virt[0].to_string(),
                f2(rate(s)),
            ]
        })
        .collect();
    (rows, rate(secs[1]) / rate(secs[0]))
}

pub(crate) fn run(opts: &Opts, report: &mut Report) {
    // The ring is sized by its total, so both node counts time the same
    // number of handoffs (at a fixed count per node the 64-node row would
    // be a < 10 ms run that mostly records host noise).
    let (pump_msgs, ring_total): (u64, u64) = if opts.quick { (100, 51_200) } else { (500, 204_800) };

    // Alternating engines each repetition so host-load transients hit
    // both; the smallest wall time estimates the unloaded rate. The
    // virtual elapsed time must agree across engines — the workloads are
    // the determinism suite's shapes, so a mismatch here means the
    // benchmark is comparing two different simulations.
    const REPS: usize = 3;
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for &nodes in &[64usize, 1024] {
        let (r, s) = measure("pump", pump, nodes, pump_msgs, REPS);
        rows.extend(r);
        speedups.push((format!("pump@{nodes}"), s));
    }
    for &nodes in &[64usize, 1024] {
        let (r, s) = measure("ring", ring, nodes, ring_total / nodes as u64, REPS);
        rows.extend(r);
        speedups.push((format!("ring@{nodes}"), s));
    }
    report.section(
        &format!("Scheduler throughput, {pump_msgs} pump msgs per node / {ring_total} ring msgs in total"),
        &["workload", "engine", "nodes", "messages", "virtual ps", "msgs/sec"],
        rows,
    );
    report.section(
        "Cooperative engine speedup over pre-sharding reference",
        &["workload", "speedup"],
        speedups
            .iter()
            .map(|(label, x)| vec![label.clone(), f2(*x)])
            .chain([vec!["target pump@1024".into(), ">= 4.00".into()]])
            .collect(),
    );

    let &(_, at_1024) = &speedups[1];
    assert_eq!(speedups[1].0, "pump@1024");
    if at_1024 < 4.0 {
        println!("WARNING: pump speedup {at_1024:.2}x at 1024 nodes below the 4x target");
    }
}
