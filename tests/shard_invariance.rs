//! Shard-count invariance: the sharded engine's defining contract.
//!
//! The engine commits events in global `(time, seq)` order regardless of
//! how the pending queues are sharded, so the `OrderAudit` trace hash,
//! every result, every metrics counter, and every dv-events-v1 telemetry
//! byte must be identical at shards ∈ {1, 2, 4} — and identical to the
//! frozen pre-sharding reference engine. Clean runs and seeded chaos runs
//! both. If any of these tests fail, the sharded engine is not a
//! scheduler optimization anymore; it is a different simulator.

use std::sync::Arc;

use datavortex::api::{DvCluster, SendMode};
use datavortex::apps::heat::{self, HeatConfig};
use datavortex::apps::snap::{self, SnapConfig};
use datavortex::apps::vorticity::{dist as vort, VortConfig};
use datavortex::core::fault::FaultPlan;
use datavortex::core::metrics::MetricsRegistry;
use datavortex::core::packet::SCRATCH_GC;
use datavortex::core::spec::{Engine, SimSpec};
use datavortex::core::time::{us, Time};
use datavortex::core::trace::Tracer;
use datavortex::kernels::fft::{twod, Complex};
use datavortex::kernels::gups::{self, GupsConfig};
use datavortex::mpi::{MpiCluster, Payload, ReduceOp};

const SHARD_COUNTS: &[usize] = &[1, 2, 4];

/// A Data Vortex workload with plenty of interleaving opportunity:
/// barriers, FIFO ring traffic, and DMA sends (the `tests/determinism.rs`
/// workload, parameterized by engine and shard count).
fn dv_workload(spec: SimSpec) -> (Time, u64, Vec<Time>) {
    let nodes = spec.nodes;
    let report = DvCluster::from_spec(spec).run(move |dv, ctx| {
        for round in 0..3u64 {
            dv.fast_barrier(ctx);
            dv.send_fifo(
                ctx,
                (dv.node() + 1) % nodes,
                &[dv.node() as u64 * 100 + round],
                SCRATCH_GC,
                SendMode::Dma { cached_headers: true },
            );
            let _ = dv.fifo_recv(ctx);
        }
        ctx.now()
    });
    (report.elapsed, report.trace_hash, report.result)
}

/// An MPI workload mixing point-to-point and collectives.
fn mpi_workload(spec: SimSpec) -> (Time, u64, Vec<u64>) {
    let report = MpiCluster::from_spec(spec).run(|comm, ctx| {
        let mine = Payload::U64(vec![comm.rank() as u64]);
        let sum = comm.allreduce(ctx, ReduceOp::Sum, mine).into_u64()[0];
        comm.barrier(ctx);
        sum
    });
    (report.elapsed, report.trace_hash, report.result)
}

/// A two-node chaos workload under link drop/dup faults whose trace hash
/// and per-node results are compared across engines.
fn faulted_workload(spec: SimSpec) -> (Time, u64, Vec<u64>) {
    let plan = FaultPlan::parse("seed=5,drop=0.1,dup=0.1").expect("valid fault spec");
    let report = DvCluster::from_spec(spec.faults(plan)).run(move |dv, ctx| {
        if dv.node() == 0 {
            let words: Vec<u64> = (0..512).collect();
            dv.send_fifo(ctx, 1, &words, SCRATCH_GC, SendMode::Dma { cached_headers: true });
            ctx.delay(us(500));
            0
        } else {
            ctx.delay(us(1000));
            dv.fifo_drain(ctx, usize::MAX).len() as u64
        }
    });
    (report.elapsed, report.trace_hash, report.result)
}

/// An engine-level workload built on hops: every process fuses its delays
/// with `delay2`, and every message is consumed by a port arrival handler
/// that wakes the receiver through `Kernel::wake_after` — the two ways
/// mini-mpi uses them. Delays collide on purpose, so ties are everywhere.
fn hop_workload(engine: Engine, shards: usize) -> (Time, u64, Vec<Vec<Time>>) {
    use datavortex::sim::{JoinSlot, Port, Sim, Waker};
    const PROCS: usize = 5;
    let sim = Sim::with_engine(engine, shards);
    /// The receiver's waker if it is parked, and how many messages beat it.
    type Parked = Arc<std::sync::Mutex<(Option<Waker>, u32)>>;
    let parked: Vec<Parked> = (0..PROCS).map(|_| Parked::default()).collect();
    let ports: Vec<Port<u64>> = parked
        .iter()
        .map(|slot| {
            let slot = Arc::clone(slot);
            Port::with_handler(move |k, at, _word| {
                let mut slot = slot.lock().unwrap();
                match slot.0.take() {
                    Some(w) => k.wake_after(at, w, us(2)),
                    None => slot.1 += 1,
                }
                None
            })
        })
        .collect();
    let seen: Vec<JoinSlot<Vec<Time>>> = (0..PROCS).map(|_| JoinSlot::new()).collect();
    for me in 0..PROCS {
        let (ports, slot, out) = (ports.clone(), Arc::clone(&parked[me]), seen[me].clone());
        sim.spawn(format!("p{me}"), move |ctx| {
            let mut at = Vec::new();
            for round in 0..6u64 {
                ctx.delay2(us(1 + (me as u64 + round) % 2), us(1 + round % 3));
                at.push(ctx.now());
                ports[(me + 1) % PROCS].send_delayed(ctx, us(1 + round % 2), round);
                let waker = ctx.waker();
                let early = {
                    let mut slot = slot.lock().unwrap();
                    let early = slot.1 > 0;
                    if early {
                        slot.1 -= 1;
                    } else {
                        slot.0 = Some(waker);
                    }
                    early
                };
                if early {
                    ctx.delay(us(2));
                } else {
                    ctx.park();
                }
                at.push(ctx.now());
            }
            out.put(at);
        });
    }
    let (elapsed, hash) = sim.run_hashed();
    (elapsed, hash, seen.iter().map(|s| s.take().expect("process finished")).collect())
}

#[test]
fn hop_trace_hash_is_engine_and_shard_count_invariant() {
    let reference = hop_workload(Engine::Reference, 1);
    assert!(reference.0 > 0);
    for shards in [1usize, 2, 7] {
        assert_eq!(hop_workload(Engine::Sharded, shards), reference, "shards={shards}");
    }
}

#[test]
fn dv_trace_hash_is_shard_count_invariant() {
    let baseline = dv_workload(SimSpec::new(8).shards(1));
    for &shards in &SHARD_COUNTS[1..] {
        let got = dv_workload(SimSpec::new(8).shards(shards));
        assert_eq!(got, baseline, "shards={shards} diverged from shards=1");
    }
}

#[test]
fn dv_sharded_matches_the_frozen_reference_engine() {
    let reference = dv_workload(SimSpec::new(8).engine(Engine::Reference));
    for &shards in SHARD_COUNTS {
        let got = dv_workload(SimSpec::new(8).shards(shards));
        assert_eq!(
            got, reference,
            "sharded engine (shards={shards}) diverged from the reference engine"
        );
    }
}

#[test]
fn mpi_trace_hash_is_shard_count_invariant() {
    let reference = mpi_workload(SimSpec::new(6).engine(Engine::Reference));
    for &shards in SHARD_COUNTS {
        let got = mpi_workload(SimSpec::new(6).shards(shards));
        assert_eq!(got, reference, "shards={shards}");
    }
}

#[test]
fn chaos_trace_hash_is_shard_count_invariant() {
    // Fault injection must not open a shard-count channel: the plan keys
    // off packet sequence numbers, which the total-order commit fixes.
    let reference = faulted_workload(SimSpec::new(2).engine(Engine::Reference));
    assert!(reference.2[1] > 0, "the faulted run must still deliver data");
    for &shards in SHARD_COUNTS {
        let got = faulted_workload(SimSpec::new(2).shards(shards));
        assert_eq!(got, reference, "shards={shards}");
    }
}

/// A fully instrumented GUPS chaos run; returns (checksum, metrics hash).
fn gups_chaos(spec: SimSpec) -> (u64, u64) {
    let cfg =
        GupsConfig { table_per_node: 1 << 9, updates_per_node: 1 << 10, bucket: 512, stream_offset: 0 };
    let plan = FaultPlan::parse("seed=7,fifodrop=0.02").expect("valid fault spec");
    let metrics = Arc::new(MetricsRegistry::enabled());
    let r = gups::dv::run_spec(
        cfg,
        spec.faults(plan).metrics(Arc::clone(&metrics)).tracer(Arc::new(Tracer::enabled())),
    );
    (r.checksum, metrics.snapshot().fnv_hash())
}

#[test]
fn gups_chaos_metrics_are_shard_count_invariant() {
    // End to end: recovery-layer retransmissions, VIC fault counters, and
    // the final table are all byte-identical across engines and shards.
    let reference = gups_chaos(SimSpec::new(4).engine(Engine::Reference));
    for &shards in SHARD_COUNTS {
        let got = gups_chaos(SimSpec::new(4).shards(shards));
        assert_eq!(got, reference, "shards={shards}");
    }
}

/// Run an instrumented GUPS with a virtual-time series attached and a
/// sink that concatenates every sample line — the body of a dv-events-v1
/// stream (header and end lines are static given the sample lines, so
/// body identity ⟺ stream identity).
fn streamed_gups(spec: SimSpec, faults: Option<FaultPlan>) -> String {
    let cfg =
        GupsConfig { table_per_node: 1 << 9, updates_per_node: 1 << 10, bucket: 512, stream_offset: 0 };
    let metrics = Arc::new(MetricsRegistry::enabled());
    metrics.attach_series(us(1), 4096);
    let lines = Arc::new(std::sync::Mutex::new(String::new()));
    let sink = Arc::clone(&lines);
    metrics.set_series_sink(move |s| {
        let mut out = sink.lock().unwrap();
        out.push_str(&s.to_json().render());
        out.push('\n');
    });
    let spec = spec
        .faults_opt(faults)
        .metrics(Arc::clone(&metrics))
        .tracer(Arc::new(Tracer::enabled()));
    let r = gups::dv::run_spec(cfg, spec);
    metrics.finish_series(r.elapsed);
    let out = lines.lock().unwrap().clone();
    out
}

#[test]
fn telemetry_streams_are_shard_count_invariant() {
    let reference = streamed_gups(SimSpec::new(4).engine(Engine::Reference), None);
    assert!(!reference.is_empty(), "the run must produce interval samples");
    for &shards in SHARD_COUNTS {
        let got = streamed_gups(SimSpec::new(4).shards(shards), None);
        assert_eq!(got, reference, "dv-events stream diverged at shards={shards}");
    }
}

#[test]
fn chaos_telemetry_streams_are_shard_count_invariant() {
    let plan = FaultPlan::parse("seed=7,fifodrop=0.02").expect("valid fault spec");
    let reference =
        streamed_gups(SimSpec::new(4).engine(Engine::Reference), Some(plan.clone()));
    assert!(!reference.is_empty());
    for &shards in SHARD_COUNTS {
        let got = streamed_gups(SimSpec::new(4).shards(shards), Some(plan.clone()));
        assert_eq!(got, reference, "chaos dv-events stream diverged at shards={shards}");
    }
    // Sensitivity: the faults must actually leave a mark in the stream.
    assert_ne!(
        reference,
        streamed_gups(SimSpec::new(4).engine(Engine::Reference), None),
        "fault injection left no trace in the stream"
    );
}

#[test]
fn shard_counts_beyond_the_node_count_still_agree() {
    // Shards is a scheduler knob, not a topology: more shards than nodes
    // (and a prime count) must change nothing.
    let baseline = dv_workload(SimSpec::new(4).shards(1));
    for shards in [3usize, 7, 16] {
        assert_eq!(dv_workload(SimSpec::new(4).shards(shards)), baseline, "shards={shards}");
    }
}

/// The entry points that only became spec-aware with the one-door
/// cleanup, each reduced to `(elapsed, result bits)` and told which
/// counter family its backend must have published.
type Door = (&'static str, usize, &'static str, fn(SimSpec) -> (Time, Vec<u64>));

fn f64_bits(fields: Vec<Vec<f64>>) -> Vec<u64> {
    fields.into_iter().flatten().map(f64::to_bits).collect()
}

fn c64_bits(fields: &[Vec<Complex>]) -> Vec<u64> {
    fields.iter().flatten().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]).collect()
}

const NEW_DOORS: &[Door] = &[
    ("fft::twod/dv", 4, "api.net.packets", |spec| {
        let r = twod::run_dv(32, spec);
        (r.elapsed, c64_bits(&r.local_out))
    }),
    ("fft::twod/mpi", 4, "mpi.bytes", |spec| {
        let r = twod::run_mpi(32, spec);
        (r.elapsed, c64_bits(&r.local_out))
    }),
    ("vorticity/dv", 4, "api.net.packets", |spec| {
        let r = vort::run_dv(VortConfig { m: 32, dt: 1e-3, steps: 1 }, spec);
        (r.elapsed, c64_bits(&r.omega_hat))
    }),
    ("vorticity/mpi", 4, "mpi.bytes", |spec| {
        let r = vort::run_mpi(VortConfig { m: 32, dt: 1e-3, steps: 1 }, spec);
        (r.elapsed, c64_bits(&r.omega_hat))
    }),
    ("snap/dv", 4, "api.net.packets", |spec| {
        let r = snap::dv::run_spec(SnapConfig::test_small(), spec);
        (r.elapsed, f64_bits(r.fields))
    }),
    ("snap/mpi", 4, "mpi.bytes", |spec| {
        let r = snap::mpi::run_spec(SnapConfig::test_small(), spec);
        (r.elapsed, f64_bits(r.fields))
    }),
    ("heat/mpi", 8, "mpi.bytes", |spec| {
        let r = heat::mpi::run_spec(HeatConfig::test_small(), spec);
        (r.elapsed, f64_bits(r.fields))
    }),
];

#[test]
fn newly_spec_aware_doors_honour_metrics_shards_and_engine() {
    for &(name, nodes, counter, run) in NEW_DOORS {
        let metrics = Arc::new(MetricsRegistry::enabled());
        let reference =
            run(SimSpec::new(nodes).engine(Engine::Reference).metrics(Arc::clone(&metrics)));
        let snap = metrics.snapshot();
        assert!(snap.counter_total(counter) > 0, "{name}: {counter} not published");
        assert!(snap.counter_total("sim.sched.resumes") > 0, "{name}: scheduler not published");
        for shards in [1usize, 4] {
            assert_eq!(run(SimSpec::new(nodes).shards(shards)), reference, "{name} shards={shards}");
        }
    }
}
