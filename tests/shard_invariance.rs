//! Pinned traces: the cooperative engine's defining contract.
//!
//! The engine commits events in `(time, seq)` order, so the `OrderAudit`
//! trace hash, every result, every metrics counter, and every dv-events-v1
//! telemetry byte of these workloads are constants. Clean runs and seeded
//! chaos runs both. If any of these tests fail, the engine is not a
//! scheduler optimization anymore; it is a different simulator.
//!
//! Every pin is what the frozen pre-sharding scheduler returned. The
//! `PINNED_*` constants were captured from it at commit ad04f41, whose
//! default engine merged up to 16 per-shard heaps; the stream hashes and
//! `NEW_DOORS`' pins were captured from it just before it was deleted.
//! Only a PR that changes the model on purpose may edit them.
//!
//! The file and its `*_shard_count_invariant` tests keep the names they
//! had when the shard count was a knob.

use std::sync::Arc;

use datavortex::api::{DvCluster, SendMode};
use datavortex::apps::heat::{self, HeatConfig};
use datavortex::apps::snap::{self, SnapConfig};
use datavortex::apps::vorticity::{dist as vort, VortConfig};
use datavortex::core::fault::FaultPlan;
use datavortex::core::fnv::Fnv1a;
use datavortex::core::metrics::MetricsRegistry;
use datavortex::core::packet::SCRATCH_GC;
use datavortex::core::spec::SimSpec;
use datavortex::core::time::{us, Time};
use datavortex::core::trace::Tracer;
use datavortex::kernels::fft::{twod, Complex};
use datavortex::kernels::gups::{self, GupsConfig};
use datavortex::mpi::{MpiCluster, Payload, ReduceOp};

/// `(elapsed, trace_hash)` of the first four workloads below.
const PINNED_HOP: (Time, u64) = (44_000_000, 0x896e_df26_c745_da5e);
const PINNED_DV: (Time, u64) = (4_366_914, 0xdfdf_3227_8213_ad51);
const PINNED_MPI: (Time, u64) = (12_975_033, 0x0b13_7b62_a4f4_56b8);
const PINNED_FAULTED: (Time, u64) = (1_001_158_889, 0x8431_0f83_0b99_f80f);
/// `(checksum, metrics hash)` of `gups_chaos`.
const PINNED_GUPS_CHAOS: (u64, u64) = (0xffff_ffff_ffff_fff3, 0x790c_b7ef_5fb5_5a50);
/// [`stream_hash`] of `streamed_gups` without and with its fault plan.
const PINNED_STREAM: u64 = 0x75bb_1976_bdf4_ab91;
const PINNED_CHAOS_STREAM: u64 = 0x575f_0ef1_25bb_59aa;

/// A Data Vortex workload with plenty of interleaving opportunity:
/// barriers, FIFO ring traffic, and DMA sends (the `tests/determinism.rs`
/// workload).
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

/// A two-node chaos workload under link drop/dup faults.
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
/// with `delay2`, and every message is a state event of a test
/// `KernelState` that consumes it and wakes the receiver through
/// `Kernel::wake_after` — the two ways mini-mpi uses them. Delays collide
/// on purpose, so ties are everywhere.
fn hop_workload() -> (Time, u64, Vec<Vec<Time>>) {
    use datavortex::sim::{JoinSlot, Kernel, KernelState, Sim, Waker};
    const PROCS: usize = 5;
    /// Per process: its waker if it is parked, and how many messages beat it.
    struct Parked(Vec<(Option<Waker>, u32)>);
    impl KernelState for Parked {
        /// A message lands at process `token`.
        fn fire(&mut self, k: &mut Kernel, token: u32) {
            let slot = &mut self.0[token as usize];
            match slot.0.take() {
                Some(w) => k.wake_after(k.now(), w, us(2)),
                None => slot.1 += 1,
            }
        }
    }
    let sim = Sim::new();
    sim.with_kernel(|k| k.install(Parked(vec![(None, 0); PROCS])));
    let seen: Vec<JoinSlot<Vec<Time>>> = (0..PROCS).map(|_| JoinSlot::new()).collect();
    for (me, out) in seen.iter().enumerate() {
        let out = out.clone();
        sim.spawn(format!("p{me}"), move |ctx| {
            let mut at = Vec::new();
            for round in 0..6u64 {
                ctx.delay2(us(1 + (me as u64 + round) % 2), us(1 + round % 3));
                at.push(ctx.now());
                let next = ((me + 1) % PROCS) as u32;
                ctx.with_kernel(|k| k.state_at::<Parked>(k.now() + us(1 + round % 2), next));
                let early = ctx.with_kernel(|k| {
                    k.with_state(|parked: &mut Parked, k| {
                        let slot = &mut parked.0[me];
                        let early = slot.1 > 0;
                        if early {
                            slot.1 -= 1;
                        } else {
                            slot.0 = Some(k.waker_for(ctx.pid()));
                        }
                        early
                    })
                });
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
fn hop_trace_hash_matches_its_pin() {
    let (elapsed, hash, _) = hop_workload();
    assert_eq!((elapsed, hash), PINNED_HOP);
}

#[test]
fn dv_trace_hash_matches_its_pin() {
    let (elapsed, hash, _) = dv_workload(SimSpec::new(8));
    assert_eq!((elapsed, hash), PINNED_DV);
}

#[test]
fn mpi_trace_hash_is_shard_count_invariant() {
    let (elapsed, hash, _) = mpi_workload(SimSpec::new(6));
    assert_eq!((elapsed, hash), PINNED_MPI);
}

#[test]
fn chaos_trace_hash_is_shard_count_invariant() {
    // Fault injection must not open an ordering channel: the plan keys off
    // packet sequence numbers, which the total-order commit fixes.
    let (elapsed, hash, received) = faulted_workload(SimSpec::new(2));
    assert!(received[1] > 0, "the faulted run must still deliver data");
    assert_eq!((elapsed, hash), PINNED_FAULTED);
}

/// `SimSpec::shards` survives only as a no-op for the frozen `benchmark/`.
#[test]
fn shards_builder_is_an_ignored_no_op() {
    assert_eq!(dv_workload(SimSpec::new(4).shards(7)), dv_workload(SimSpec::new(4)));
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
    // the final table are all pinned.
    assert_eq!(gups_chaos(SimSpec::new(4)), PINNED_GUPS_CHAOS);
}

/// Run an instrumented GUPS with a virtual-time series attached and a
/// sink that concatenates every sample line — the body of a dv-events-v1
/// stream (header and end lines are static given the sample lines, so
/// body identity ⟺ stream identity).
fn streamed_gups(spec: SimSpec, faults: Option<FaultPlan>) -> String {
    let cfg =
        GupsConfig { table_per_node: 1 << 9, updates_per_node: 1 << 10, bucket: 512, stream_offset: 0 };
    let metrics = Arc::new(MetricsRegistry::enabled());
    let lines = Arc::new(std::sync::Mutex::new(String::new()));
    let sink = Arc::clone(&lines);
    metrics.attach_series(us(1), move |s| {
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

/// FNV-1a of a stream's bytes.
fn stream_hash(stream: &str) -> u64 {
    let mut h = Fnv1a::default();
    h.bytes(stream.as_bytes());
    h.finish()
}

#[test]
fn telemetry_streams_are_shard_count_invariant() {
    let stream = streamed_gups(SimSpec::new(4), None);
    assert!(!stream.is_empty(), "the run must produce interval samples");
    assert_eq!(stream_hash(&stream), PINNED_STREAM);
}

#[test]
fn chaos_telemetry_streams_are_shard_count_invariant() {
    let plan = FaultPlan::parse("seed=7,fifodrop=0.02").expect("valid fault spec");
    let stream = streamed_gups(SimSpec::new(4), Some(plan));
    assert!(!stream.is_empty());
    assert_eq!(stream_hash(&stream), PINNED_CHAOS_STREAM);
    // Sensitivity: the faults must actually leave a mark in the stream.
    assert_ne!(PINNED_CHAOS_STREAM, PINNED_STREAM, "fault injection left no trace in the stream");
}

/// The entry points that only became spec-aware with the one-door
/// cleanup, each reduced to `(elapsed, result bits)`, told which counter
/// family its backend must have published, and pinned to
/// `(elapsed, FNV-1a of the result bits)`.
type Door = (&'static str, usize, &'static str, fn(SimSpec) -> (Time, Vec<u64>), (Time, u64));

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
    }, (12_978_804, 0xdfa9_20a6_fc27_3133)),
    ("fft::twod/mpi", 4, "mpi.bytes", |spec| {
        let r = twod::run_mpi(32, spec);
        (r.elapsed, c64_bits(&r.local_out))
    }, (16_611_002, 0xdfa9_20a6_fc27_3133)),
    ("vorticity/dv", 4, "api.net.packets", |spec| {
        let r = vort::run_dv(VortConfig { m: 32, dt: 1e-3, steps: 1 }, spec);
        (r.elapsed, c64_bits(&r.omega_hat))
    }, (58_316_546, 0x5079_9cf3_f0b9_0f05)),
    ("vorticity/mpi", 4, "mpi.bytes", |spec| {
        let r = vort::run_mpi(VortConfig { m: 32, dt: 1e-3, steps: 1 }, spec);
        (r.elapsed, c64_bits(&r.omega_hat))
    }, (76_981_315, 0x5079_9cf3_f0b9_0f05)),
    ("snap/dv", 4, "api.net.packets", |spec| {
        let r = snap::dv::run_spec(SnapConfig::test_small(), spec);
        (r.elapsed, f64_bits(r.fields))
    }, (114_961_583, 0x8033_bcb2_d743_83aa)),
    ("snap/mpi", 4, "mpi.bytes", |spec| {
        let r = snap::mpi::run_spec(SnapConfig::test_small(), spec);
        (r.elapsed, f64_bits(r.fields))
    }, (112_550_812, 0x8033_bcb2_d743_83aa)),
    ("heat/mpi", 8, "mpi.bytes", |spec| {
        let r = heat::mpi::run_spec(HeatConfig::test_small(), spec);
        (r.elapsed, f64_bits(r.fields))
    }, (137_078_504, 0x6e3b_1184_5823_e6eb)),
];

/// `(elapsed, FNV-1a of the result bits)`.
fn door_digest((elapsed, bits): (Time, Vec<u64>)) -> (Time, u64) {
    let mut h = Fnv1a::default();
    bits.into_iter().for_each(|w| h.word(w));
    (elapsed, h.finish())
}

#[test]
fn spec_aware_doors_match_their_pins_with_metrics_on_and_off() {
    for &(name, nodes, counter, run, pinned) in NEW_DOORS {
        let metrics = Arc::new(MetricsRegistry::enabled());
        let instrumented = door_digest(run(SimSpec::new(nodes).metrics(Arc::clone(&metrics))));
        let snap = metrics.snapshot();
        assert!(snap.counter_total(counter) > 0, "{name}: {counter} not published");
        assert!(snap.counter_total("sim.sched.resumes") > 0, "{name}: scheduler not published");
        assert_eq!(instrumented, pinned, "{name} with metrics: actual {instrumented:#x?}");
        assert_eq!(door_digest(run(SimSpec::new(nodes))), pinned, "{name} without metrics");
    }
}
