//! Reproducibility: every simulated benchmark is bit-deterministic —
//! identical inputs give identical virtual times *and* identical data.
//! This is the property that makes the simulation a usable instrument.

use std::sync::Arc;

use datavortex::api::{DvCluster, SendMode};
use datavortex::core::metrics::MetricsRegistry;
use datavortex::core::packet::SCRATCH_GC;
use datavortex::core::spec::SimSpec;
use datavortex::core::sync::lock_order_conflicts;
use datavortex::core::time::Time;
use datavortex::core::trace::Tracer;
use datavortex::kernels::graph;
use datavortex::kernels::gups::{self, GupsConfig};
use datavortex::kernels::{barrier, fft};
use datavortex::mpi::{MpiCluster, Payload, ReduceOp};

#[test]
fn gups_is_fully_deterministic_on_both_backends() {
    let cfg = GupsConfig { table_per_node: 1 << 10, updates_per_node: 1 << 11, bucket: 512, stream_offset: 0 };
    let a = gups::dv::run_spec(cfg, SimSpec::new(8));
    let b = gups::dv::run_spec(cfg, SimSpec::new(8));
    assert_eq!(a.elapsed, b.elapsed, "virtual time must reproduce exactly");
    assert_eq!(a.checksum, b.checksum);
    let c = gups::mpi::run_spec(cfg, SimSpec::new(8));
    let d = gups::mpi::run_spec(cfg, SimSpec::new(8));
    assert_eq!(c.elapsed, d.elapsed);
    assert_eq!(c.checksum, d.checksum);
}

#[test]
fn fft_times_reproduce_exactly() {
    let a = fft::dv::run_spec(1 << 12, SimSpec::new(4), false);
    let b = fft::dv::run_spec(1 << 12, SimSpec::new(4), false);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.flops, b.flops);
    let c = fft::mpi::run_spec(1 << 12, SimSpec::new(4), false);
    let d = fft::mpi::run_spec(1 << 12, SimSpec::new(4), false);
    assert_eq!(c.elapsed, d.elapsed);
}

#[test]
fn bfs_times_and_trees_reproduce_exactly() {
    let gcfg = graph::GraphConfig { scale: 10, edgefactor: 8, seed: 12 };
    let edges = graph::kronecker_edges(&gcfg);
    let csr = graph::Csr::build(gcfg.vertices(), &edges);
    let locals = graph::partition_csr(&csr, graph::VertexPart { nodes: 4 });
    let root = graph::pick_roots(&csr, 1, 3)[0];
    let a = graph::dv::run_spec(&locals, gcfg.vertices(), root, SimSpec::new(4));
    let b = graph::dv::run_spec(&locals, gcfg.vertices(), root, SimSpec::new(4));
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.parents, b.parents);
    assert_eq!(a.edges_scanned, b.edges_scanned);
}

#[test]
fn barrier_measurements_reproduce_exactly() {
    for kind in [
        barrier::BarrierKind::DvIntrinsic,
        barrier::BarrierKind::DvFast,
        barrier::BarrierKind::Mpi,
    ] {
        let a = barrier::barrier_latency_spec(kind, SimSpec::new(16), 25);
        let b = barrier::barrier_latency_spec(kind, SimSpec::new(16), 25);
        assert_eq!(a, b, "{kind:?}");
    }
}

/// A Data Vortex workload with plenty of interleaving opportunity:
/// barriers, FIFO ring traffic, and DMA sends across 8 nodes.
fn dv_workload(nodes: usize) -> (Time, u64) {
    let report = DvCluster::from_spec(SimSpec::new(nodes)).run(move |dv, ctx| {
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
    assert_eq!(report.result.len(), nodes);
    (report.elapsed, report.trace_hash)
}

/// An MPI workload mixing point-to-point and collectives.
fn mpi_workload(nodes: usize) -> (Time, u64) {
    let report = MpiCluster::from_spec(SimSpec::new(nodes)).run(|comm, ctx| {
        let mine = Payload::U64(vec![comm.rank() as u64]);
        let sum = comm.allreduce(ctx, ReduceOp::Sum, mine).into_u64()[0];
        comm.barrier(ctx);
        sum
    });
    let expect: u64 = (0..nodes as u64).sum();
    assert!(report.result.iter().all(|&r| r == expect));
    (report.elapsed, report.trace_hash)
}

#[test]
fn dv_trace_hash_reproduces_exactly() {
    // The OrderAudit hash digests every scheduler commit (who resumed,
    // when, which call ran): two runs agreeing on it means the entire
    // event interleaving was identical, not just the final answers.
    let (e1, h1) = dv_workload(8);
    let (e2, h2) = dv_workload(8);
    assert_eq!(e1, e2, "virtual time must reproduce");
    assert_eq!(h1, h2, "event-trace hash must reproduce");
}

#[test]
fn mpi_trace_hash_reproduces_exactly() {
    let (e1, h1) = mpi_workload(8);
    let (e2, h2) = mpi_workload(8);
    assert_eq!(e1, e2);
    assert_eq!(h1, h2);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "concurrent host threads are what this test adds")]
fn trace_hash_is_stable_under_host_parallelism() {
    // Several host threads each run the same simulation concurrently,
    // fighting over cores and skewing every thread-scheduling decision
    // the host makes. The virtual trace must not care.
    let baseline = dv_workload(8);
    let handles: Vec<_> =
        (0..4).map(|_| std::thread::spawn(|| dv_workload(8))).collect();
    for h in handles {
        let got = h.join().expect("workload thread panicked");
        assert_eq!(got, baseline, "trace diverged under concurrent hosts");
    }
    let mpi_baseline = mpi_workload(6);
    let handles: Vec<_> =
        (0..4).map(|_| std::thread::spawn(|| mpi_workload(6))).collect();
    for h in handles {
        assert_eq!(h.join().expect("workload thread panicked"), mpi_baseline);
    }
}

/// A fully instrumented GUPS run; returns the canonical metrics JSON and
/// its FNV hash.
fn instrumented_gups(nodes: usize) -> (String, u64) {
    let cfg =
        GupsConfig { table_per_node: 1 << 9, updates_per_node: 1 << 10, bucket: 512, stream_offset: 0 };
    let metrics = Arc::new(MetricsRegistry::enabled());
    let spec = SimSpec::new(nodes)
        .metrics(Arc::clone(&metrics))
        .tracer(Arc::new(Tracer::enabled()));
    let _ = gups::dv::run_spec(cfg, spec);
    let snap = metrics.snapshot();
    (snap.render(), snap.fnv_hash())
}

#[test]
fn metrics_snapshot_reproduces_byte_identically() {
    // The metrics counterpart of the trace-hash tests: two identical runs
    // must agree on every counter, gauge, and histogram bucket — down to
    // the canonical JSON bytes and the FNV hash over them.
    let (json1, h1) = instrumented_gups(4);
    let (json2, h2) = instrumented_gups(4);
    assert_eq!(json1, json2, "metrics JSON must be byte-identical across runs");
    assert_eq!(h1, h2);
    // Sensitivity: a different cluster size must hash differently.
    let (_, h8) = instrumented_gups(8);
    assert_ne!(h1, h8);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "concurrent host threads are what this test adds")]
fn metrics_snapshot_is_stable_under_host_parallelism() {
    // Instrumentation must not open a nondeterminism channel: concurrent
    // host threads racing over cores cannot change what gets counted.
    let baseline = instrumented_gups(4);
    let handles: Vec<_> =
        (0..4).map(|_| std::thread::spawn(|| instrumented_gups(4))).collect();
    for h in handles {
        let got = h.join().expect("workload thread panicked");
        assert_eq!(got, baseline, "metrics diverged under concurrent hosts");
    }
}

#[test]
fn instrumented_runs_count_what_the_run_did() {
    let cfg =
        GupsConfig { table_per_node: 1 << 9, updates_per_node: 1 << 10, bucket: 512, stream_offset: 0 };
    let metrics = Arc::new(MetricsRegistry::enabled());
    let spec = SimSpec::new(4)
        .metrics(Arc::clone(&metrics))
        .tracer(Arc::new(Tracer::enabled()));
    let r = gups::dv::run_spec(cfg, spec);
    let snap = metrics.snapshot();
    // Every simulated process was registered with the scheduler.
    assert_eq!(snap.counter("sim.sched.processes", &[]), Some(4));
    // All remote updates crossed the network as packets.
    assert!(snap.counter_total("api.net.packets") > 0);
    // The group-counter engine was exercised on every node.
    assert!(snap.counter_total("vic.gc.decrements") > 0);
    // Virtual-state totals cover the whole run on some node.
    assert!(snap.counter_total("trace.state_ps") >= r.elapsed);
}

/// Run an instrumented GUPS with a virtual-time series attached and a
/// sink that concatenates every sample line — the body of a
/// `dv-events-v1` stream (the header and end lines are static given the
/// sample lines, so body identity ⟺ stream identity).
fn streamed_gups(nodes: usize, faults: Option<datavortex::core::fault::FaultPlan>) -> String {
    use datavortex::core::time::us;
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
    let spec = SimSpec::new(nodes)
        .faults_opt(faults)
        .metrics(Arc::clone(&metrics))
        .tracer(Arc::new(Tracer::enabled()));
    let r = gups::dv::run_spec(cfg, spec);
    metrics.finish_series(r.elapsed);
    let out = lines.lock().unwrap().clone();
    out
}

#[test]
fn telemetry_streams_reproduce_byte_identically() {
    // The `--stream` story rests on this: sampling is keyed purely to
    // virtual time, so two identical runs emit identical streams.
    let a = streamed_gups(4, None);
    let b = streamed_gups(4, None);
    assert!(!a.is_empty(), "the run must produce interval samples");
    assert_eq!(a, b, "same-seed telemetry streams must be byte-identical");
}

#[test]
fn chaos_telemetry_streams_reproduce_byte_identically() {
    // Seeded fault injection must not open a nondeterminism channel into
    // the stream either — chaos runs replay byte-for-byte too.
    let plan = datavortex::core::fault::FaultPlan::parse("seed=7,fifodrop=0.02")
        .expect("valid fault spec");
    let a = streamed_gups(4, Some(plan.clone()));
    let b = streamed_gups(4, Some(plan));
    assert!(!a.is_empty());
    assert_eq!(a, b, "seeded chaos streams must be byte-identical");
    // Sensitivity: the faults must actually leave a mark in the stream.
    assert_ne!(a, streamed_gups(4, None), "fault injection left no trace in the stream");
}

#[test]
fn sampling_path_never_reads_the_wall_clock() {
    // Stream determinism requires that the entire sampling path — the
    // registry's tick/sample machinery, the scheduler that drives it, and
    // the stream emitter — is pure virtual time. Enforce it at the source
    // level: none of these files may mention a host-clock API at all.
    for path in
        ["crates/core/src/metrics.rs", "crates/sim/src/sim.rs", "crates/bench/src/stream.rs"]
    {
        let full = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
        let src = std::fs::read_to_string(&full)
            .unwrap_or_else(|e| panic!("{path}: {e}"));
        for needle in ["Instant::now", "SystemTime", "wall_clock("] {
            assert!(
                !src.contains(needle),
                "{path} touches the wall clock ({needle}) — sampling must be virtual-time only"
            );
        }
    }
}

#[test]
fn trace_hash_distinguishes_different_workloads() {
    // Sensitivity check: if the hash never changed, the equality tests
    // above would be vacuous.
    let (_, h4) = dv_workload(4);
    let (_, h8) = dv_workload(8);
    assert_ne!(h4, h8, "different cluster sizes must hash differently");
}

#[test]
fn lock_order_conflicts_stay_in_the_audited_set() {
    // Drive both stacks, then read the debug-mode lock-order audit. No
    // inversion is benign: the VICs, the barrier and mini-mpi's receive
    // slots are kernel-owned state with no lock of their own, so nothing
    // is locked under the kernel lock or takes it while held.
    let _ = dv_workload(4);
    let _ = mpi_workload(4);
    let benign: [(String, String); 0] = [];
    for conflict in lock_order_conflicts() {
        assert!(
            benign.contains(&conflict),
            "unexpected lock-order inversion: {conflict:?} — audit it or fix the ordering"
        );
    }
}

#[test]
fn different_seeds_change_graph_results() {
    let g1 = graph::kronecker_edges(&graph::GraphConfig { scale: 10, edgefactor: 8, seed: 1 });
    let g2 = graph::kronecker_edges(&graph::GraphConfig { scale: 10, edgefactor: 8, seed: 2 });
    assert_ne!(g1, g2);
}
