//! Micro-benchmarks of the hot substrates (self-contained harness).
//!
//! These measure the *simulator's* own performance (real wall time), not
//! simulated metrics: the DES engine, the cycle-accurate switch, and the
//! serial computational kernels the benchmarks execute for real. The
//! harness is deliberately dependency-free: each case is warmed up once,
//! then timed over enough iterations to fill ~0.3 s, reporting the mean
//! per-iteration time and throughput.
//!
//! Wall-clock use is confined to this crate (`dv-bench`); everything under
//! simulation uses virtual time only — `dv-lint` rule `DV-W002` enforces
//! that split.

use std::hint::black_box;
use std::time::Instant;

use dv_core::rng::{HpccStream, SplitMix64};
use dv_kernels::fft::plan::FftPlan;
use dv_kernels::fft::{fft_in_place, Complex};
use dv_kernels::graph::{kronecker_edges, Csr, GraphConfig};
use dv_sim::{Port, Sim};
use dv_switch::{CycleEngine, SwitchSim, Topology};

/// Time `f` adaptively: warm up, pick an iteration count that fills the
/// budget, report mean ns/iter (and per-element throughput if `elems` set).
fn bench<R>(name: &str, elems: Option<u64>, mut f: impl FnMut() -> R) {
    // Warm-up + calibration.
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().as_nanos().max(1) as u64;
    let iters = (300_000_000 / once).clamp(1, 10_000);
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = t0.elapsed().as_nanos() as f64 / iters as f64;
    let rate = elems
        .map(|e| format!("  {:>10.1} Melem/s", e as f64 / per_iter * 1e3))
        .unwrap_or_default();
    println!("{name:<32} {:>12.0} ns/iter  x{iters}{rate}", per_iter);
}

fn bench_des_engine() {
    bench("des/event_schedule_drain_10k", Some(10_000), || {
        let sim = Sim::new();
        sim.spawn("p", |ctx| {
            for _ in 0..10_000 {
                ctx.delay(100);
            }
        });
        sim.run()
    });
    bench("des/port_send_recv_2k", Some(2_000), || {
        let sim = Sim::new();
        let port: Port<u64> = Port::new();
        let (p1, p2) = (port.clone(), port.clone());
        sim.spawn("recv", move |ctx| {
            for _ in 0..2_000 {
                let _ = p1.recv(ctx);
            }
        });
        sim.spawn("send", move |ctx| {
            for i in 0..2_000 {
                p2.send_delayed(ctx, 500, i);
                ctx.delay(100);
            }
        });
        sim.run()
    });
}

fn bench_switch_cycle() {
    bench("switch/uniform_load_1k_cycles", None, || {
        let mut sw = SwitchSim::new(Topology::new(8, 4));
        let mut rng = SplitMix64::new(7);
        for p in 0..32 {
            for _ in 0..8 {
                sw.enqueue(p, rng.next_below(32) as usize, 0);
            }
        }
        for _ in 0..1_000 {
            let _ = sw.step();
        }
        sw.ejected()
    });
}

fn bench_fft_kernel() {
    for log_n in [10u32, 14] {
        let n = 1usize << log_n;
        let mut rng = SplitMix64::new(1);
        let data: Vec<Complex> =
            (0..n).map(|_| Complex::new(rng.next_f64(), rng.next_f64())).collect();
        bench(&format!("fft/radix2_2^{log_n}"), Some(n as u64), || {
            let mut d = data.clone();
            fft_in_place(&mut d);
            d[0]
        });
    }
}

fn bench_fft_planned_rows() {
    // What a node of the distributed FFT runs: many rows, one set of
    // tables. Transformed in place over and over: the values only grow
    // (by 32× a pass, never far enough to overflow within the budget), and
    // the arithmetic costs the same whatever they are.
    let (rows, len) = (1024, 1024);
    let mut rng = SplitMix64::new(1);
    let mut data: Vec<Complex> =
        (0..rows * len).map(|_| Complex::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5)).collect();
    bench("fft/planned_rows_1024x2^10", Some((rows * len) as u64), || {
        FftPlan::row_ffts(&mut data, len);
        data[0]
    });
}

fn bench_graph_substrate() {
    let cfg = GraphConfig { scale: 14, edgefactor: 8, seed: 3 };
    bench("graph/kronecker_scale14", Some(cfg.edges() as u64), || kronecker_edges(&cfg).len());
    let edges = kronecker_edges(&cfg);
    bench("graph/csr_build_scale14", Some(cfg.edges() as u64), || {
        Csr::build(cfg.vertices(), &edges).vertices()
    });
}

fn bench_hpcc_stream() {
    bench("rng/hpcc_stream_100k", Some(100_000), || {
        let mut s = HpccStream::starting_at(12345);
        let mut acc = 0u64;
        for _ in 0..100_000 {
            acc ^= s.next_u64();
        }
        acc
    });
}

fn main() {
    bench_des_engine();
    bench_switch_cycle();
    bench_fft_kernel();
    bench_fft_planned_rows();
    bench_graph_substrate();
    bench_hpcc_stream();
}
