//! Trace replay for the cycle-engine perf smokes (`perf_smoke`,
//! `net_smoke`): a seeded offered stream generated once, replayed into any
//! [`CycleEngine`], and timed best-of-reps with the two sides of a
//! comparison alternating.

use std::time::Instant;

use dv_core::rng::SplitMix64;
use dv_switch::CycleEngine;

use crate::f2;

/// A pre-generated offered stream: `offsets[c]..offsets[c + 1]` indexes
/// cycle `c`'s `(src, dst)` arrivals.
pub struct Trace {
    ports: usize,
    offsets: Vec<u32>,
    arrivals: Vec<(u16, u16)>,
}

/// Seeded uniform non-self arrivals at `load` per port and cycle. The
/// stream is independent of simulator state, so it is generated once up
/// front and replayed into every engine under comparison: the comparison
/// measures the engines, not the shared random-number generator.
pub fn build_trace(seed: u64, ports: usize, cycles: u64, load: f64) -> Trace {
    assert!(ports <= 1 << 16, "arrivals store ports as u16");
    let mut rng = SplitMix64::new(seed);
    let mut offsets = Vec::with_capacity(cycles as usize + 1);
    let mut arrivals = Vec::new();
    offsets.push(0u32);
    for _ in 0..cycles {
        for src in 0..ports {
            if rng.next_f64() >= load {
                continue;
            }
            let mut dst = rng.next_below(ports as u64 - 1) as usize;
            if dst >= src {
                dst += 1;
            }
            arrivals.push((src as u16, dst as u16));
        }
        offsets.push(arrivals.len() as u32);
    }
    Trace { ports, offsets, arrivals }
}

/// One timed replay. Everything but `secs` is deterministic.
#[derive(Clone, Copy)]
pub struct Rate {
    /// Cycles replayed.
    pub cycles: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Order-sensitive FNV-1a digest of the delivered stream.
    pub digest: u64,
}

impl Rate {
    /// Cycles per wall-clock second.
    pub fn cps(&self) -> f64 {
        self.cycles as f64 / self.secs
    }

    /// Delivered packets per wall-clock second.
    pub fn pps(&self) -> f64 {
        self.delivered as f64 / self.secs
    }

    /// The faster of two replays of the same stream.
    pub fn best(self, other: Rate) -> Rate {
        if other.secs < self.secs {
            other
        } else {
            self
        }
    }

    /// Table cells `[name, cycles, delivered, cycles/sec, packets/sec]`.
    pub fn row(&self, name: &str) -> Vec<String> {
        let Rate { cycles, delivered, .. } = self;
        vec![name.into(), cycles.to_string(), delivered.to_string(), f2(self.cps()), f2(self.pps())]
    }

    /// The deterministic half as one `--verify` line (CI `cmp`s these
    /// across a repeat run).
    pub fn verify_line(&self, what: &str) -> String {
        let Rate { cycles, delivered, digest, .. } = self;
        format!("{what} cycles={cycles} delivered={delivered} fnv={digest:#018x}\n")
    }
}

/// One FNV-1a 64 step.
fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Replay the first `cycles` cycles of `trace` into `sim`. Arrivals are
/// skipped while more than `depth` packets per port are outstanding —
/// exactly as `LoadSweep` bounds its injection FIFOs: the cap is consulted
/// per arrival, so the engine's `outstanding()` cost is part of what is
/// measured, just as it is in a real sweep.
pub fn drive(sim: &mut impl CycleEngine, depth: usize, trace: &Trace, cycles: u64) -> Rate {
    let backlog = trace.ports * depth;
    let mut out = Vec::with_capacity(trace.ports);
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let t0 = Instant::now();
    for w in trace.offsets[..=cycles as usize].windows(2) {
        for &(src, dst) in &trace.arrivals[w[0] as usize..w[1] as usize] {
            if sim.outstanding() <= backlog {
                sim.enqueue(src as usize, dst as usize, 0);
            }
        }
        out.clear();
        sim.step_into(&mut out);
        for d in &out {
            digest = fnv(digest, d.src_port as u64);
            digest = fnv(digest, d.dst_port as u64);
            digest = fnv(digest, d.enqueue_cycle ^ d.eject_cycle.rotate_left(32));
            digest = fnv(digest, d.hops as u64);
        }
    }
    Rate { cycles, delivered: sim.ejected(), secs: t0.elapsed().as_secs_f64(), digest }
}

/// Best-of-`reps` `(reference, rebuilt)` rates. Each repetition runs a
/// fresh simulation of each side, alternating so host-load transients hit
/// both; the best (smallest) time per side estimates the unloaded rate.
/// The reference replays only the first `ref_cycles` cycles of the stream
/// the rebuilt engine replays in full; rates normalize the comparison.
pub fn race<R: CycleEngine, N: CycleEngine>(
    reps: usize,
    (reference, ref_cycles): (impl Fn() -> R, u64),
    (rebuilt, new_cycles): (impl Fn() -> N, u64),
    depth: usize,
    trace: &Trace,
) -> (Rate, Rate) {
    let once = || {
        let r = drive(&mut reference(), depth, trace, ref_cycles);
        (r, drive(&mut rebuilt(), depth, trace, new_cycles))
    };
    (1..reps).fold(once(), |(r, n), _| {
        let (r2, n2) = once();
        (r.best(r2), n.best(n2))
    })
}
