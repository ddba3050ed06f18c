//! Synthetic traffic patterns and offered-load sweeps.
//!
//! These reproduce the methodology of the Data Vortex robustness studies
//! the paper cites (Yang & Bergman, "Performances of the data vortex switch
//! architecture under nonuniform and bursty traffic"; Iliadis et al.):
//! inject Bernoulli or bursty traffic at each port at a given offered load
//! and measure accepted throughput, latency, and deflection statistics.
//! Arrivals jump from fired port to fired port over a bitmap of a block-drawn
//! stream, in the draw order of a per-port loop (`tests/sweep_golden.rs`).

use std::sync::Arc;

use dv_core::fault::{FaultPlan, STREAM_SWEEP};
use dv_core::metrics::MetricsRegistry;
use dv_core::rng::{below, unit_f64, SplitMix64};
use dv_core::stats::{Log2Histogram, OnlineStats};
use dv_core::sync::fan_out;

use crate::cycle::{Delivered, SwitchSim};
use crate::engine::CycleEngine;
use crate::net::{AnyTopology, NetworkTopology, RoutedNetSim};
use crate::topology::Topology;

/// Destination-selection pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Uniformly random destination (excluding self).
    Uniform,
    /// With probability 1/2 target port 0, otherwise uniform excluding
    /// self — the uniform half matches [`Pattern::Uniform`] exactly. The
    /// hot half keeps port 0 even when port 0 itself fires (the hot spot
    /// models an external sink, e.g. a storage or I/O node, so its own
    /// traffic still converges there).
    Hotspot,
    /// Fixed partner: `dst = src + P/2 mod P` (worst case for rings).
    Tornado,
    /// `dst = bit-reverse(src)` — the classic FFT permutation.
    BitReverse,
    /// Fixed random permutation (seeded separately from the arrivals).
    Permutation,
}

impl Pattern {
    /// All patterns, for sweep harnesses.
    pub const ALL: [Pattern; 5] =
        [Pattern::Uniform, Pattern::Hotspot, Pattern::Tornado, Pattern::BitReverse, Pattern::Permutation];
}

/// Arrival process at each input port.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Independent Bernoulli arrivals, with probability `offered / speedup` per switch cycle.
    Bernoulli,
    /// Two-state Markov on/off source with the given mean burst length;
    /// the on-state injection probability is scaled to keep the long-run
    /// offered load equal to the requested one.
    Bursty {
        /// Mean number of consecutive busy cycles per burst.
        mean_burst: f64,
    },
}

/// One point of an offered-load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Offered load (packets per port per cycle requested).
    pub offered: f64,
    /// Accepted throughput (packets per port per cycle delivered).
    pub accepted: f64,
    /// Mean in-switch latency, cycles.
    pub latency_mean: f64,
    /// Mean total latency (incl. source queueing), cycles.
    pub total_latency_mean: f64,
    /// Mean contention deflections per packet.
    pub deflections_mean: f64,
    /// Packets delivered during the measurement window.
    pub delivered: u64,
    /// log₂ bucket of the 99th-percentile total latency (cycles): the
    /// tail is where deflection networks differ from buffered ones.
    pub total_latency_p99_log2: usize,
}

/// Everything one offered-load point produces before metrics publication:
/// the summary plus the raw instrumented state. Splitting simulation
/// ([`LoadSweep::run_core`]) from publication ([`LoadSweep::publish`]) is
/// what lets [`LoadSweep::sweep_parallel`] fan points out across threads
/// and still publish into the shared registry in input order, byte-
/// identical to the serial path.
struct RunArtifacts {
    point: SweepPoint,
    /// The point's engine, kept for its final [`CycleEngine::flush_metrics`].
    sim: Box<dyn CycleEngine + Send>,
    lat_hist: Log2Histogram,
    fault_drops: u64,
}

/// A sweep's random stream, drawn ahead in blocks: `vals[pos..]` are the
/// seeded [`SplitMix64`]'s next values, taken in stream order. Bit `i % 64` of
/// `fires[i / 64]` is the Bernoulli fire test `unit_f64(vals[i]) < p`.
struct Draws {
    rng: SplitMix64,
    vals: Vec<u64>,
    fires: Vec<u64>,
    pos: usize,
}

impl Draws {
    /// Keep more than `need` values unread, so no cycle refills midway: move
    /// them, from `pos`'s word on, to the front; draw the rest; fire on `Some(p)`.
    fn refill(&mut self, need: usize, p: Option<f64>) {
        if self.vals.len() - self.pos > need {
            return;
        }
        let from = self.pos & !63;
        let kept = self.vals.len() - from;
        self.vals.copy_within(from.., 0);
        self.fires.copy_within(from / 64.., 0);
        self.pos -= from;
        self.rng.fill(&mut self.vals[kept..]);
        let Some(p) = p else { return };
        for (word, vals) in self.fires[kept / 64..].iter_mut().zip(self.vals[kept..].chunks(64)) {
            let fire = |(i, &v): (usize, &u64)| u64::from(unit_f64(v) < p) << i;
            *word = vals.iter().enumerate().map(fire).fold(0, |w, bit| w | bit);
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.pos += 1;
        self.vals[self.pos - 1]
    }

    /// Bernoulli arrivals: the first port in `from..ports` whose value fires.
    /// Each port up to it takes its one value; `None` takes one per port left.
    fn next_fire(&mut self, from: usize, ports: usize) -> Option<usize> {
        let (start, end, mut word) = (self.pos, self.pos + ports - from, self.pos >> 6);
        let mut bits = self.fires[word] & (!0 << (start & 63));
        while bits == 0 && (word + 1) << 6 < end {
            word += 1;
            bits = self.fires[word];
        }
        let i = (word << 6) + bits.trailing_zeros() as usize;
        self.pos = end.min(i + 1);
        (i < end).then(|| from + i - start)
    }
}

/// Offered-load sweep driver.
#[derive(Clone)]
pub struct LoadSweep {
    /// Network to exercise: the Data Vortex switch or one of the rival
    /// topologies ([`AnyTopology::FatTree`], [`AnyTopology::MinPath`]).
    /// Rival graphs run through [`RoutedNetSim`]; the Vortex runs the
    /// cycle-accurate [`SwitchSim`], byte-identical to the pre-trait
    /// driver.
    pub net: AnyTopology,
    /// Destination pattern.
    pub pattern: Pattern,
    /// Arrival process.
    pub arrival: Arrival,
    /// Warm-up cycles excluded from measurement.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// RNG seed.
    pub seed: u64,
    /// Internal speedup: switch cycles per port slot. The electronic
    /// implementation clocks the switching fabric faster than the port
    /// injection rate, so one port slot (one packet time on the VIC link)
    /// spans several internal hops. Offered/accepted loads are expressed
    /// per port *slot*.
    pub speedup: u32,
    /// Optional metrics sink; when set, each point flushes its engine's
    /// statistics (`switch.cycle.*` on the Vortex, `rival.cycle.*` on the
    /// rivals) into it, then adds per-point `switch.sweep.*` metrics
    /// labeled by the offered load.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Optional fault plan: its `drop` rate loses packets at the
    /// injection port (decided on the deterministic [`STREAM_SWEEP`]
    /// stream, one sequence number per fired arrival), reported as
    /// `switch.sweep.fault_drops`. Dropped arrivals count as offered but
    /// never as accepted traffic.
    pub faults: Option<FaultPlan>,
}

impl LoadSweep {
    /// Reasonable defaults for a given Data Vortex topology.
    pub fn new(topo: Topology) -> Self {
        Self::for_net(AnyTopology::Vortex(topo))
    }

    /// Reasonable defaults for any network (Data Vortex or rival).
    pub fn for_net(net: AnyTopology) -> Self {
        Self {
            net,
            pattern: Pattern::Uniform,
            arrival: Arrival::Bernoulli,
            warmup: 500,
            measure: 3_000,
            seed: 0xDA7A_0037,
            speedup: 4,
            metrics: None,
            faults: None,
        }
    }

    /// Uniform destination excluding self, from one `draw`. A 1-port switch
    /// has no non-self destination, so it degenerates to self-traffic — the
    /// only traffic a single port can offer — and draws nothing.
    fn uniform_dst(draw: impl FnOnce() -> u64, ports: usize, src: usize) -> usize {
        if ports <= 1 {
            return 0;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "below(x, ports - 1) < ports, a usize; per-arrival path"
        )]
        let mut d = below(draw(), ports as u64 - 1) as usize;
        if d >= src {
            d += 1;
        }
        d
    }

    fn bitrev(x: usize, bits: u32) -> usize {
        let mut out = 0;
        for b in 0..bits {
            if x >> b & 1 == 1 {
                out |= 1 << (bits - 1 - b);
            }
        }
        out
    }

    /// Run one offered-load point.
    pub fn run(&self, offered: f64) -> SweepPoint {
        let mut art = self.run_core(offered);
        self.publish(&mut art);
        art.point
    }

    /// Run one offered-load point while streaming: every `flush_cycles`
    /// cycles the switch's accumulators are flushed incrementally into
    /// the registry and the registry's virtual-time sampler is advanced
    /// to `cycle × hop_time_ps`, so an attached series sees the switch
    /// evolve live. The run ends like [`LoadSweep::run`]: its last flush,
    /// then the point's `switch.sweep.*` summary, so totals match a plain
    /// run exactly.
    pub fn run_streamed(&self, offered: f64, hop_time_ps: u64, flush_cycles: u64) -> SweepPoint {
        let m = Arc::clone(self.metrics.as_ref().expect("run_streamed requires metrics"));
        let flush_cycles = flush_cycles.max(1);
        let mut art = self.run_core_with(offered, |sw, cycle| {
            if (cycle + 1) % flush_cycles == 0 {
                sw.flush_metrics(&m);
                m.tick((cycle + 1) * hop_time_ps);
            }
        });
        self.publish(&mut art);
        art.point
    }

    /// The simulation half of [`LoadSweep::run`]: fully deterministic in
    /// `(self, offered)` and free of registry writes, so points can run on
    /// worker threads without perturbing the shared metrics state.
    fn run_core(&self, offered: f64) -> RunArtifacts {
        self.run_core_with(offered, |_, _| {})
    }

    /// [`LoadSweep::run_core`] with a per-cycle observer, invoked with the
    /// simulator and the cycle index after each cycle's movement phase
    /// (streamed runs flush metrics from it; the plain path passes a
    /// no-op). Picks the engine once — the Data Vortex simulator for
    /// [`AnyTopology::Vortex`], the routed store-and-forward simulator for
    /// the rival graphs — so the cycle loop is monomorphic in it.
    fn run_core_with(
        &self,
        offered: f64,
        on_cycle: impl FnMut(&mut dyn CycleEngine, u64),
    ) -> RunArtifacts {
        match &self.net {
            AnyTopology::Vortex(topo) => {
                self.run_on(SwitchSim::new(topo.clone()), offered, on_cycle)
            }
            net => self.run_on(RoutedNetSim::new(net.clone()), offered, on_cycle),
        }
    }

    fn run_on<E: CycleEngine + Send + 'static>(
        &self,
        mut sw: E,
        offered: f64,
        mut on_cycle: impl FnMut(&mut dyn CycleEngine, u64),
    ) -> RunArtifacts {
        let ports = self.net.ports();
        let mut rng = SplitMix64::new(self.seed);
        let mut perm: Vec<usize> = (0..ports).collect();
        // Fisher–Yates with the seeded generator (used by Permutation).
        for i in (1..ports).rev() {
            #[expect(clippy::cast_possible_truncation, reason = "next_below(i + 1) <= i, a usize")]
            let j = rng.next_below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        // ceil(log2(ports)) in integer arithmetic: identical to the old
        // float `(ports as f64).log2().ceil()` for every power of two (and
        // every other count), with no rounding edge cases.
        let port_bits = ports.next_power_of_two().ilog2();

        let su = self.speedup.max(1) as f64;
        let (p_on_to_off, p_off_to_on, p_inject_on) = match self.arrival {
            Arrival::Bernoulli => (0.0, 1.0, offered / su),
            Arrival::Bursty { mean_burst } => {
                // In the on state inject every port slot; duty = offered.
                let p_done = 1.0 / (mean_burst.max(1.0) * su);
                let duty = offered.min(1.0);
                // off->on chosen so stationary on-fraction = duty.
                let p_start = if duty >= 1.0 { 1.0 } else { p_done * duty / (1.0 - duty) };
                (p_done, p_start.min(1.0), 1.0 / su)
            }
        };
        let mut on_state = vec![false; ports];
        // A cycle's worst case per port: fire draw(s), hotspot coin, destination.
        let need = ports * if self.arrival == Arrival::Bernoulli { 3 } else { 4 };
        let len = (2 * need).next_multiple_of(64) + 64; // two cycles' worth, plus a word
        let mut draws = Draws { rng, vals: vec![0; len], fires: vec![0; len / 64], pos: len };

        let mut lat = OnlineStats::new();
        let mut total_lat = OnlineStats::new();
        let mut lat_hist = Log2Histogram::new(24);
        let mut defl = OnlineStats::new();
        let mut delivered_count = 0u64;
        let mut tag = 0u64;
        let mut fault_seq = 0u64;
        let mut fault_drops = 0u64;

        // Reused per-cycle delivery buffer: with its capacity warmed up the
        // whole measurement loop stays off the allocator (a port ejects at
        // most one packet per cycle, so `ports` bounds a cycle's batch).
        let mut delivered_buf: Vec<Delivered> = Vec::with_capacity(ports);

        let total_cycles = self.warmup + self.measure;
        for cycle in 0..total_cycles {
            draws.refill(need, (self.arrival == Arrival::Bernoulli).then_some(p_inject_on));
            let mut next = 0;
            loop {
                // Arrival process: the next port that fires this cycle.
                let fired = match self.arrival {
                    Arrival::Bernoulli => draws.next_fire(next, ports),
                    Arrival::Bursty { .. } => (next..ports).find(|&src| {
                        let on = &mut on_state[src];
                        let flip = if *on { p_on_to_off } else { p_off_to_on };
                        *on ^= unit_f64(draws.next_u64()) < flip;
                        *on && unit_f64(draws.next_u64()) < p_inject_on
                    }),
                };
                let Some(src) = fired else { break };
                next = src + 1;
                // Keep source queues bounded: drop when badly backlogged
                // (models finite injection FIFOs; drops don't count as
                // accepted traffic).
                if sw.outstanding() > ports * 64 {
                    continue;
                }
                let dst = match self.pattern {
                    Pattern::Uniform => Self::uniform_dst(|| draws.next_u64(), ports, src),
                    Pattern::Hotspot => {
                        if unit_f64(draws.next_u64()) < 0.5 {
                            0
                        } else {
                            Self::uniform_dst(|| draws.next_u64(), ports, src)
                        }
                    }
                    Pattern::Tornado => (src + ports / 2) % ports,
                    Pattern::BitReverse => Self::bitrev(src, port_bits) % ports,
                    Pattern::Permutation => perm[src],
                };
                if let Some(plan) = &self.faults {
                    let seq = fault_seq;
                    fault_seq += 1;
                    if plan.link_drop > 0.0
                        && plan.roll(STREAM_SWEEP, src as u64, dst as u64, seq) < plan.link_drop
                    {
                        fault_drops += 1;
                        continue;
                    }
                }
                sw.enqueue(src, dst, tag);
                tag += 1;
            }
            delivered_buf.clear();
            sw.step_into(&mut delivered_buf);
            for d in &delivered_buf {
                if cycle >= self.warmup {
                    delivered_count += 1;
                    lat.push(d.switch_cycles() as f64);
                    total_lat.push(d.total_cycles() as f64);
                    lat_hist.push(d.total_cycles());
                    defl.push(d.deflections as f64);
                }
            }
            on_cycle(&mut sw, cycle);
        }

        let point = SweepPoint {
            offered,
            accepted: delivered_count as f64 / (self.measure as f64 * ports as f64) * su,
            latency_mean: lat.mean(),
            total_latency_mean: total_lat.mean(),
            deflections_mean: defl.mean(),
            delivered: delivered_count,
            total_latency_p99_log2: lat_hist.quantile_log2(0.99),
        };
        RunArtifacts { point, sim: Box::new(sw), lat_hist, fault_drops }
    }

    /// The publication half of [`LoadSweep::run`]: flushes one point's
    /// engine into the shared registry, then adds the point's
    /// `switch.sweep.*` summary. Call order across points is the only
    /// registry-visible ordering, so publishing joined parallel points in
    /// input order reproduces the serial bytes exactly.
    fn publish(&self, art: &mut RunArtifacts) {
        let Some(m) = &self.metrics else {
            return;
        };
        art.sim.flush_metrics(m);
        // Label by offered load in permille so the label is an integer
        // (stable text) rather than a formatted float.
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "an offered load in permille: non-negative and small"
        )]
        let permille = (art.point.offered * 1000.0).round() as u64;
        let load = [("offered_permille", permille.into())];
        m.incr_labeled("switch.sweep.delivered", &load, art.point.delivered);
        if self.faults.is_some() {
            m.incr_labeled("switch.sweep.fault_drops", &load, art.fault_drops);
        }
        m.observe_histogram("switch.sweep.total_latency_cycles", &load, &art.lat_hist);
        m.gauge_labeled("switch.sweep.accepted", &load, art.point.accepted);
        m.gauge_labeled("switch.sweep.deflections_mean", &load, art.point.deflections_mean);
    }

    /// Run a whole sweep over the given offered loads.
    pub fn sweep(&self, loads: &[f64]) -> Vec<SweepPoint> {
        loads.iter().map(|&l| self.run(l)).collect()
    }

    /// Run a whole sweep with one host thread per point.
    ///
    /// Each point is an independent simulation seeded exactly as in the
    /// serial path (`LoadSweep::run_core` re-seeds from `self.seed` per
    /// point); [`fan_out`] returns the points in input order, and they are
    /// published into the optional metrics registry in that order. The
    /// returned points and every registry side effect are therefore
    /// byte-identical to [`LoadSweep::sweep`], regardless of core count or
    /// scheduling; `tests/sweep_parallel.rs` holds that line (CI only
    /// `cmp`s two parallel `switch_study` runs).
    pub fn sweep_parallel(&self, loads: &[f64]) -> Vec<SweepPoint> {
        fan_out(loads, |&load| self.run_core(load))
            .into_iter()
            .map(|mut art| {
                self.publish(&mut art);
                art.point
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> LoadSweep {
        let mut s = LoadSweep::new(Topology::new(8, 4));
        s.warmup = 200;
        s.measure = 1_000;
        s
    }

    #[test]
    fn light_load_throughput_matches_offered() {
        let p = sweep().run(0.1);
        assert!((p.accepted - 0.1).abs() < 0.03, "accepted {}", p.accepted);
        assert!(p.deflections_mean < 0.5);
    }

    #[test]
    fn latency_grows_with_load() {
        let s = sweep();
        let lo = s.run(0.05);
        let hi = s.run(0.9);
        assert!(
            hi.total_latency_mean > lo.total_latency_mean,
            "lo {} hi {}",
            lo.total_latency_mean,
            hi.total_latency_mean
        );
        assert!(hi.deflections_mean >= lo.deflections_mean);
    }

    #[test]
    fn uniform_traffic_sustains_high_load() {
        // The Data Vortex claim: robust throughput under uniform traffic.
        let p = sweep().run(0.7);
        assert!(p.accepted > 0.5, "accepted {}", p.accepted);
    }

    #[test]
    fn hotspot_throughput_is_bounded_by_the_hot_port() {
        let p = {
            let mut s = sweep();
            s.pattern = Pattern::Hotspot;
            s.run(0.9)
        };
        // Half of all traffic goes to one port that drains 1 pkt/cycle:
        // accepted per port can't exceed ~2/ports ≈ 0.0625 for that half
        // plus the uniform half. Just assert it's far below offered.
        assert!(p.accepted < 0.5, "accepted {}", p.accepted);
    }

    #[test]
    fn bursty_traffic_still_delivers_everything_it_accepts() {
        let mut s = sweep();
        s.arrival = Arrival::Bursty { mean_burst: 8.0 };
        let p = s.run(0.4);
        assert!(p.delivered > 0);
        assert!((p.accepted - 0.4).abs() < 0.12, "accepted {}", p.accepted);
    }

    #[test]
    fn tornado_and_bitreverse_route_fine() {
        for pattern in [Pattern::Tornado, Pattern::BitReverse] {
            let mut s = sweep();
            s.pattern = pattern;
            let p = s.run(0.5);
            assert!(p.accepted > 0.35, "{pattern:?}: accepted {}", p.accepted);
        }
    }

    #[test]
    fn tail_latency_stays_bounded_under_uniform_load() {
        // The deflection design's selling point: even the p99 latency at
        // high uniform load stays within a few dozen cycles (no deep
        // queues to sit in).
        let p = sweep().run(0.7);
        assert!(p.total_latency_p99_log2 <= 7, "p99 in 2^{} cycles", p.total_latency_p99_log2);
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = sweep().run(0.3);
        let b = sweep().run(0.3);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.latency_mean, b.latency_mean);
    }

    #[test]
    fn uniform_dst_handles_the_single_port_degenerate_case() {
        // ports == 1 would need `below(_, 0)` (a debug-assert
        // violation); it degenerates to self-traffic instead, the only
        // destination a 1-port switch has, and draws nothing.
        let mut rng = SplitMix64::new(1);
        assert_eq!(LoadSweep::uniform_dst(|| unreachable!("no draw"), 1, 0), 0);
        for ports in [2usize, 3, 8] {
            for src in 0..ports {
                for _ in 0..200 {
                    let d = LoadSweep::uniform_dst(|| rng.next_u64(), ports, src);
                    assert_ne!(d, src, "ports={ports}");
                    assert!(d < ports);
                }
            }
        }
    }

    #[test]
    fn hotspot_uniform_half_excludes_self_like_uniform() {
        // The smallest legal topology: 2 ports. Port 1's non-hot traffic
        // can only go to port 0, and port 0's only to port 1 — with the
        // old `next_below(ports)` selection, self-traffic would sneak in.
        let mut s = LoadSweep::new(Topology::new(2, 1));
        s.pattern = Pattern::Hotspot;
        s.warmup = 50;
        s.measure = 500;
        let p = s.run(0.4);
        assert!(p.delivered > 0);
    }

    #[test]
    fn parallel_sweep_matches_serial_points_and_metrics() {
        let loads = [0.05, 0.2, 0.4, 0.6, 0.8];
        let run = |parallel: bool| {
            let metrics = Arc::new(MetricsRegistry::enabled());
            let mut s = sweep();
            s.metrics = Some(Arc::clone(&metrics));
            let pts = if parallel { s.sweep_parallel(&loads) } else { s.sweep(&loads) };
            (pts, metrics.snapshot().render())
        };
        let (serial_pts, serial_metrics) = run(false);
        let (par_pts, par_metrics) = run(true);
        assert_eq!(serial_pts, par_pts, "points must match in input order");
        assert_eq!(serial_metrics, par_metrics, "registry bytes must match");
    }

    #[test]
    fn parallel_sweep_handles_faults_and_patterns() {
        use dv_core::fault::FaultPlan;
        for pattern in Pattern::ALL {
            let mut s = sweep();
            s.pattern = pattern;
            s.faults = Some(FaultPlan { seed: 3, link_drop: 0.05, ..Default::default() });
            let loads = [0.3, 0.7];
            assert_eq!(s.sweep(&loads), s.sweep_parallel(&loads), "{pattern:?}");
        }
    }

    #[test]
    fn fault_plan_drops_at_injection_deterministically() {
        use dv_core::fault::FaultPlan;
        let run = || {
            let mut s = sweep();
            s.faults = Some(FaultPlan { seed: 11, link_drop: 0.2, ..Default::default() });
            s.metrics = Some(Arc::new(MetricsRegistry::enabled()));
            let p = s.run(0.5);
            let snap = s.metrics.as_ref().unwrap().snapshot();
            (p.delivered, snap.fnv_hash())
        };
        let (delivered, hash) = run();
        let (d2, h2) = run();
        assert_eq!((delivered, hash), (d2, h2), "faulted sweep must replay exactly");
        let clean = sweep().run(0.5);
        assert!(delivered < clean.delivered, "20% injection drops must reduce deliveries");
    }
}
