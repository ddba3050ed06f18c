//! Deterministic fault-injection plans.
//!
//! The paper's hardware has real failure modes: the surprise FIFO drops
//! (and counts) packets on overflow, group counters can be erased by the
//! decrement-before-set race of Section III, and a deflection network
//! under stress reorders and delays traffic. A [`FaultPlan`] describes a
//! *reproducible* storm of such events: every decision is a pure function
//! of `(seed, stream, identity, sequence-number)` — no generator state is
//! shared between fault sites — so the same plan over the same workload
//! yields the same faults, the same recovery traffic, and a bit-identical
//! metrics snapshot. That statelessness is also what lets tests *replay*
//! a plan after the fact to compute the exact expected drop count.
//!
//! Plans are parsed from the `--faults <spec>` benchmark knob; see
//! [`FaultPlan::parse`] for the grammar.

use crate::time::Time;

/// Decision stream: per-packet link drops.
pub const STREAM_LINK_DROP: u64 = 1;
/// Decision stream: per-packet link duplications.
pub const STREAM_LINK_DUP: u64 = 2;
/// Decision stream: per-batch VIC ejection stalls.
pub const STREAM_EJECT: u64 = 3;
/// Decision stream: per-packet group-counter-set delivery delays.
pub const STREAM_GC_SET: u64 = 4;
/// Decision stream: per-push forced FIFO overflow.
pub const STREAM_FIFO: u64 = 5;
/// Decision stream: cycle-accurate sweep injection drops.
pub const STREAM_SWEEP: u64 = 6;

/// A seeded, deterministic fault plan. All probabilities default to zero
/// (no faults); the plan is plain data and can be freely cloned across
/// simulated nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every fault decision.
    pub seed: u64,
    /// Per-packet probability the switch loses a packet in flight.
    pub link_drop: f64,
    /// Per-packet probability a packet is delivered twice (a deflection
    /// loop re-ejecting a copy).
    pub link_dup: f64,
    /// Per-batch probability the destination VIC's ejection port stalls.
    pub eject_stall: f64,
    /// Duration of one ejection stall.
    pub eject_stall_time: Time,
    /// Per-packet probability a `GroupCounterSet` packet is delayed in
    /// flight — the mechanism that forces decrement-before-set races.
    pub gc_set_delay: f64,
    /// How long a delayed set packet lags its batch.
    pub gc_set_delay_time: Time,
    /// Per-push probability the surprise FIFO rejects an arriving packet
    /// as if full (forced overflow).
    pub fifo_drop: f64,
    /// Forced-overflow storm: every `fifo_storm_period` pushes... (0 = off)
    pub fifo_storm_period: u64,
    /// ...drop this many consecutive pushes.
    pub fifo_storm_len: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0xFA17,
            link_drop: 0.0,
            link_dup: 0.0,
            eject_stall: 0.0,
            eject_stall_time: crate::time::ns(500),
            gc_set_delay: 0.0,
            gc_set_delay_time: crate::time::us(5),
            fifo_drop: 0.0,
            fifo_storm_period: 0,
            fifo_storm_len: 0,
        }
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mixing step.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Uniform `[0, 1)` roll for event `seq` of decision stream `stream`
    /// at site `(a, b)` — stateless, so any observer can replay it.
    pub fn roll(&self, stream: u64, a: u64, b: u64, seq: u64) -> f64 {
        let mut h = mix(self.seed ^ stream.wrapping_mul(0xA24BAED4963EE407));
        h = mix(h ^ a.wrapping_mul(0x9FB21C651E98DF25));
        h = mix(h ^ b.wrapping_mul(0xD6E8FEB86659FD93));
        h = mix(h ^ seq);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Should packet `seq` on link `src → dst` be dropped in flight?
    pub fn link_drops(&self, src: u64, dst: u64, seq: u64) -> bool {
        self.link_drop > 0.0 && self.roll(STREAM_LINK_DROP, src, dst, seq) < self.link_drop
    }

    /// Should packet `seq` on link `src → dst` be delivered twice?
    pub fn link_dups(&self, src: u64, dst: u64, seq: u64) -> bool {
        self.link_dup > 0.0 && self.roll(STREAM_LINK_DUP, src, dst, seq) < self.link_dup
    }

    /// Extra ejection delay for batch `batch_seq` on link `src → dst`.
    pub fn eject_stall(&self, src: u64, dst: u64, batch_seq: u64) -> Option<Time> {
        (self.eject_stall > 0.0 && self.roll(STREAM_EJECT, src, dst, batch_seq) < self.eject_stall)
            .then_some(self.eject_stall_time)
    }

    /// Extra in-flight delay for a `GroupCounterSet` packet (decision
    /// rolled per packet `seq` on link `src → dst`).
    pub fn gc_set_delayed(&self, src: u64, dst: u64, seq: u64) -> Option<Time> {
        (self.gc_set_delay > 0.0 && self.roll(STREAM_GC_SET, src, dst, seq) < self.gc_set_delay)
            .then_some(self.gc_set_delay_time)
    }

    /// Should FIFO push number `seq` at `node` be rejected as if the FIFO
    /// were full? Combines the Bernoulli rate with the periodic storm.
    pub fn fifo_forced_drop(&self, node: u64, seq: u64) -> bool {
        if self.fifo_storm_period > 0
            && self.fifo_storm_len > 0
            && seq % self.fifo_storm_period < self.fifo_storm_len
        {
            return true;
        }
        self.fifo_drop > 0.0 && self.roll(STREAM_FIFO, node, 0, seq) < self.fifo_drop
    }

    /// Replay: how many of the first `pushes` FIFO arrivals at `node`
    /// this plan forces to drop (what the chaos tests compare against the
    /// VIC's `fifo_forced_drops` stat).
    pub fn expected_fifo_forced_drops(&self, node: u64, pushes: u64) -> u64 {
        (0..pushes).filter(|&s| self.fifo_forced_drop(node, s)).count() as u64
    }

    /// Parse a `--faults` spec: comma-separated `key=value` pairs.
    ///
    /// | key | value | meaning |
    /// |---|---|---|
    /// | `seed` | u64 (decimal or `0x…`) | decision seed |
    /// | `drop` | probability `< 1` | per-packet link drop |
    /// | `dup` | probability | per-packet link duplication |
    /// | `stall` | `prob:ns` | per-batch ejection stall + duration (≤ [`MAX_FAULT_DELAY_NS`]) |
    /// | `gcrace` | `prob:ns` | group-counter-set delay + duration (≤ [`MAX_FAULT_DELAY_NS`]) |
    /// | `fifodrop` | probability `< 1` | per-push forced FIFO overflow |
    /// | `fifostorm` | `period:len` | drop `len` consecutive pushes every `period` (`1 <= period`, `len < period`) |
    ///
    /// `drop=1` would lose every packet and `fifodrop=1` every push, so no
    /// run could finish: both are refused, as is a storm as long as its
    /// period, and a key given twice (which value was meant is unknown).
    ///
    /// Example: `seed=7,fifodrop=0.02,fifostorm=257:3,stall=0.01:500`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (mut plan, mut keys) = (Self::default(), Vec::new());
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec item {part:?} is not key=value"))?;
            if keys.contains(&key) {
                return Err(format!("fault key {key:?} given twice"));
            }
            keys.push(key);
            match key {
                "seed" => plan.seed = parse_u64(value)?,
                "drop" => plan.link_drop = parse_loss(key, value, "packet")?,
                "dup" => plan.link_dup = parse_prob(key, value)?,
                "stall" => {
                    let (p, ns) = parse_prob_ns(key, value)?;
                    plan.eject_stall = p;
                    plan.eject_stall_time = ns;
                }
                "gcrace" => {
                    let (p, ns) = parse_prob_ns(key, value)?;
                    plan.gc_set_delay = p;
                    plan.gc_set_delay_time = ns;
                }
                "fifodrop" => plan.fifo_drop = parse_loss(key, value, "push")?,
                "fifostorm" => {
                    let (period, len) = value
                        .split_once(':')
                        .ok_or_else(|| format!("fifostorm wants period:len, got {value:?}"))?;
                    let (period, len) = (parse_u64(period)?, parse_u64(len)?);
                    if period == 0 || len >= period {
                        return Err(format!(
                            "fifostorm wants period >= 1 and len < period (period 0 is no storm, len >= period \
                             drops every push), got {value:?}"
                        ));
                    }
                    plan.fifo_storm_period = period;
                    plan.fifo_storm_len = len;
                }
                _ => return Err(format!("unknown fault key {key:?}")),
            }
        }
        Ok(plan)
    }
}

impl std::fmt::Display for FaultPlan {
    /// Canonical spec text (re-parses to an equal plan).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed={}", self.seed)?;
        if self.link_drop > 0.0 {
            write!(f, ",drop={}", self.link_drop)?;
        }
        if self.link_dup > 0.0 {
            write!(f, ",dup={}", self.link_dup)?;
        }
        if self.eject_stall > 0.0 {
            write!(f, ",stall={}:{}", self.eject_stall, self.eject_stall_time / 1000)?;
        }
        if self.gc_set_delay > 0.0 {
            write!(f, ",gcrace={}:{}", self.gc_set_delay, self.gc_set_delay_time / 1000)?;
        }
        if self.fifo_drop > 0.0 {
            write!(f, ",fifodrop={}", self.fifo_drop)?;
        }
        if self.fifo_storm_period > 0 {
            write!(f, ",fifostorm={}:{}", self.fifo_storm_period, self.fifo_storm_len)?;
        }
        Ok(())
    }
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad integer {s:?} in fault spec"))
}

fn parse_prob(key: &str, s: &str) -> Result<f64, String> {
    let p: f64 = s.trim().parse().map_err(|_| format!("bad probability {s:?} for {key}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{key}={p} outside [0, 1]"));
    }
    Ok(p)
}

/// A loss rate: a probability below 1, since at 1 every `what` is lost and
/// no run can finish.
fn parse_loss(key: &str, s: &str, what: &str) -> Result<f64, String> {
    let p = parse_prob(key, s)?;
    if p >= 1.0 {
        return Err(format!("{key} wants a probability below 1 ({key}=1 loses every {what}, so no run can finish), got {s:?}"));
    }
    Ok(p)
}

/// Longest `stall` or `gcrace` duration a spec may give: one second of
/// virtual time, far past any run's length, so a fault time added to a
/// delivery time can never overflow it.
pub const MAX_FAULT_DELAY_NS: u64 = 1_000_000_000;

fn parse_prob_ns(key: &str, s: &str) -> Result<(f64, Time), String> {
    let (p, ns) =
        s.split_once(':').ok_or_else(|| format!("{key} wants prob:ns, got {s:?}"))?;
    let ns = parse_u64(ns)?;
    if ns > MAX_FAULT_DELAY_NS {
        return Err(format!("{key} duration {ns} ns exceeds the {MAX_FAULT_DELAY_NS} ns cap"));
    }
    Ok((parse_prob(key, p)?, ns * crate::time::NS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.link_drops(0, 1, 0));
        assert!(!plan.fifo_forced_drop(0, 0));
        assert!(plan.eject_stall(0, 1, 0).is_none());
    }

    #[test]
    fn decisions_are_pure_functions_of_their_inputs() {
        let plan = FaultPlan { link_drop: 0.5, ..Default::default() };
        for seq in 0..64 {
            assert_eq!(plan.link_drops(2, 5, seq), plan.link_drops(2, 5, seq));
        }
        // Different links and different streams decide independently.
        let hits = |s: u64, d: u64| (0..4096).filter(|&q| plan.link_drops(s, d, q)).count();
        let a = hits(2, 5);
        let b = hits(5, 2);
        assert_ne!(a, b, "distinct links should not share decision sequences");
        for h in [a, b] {
            assert!((1500..2600).contains(&h), "p=0.5 over 4096 rolls gave {h}");
        }
    }

    #[test]
    fn storm_windows_are_periodic() {
        let plan = FaultPlan { fifo_storm_period: 10, fifo_storm_len: 2, ..Default::default() };
        for base in [0u64, 10, 250] {
            assert!(plan.fifo_forced_drop(3, base));
            assert!(plan.fifo_forced_drop(3, base + 1));
            assert!(!plan.fifo_forced_drop(3, base + 2));
        }
        assert_eq!(plan.expected_fifo_forced_drops(3, 100), 20);
    }

    #[test]
    fn replay_matches_rate_decisions() {
        let plan = FaultPlan { fifo_drop: 0.1, seed: 42, ..Default::default() };
        let live: u64 = (0..1000).filter(|&s| plan.fifo_forced_drop(7, s)).count() as u64;
        assert_eq!(plan.expected_fifo_forced_drops(7, 1000), live);
        assert!(live > 50 && live < 160, "p=0.1 over 1000 gave {live}");
    }

    #[test]
    fn parse_round_trips_through_display() {
        let spec = "seed=0x2A,drop=0.01,dup=0.005,stall=0.02:500,gcrace=1:5000,fifodrop=0.02,fifostorm=257:3";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.link_drop, 0.01);
        assert_eq!(plan.eject_stall_time, crate::time::ns(500));
        assert_eq!(plan.gc_set_delay, 1.0);
        assert_eq!(plan.fifo_storm_period, 257);
        let again = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, again);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("drop=1.5").is_err());
        assert!(FaultPlan::parse("wibble=1").is_err());
        assert!(FaultPlan::parse("stall=0.5").is_err());
        assert!(FaultPlan::parse("fifostorm=10").is_err());
        // A storm as long as its period drops every push; period 0 is none.
        for storm in ["fifostorm=4:4", "fifostorm=4:5", "fifostorm=0:5", "fifostorm=0:0"] {
            let err = FaultPlan::parse(storm).unwrap_err();
            assert!(err.contains("period >= 1 and len < period"), "{storm}: {err}");
        }
        assert_eq!(FaultPlan::parse("fifostorm=4:3").unwrap().fifo_storm_len, 3);
        // A loss rate of 1 loses everything; just below it is a plan.
        for loss in ["drop=1", "fifodrop=1", "seed=1,drop=1.0", "fifodrop=1e0"] {
            let err = FaultPlan::parse(loss).unwrap_err();
            assert!(err.contains("probability below 1"), "{loss}: {err}");
        }
        assert_eq!(FaultPlan::parse("drop=0.999").unwrap().link_drop, 0.999);
        assert_eq!(FaultPlan::parse("fifodrop=0.999").unwrap().fifo_drop, 0.999);
        assert!(FaultPlan::parse("stall=0.1:20000000000000000").is_err());
        assert!(FaultPlan::parse("gcrace=0.1:20000000000000000").is_err());
        // Fits virtual time, but a delivery time plus it would not.
        assert!(FaultPlan::parse("seed=7,stall=0.5:18446744073709551").is_err());
        assert!(FaultPlan::parse("gcrace=0.5:18446744073709551").is_err());
        let cap = format!("stall=0.5:{MAX_FAULT_DELAY_NS}");
        assert_eq!(FaultPlan::parse(&cap).unwrap().eject_stall_time, MAX_FAULT_DELAY_NS * crate::time::NS);
        assert!(FaultPlan::parse(&format!("stall=0.5:{}", MAX_FAULT_DELAY_NS + 1)).is_err());
        // A repeated key must not silently replace the first value.
        for (spec, key) in [("seed=7,fifodrop=0.02,fifodrop=0", "\"fifodrop\""), ("seed=1, seed=1", "\"seed\"")] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains(key) && err.contains("given twice"), "{spec}: {err}");
        }
        // Empty spec = default (inert) plan.
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }
}
