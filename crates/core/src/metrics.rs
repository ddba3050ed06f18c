//! Deterministic, dependency-free metrics: counters, gauges, histograms.
//!
//! Every layer of the workspace (switch, VIC, scheduler, comm paths)
//! records what it did into a [`MetricsRegistry`]; a benchmark harvests
//! a [`MetricsSnapshot`] at the end of a run and emits it as JSON
//! (`BENCH_*.json`). Two properties carry the design:
//!
//! * **Cheap when off.** A disabled registry costs one relaxed atomic
//!   load per record call and performs no allocation — the same contract
//!   as [`crate::trace::Tracer`]. Labels are passed as borrowed slices of
//!   [`LabelValue`] (stack-only) and are converted to owned strings only
//!   when the registry is enabled.
//! * **Deterministic when on.** Metrics are keyed by a static `&str`
//!   name plus a `BTreeMap` of labels, so iteration order — and therefore
//!   the rendered JSON — is stable. A [`MetricsSnapshot`] is FNV-hashable
//!   like a `dv_sim::OrderAudit` trace: two runs of the same workload must
//!   produce bit-identical snapshots, and `tests/determinism.rs` asserts
//!   exactly that.
//!
//! Naming scheme: `<crate>.<component>.<metric>` (e.g.
//! `vic.gc.decrements`, `switch.cycle.hops`, `mpi.coll.time_ps`).
//! Durations are recorded in picoseconds with a `_ps` suffix.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::fnv::Fnv1a;
use crate::json::Json;
use crate::stats::Log2Histogram;
use crate::sync::Mutex;
use crate::time::Time;
use crate::trace::Tracer;

/// Default histogram depth: log₂ buckets up to 2^47 (enough for any
/// picosecond duration the simulations produce).
const HIST_BUCKETS: usize = 48;

/// A borrowed label value; built on the caller's stack so the disabled
/// path never allocates.
#[derive(Debug, Clone)]
pub enum LabelValue {
    /// An integer label (rendered in decimal).
    U64(u64),
    /// A static string label.
    Str(&'static str),
    /// An owned string label (allocated by the caller).
    Owned(String),
}

impl LabelValue {
    fn render(&self) -> String {
        match self {
            LabelValue::U64(x) => x.to_string(),
            LabelValue::Str(s) => (*s).to_string(),
            LabelValue::Owned(s) => s.clone(),
        }
    }
}

impl From<u64> for LabelValue {
    fn from(x: u64) -> Self {
        LabelValue::U64(x)
    }
}

impl From<usize> for LabelValue {
    fn from(x: usize) -> Self {
        LabelValue::U64(x as u64)
    }
}

impl From<u32> for LabelValue {
    fn from(x: u32) -> Self {
        LabelValue::U64(x as u64)
    }
}

impl From<&'static str> for LabelValue {
    fn from(s: &'static str) -> Self {
        LabelValue::Str(s)
    }
}

impl From<String> for LabelValue {
    fn from(s: String) -> Self {
        LabelValue::Owned(s)
    }
}

/// Labels as recorded: a sorted map, so iteration (and JSON) is stable.
pub type Labels = BTreeMap<String, String>;

type Key = (&'static str, Labels);

fn owned_labels(labels: &[(&str, LabelValue)]) -> Labels {
    labels.iter().map(|(k, v)| ((*k).to_string(), v.render())).collect()
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, Log2Histogram>,
}

/// A component's interval-flush callback: invoked with the registry and
/// the current virtual time just before each series sample is
/// taken, so locally-accumulated counters (VIC stats, switch arenas) can
/// be folded in incrementally. Hooks must be idempotent under repeated
/// calls at the same state (flushing nothing new must record nothing).
pub type FlushHook = Box<dyn Fn(&MetricsRegistry, Time) + Send>;

#[derive(Default)]
struct SamplerState {
    series: Option<Timeseries>,
    flush_hooks: Vec<FlushHook>,
}

/// The metrics sink shared by one simulated cluster run.
///
/// Clusters thread an `Arc<MetricsRegistry>` through their worlds the
/// same way they thread a `Tracer`; benchmarks create an enabled one,
/// run, then call [`MetricsRegistry::snapshot`].
///
/// With a series attached (see [`MetricsRegistry::attach_series`])
/// the registry additionally self-samples at deterministic virtual-time
/// boundaries: the scheduler calls [`MetricsRegistry::tick`] with the
/// virtual timestamp of every event it dispatches, and the registry emits
/// one delta-compressed sample per crossed interval boundary. Sampling is
/// keyed purely to virtual time — never the host clock — so the sample
/// stream is byte-identical across runs.
pub struct MetricsRegistry {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
    /// Virtual time of the next pending sample boundary; `u64::MAX` when
    /// no series is attached, so [`MetricsRegistry::tick`]'s fast path is
    /// a single relaxed atomic load (the same contract as the disabled
    /// recording path).
    next_sample_ps: AtomicU64,
    sampler: Mutex<SamplerState>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl MetricsRegistry {
    fn with_enabled(enabled: bool) -> Self {
        Self {
            enabled: AtomicBool::new(enabled),
            inner: Mutex::new(Inner::default()),
            next_sample_ps: AtomicU64::new(u64::MAX),
            sampler: Mutex::new_named("metrics.sampler", SamplerState::default()),
        }
    }

    /// A registry that records everything.
    pub fn enabled() -> Self {
        Self::with_enabled(true)
    }

    /// A registry that drops everything (one atomic load per call, no
    /// allocation).
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    /// A shared disabled registry (the default for un-instrumented runs).
    pub fn disabled_shared() -> Arc<Self> {
        Arc::new(Self::disabled())
    }

    /// Is recording on?
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Add `by` to an unlabeled counter.
    pub fn incr(&self, name: &'static str, by: u64) {
        self.incr_labeled(name, &[], by);
    }

    /// Add `by` to a labeled counter.
    pub fn incr_labeled(&self, name: &'static str, labels: &[(&str, LabelValue)], by: u64) {
        if !self.is_enabled() {
            return;
        }
        *self.inner.lock().counters.entry((name, owned_labels(labels))).or_insert(0) += by;
    }

    /// Set an unlabeled gauge (last write wins).
    pub fn gauge(&self, name: &'static str, value: f64) {
        self.gauge_labeled(name, &[], value);
    }

    /// Set a labeled gauge (last write wins).
    pub fn gauge_labeled(&self, name: &'static str, labels: &[(&str, LabelValue)], value: f64) {
        if !self.is_enabled() {
            return;
        }
        self.inner.lock().gauges.insert((name, owned_labels(labels)), value);
    }

    /// Raise a labeled gauge to at least `value` (high-water marks).
    pub fn gauge_max(&self, name: &'static str, labels: &[(&str, LabelValue)], value: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        let slot = inner.gauges.entry((name, owned_labels(labels))).or_insert(f64::NEG_INFINITY);
        if value > *slot {
            *slot = value;
        }
    }

    /// Count one sample into an unlabeled log₂ histogram.
    pub fn observe(&self, name: &'static str, sample: u64) {
        self.observe_labeled(name, &[], sample);
    }

    /// Count one sample into a labeled log₂ histogram.
    pub fn observe_labeled(&self, name: &'static str, labels: &[(&str, LabelValue)], sample: u64) {
        if !self.is_enabled() {
            return;
        }
        self.inner
            .lock()
            .histograms
            .entry((name, owned_labels(labels)))
            .or_insert_with(|| Log2Histogram::new(HIST_BUCKETS))
            .push(sample);
    }

    /// Fold a whole pre-accumulated histogram into a labeled one (used by
    /// components that keep local histograms out of their hot loops).
    pub fn observe_histogram(
        &self,
        name: &'static str,
        labels: &[(&str, LabelValue)],
        hist: &Log2Histogram,
    ) {
        if !self.is_enabled() || hist.total() == 0 {
            return;
        }
        self.inner
            .lock()
            .histograms
            .entry((name, owned_labels(labels)))
            .or_insert_with(|| Log2Histogram::new(HIST_BUCKETS))
            .merge(hist);
    }

    /// Copy out everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|((n, l), v)| (((*n).to_string(), l.clone()), *v))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|((n, l), v)| (((*n).to_string(), l.clone()), *v))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|((n, l), h)| {
                    (
                        ((*n).to_string(), l.clone()),
                        HistogramSnapshot { buckets: trim(h.buckets()), total: h.total() },
                    )
                })
                .collect(),
        }
    }

    /// Attach a time series: from now on, [`MetricsRegistry::tick`] emits
    /// one delta-compressed sample per crossed `interval_ps` boundary of
    /// virtual time (the first boundary is at `interval_ps`, covering
    /// `[0, interval_ps)`), and `sink` sees every sample as it is taken
    /// (the bench harness points it at a `dv-events-v1` JSONL writer).
    /// The series lives until [`MetricsRegistry::finish_series`].
    pub fn attach_series(&self, interval_ps: Time, sink: impl FnMut(&TimeseriesSample) + Send + 'static) {
        assert!(interval_ps > 0, "sample interval must be positive");
        let series =
            Timeseries { interval_ps, prev: MetricsSnapshot::default(), next_seq: 0, sink: Box::new(sink) };
        self.sampler.lock().series = Some(series);
        self.next_sample_ps.store(interval_ps, Ordering::Relaxed);
    }

    /// Register an interval-flush hook, run (in registration order) just
    /// before every sample so components holding local accumulators can
    /// fold their progress in. Hooks survive for the registry's lifetime;
    /// components that may outlive a run should capture weak references.
    pub fn register_flush(&self, hook: impl Fn(&MetricsRegistry, Time) + Send + 'static) {
        self.sampler.lock().flush_hooks.push(Box::new(hook));
    }

    /// Advance the sampler to virtual time `now`, emitting one sample per
    /// crossed interval boundary. The scheduler calls this with each
    /// dispatched event's timestamp *before* dispatching it, so a sample
    /// at boundary `b` captures the effects of every event dispatched
    /// strictly before the first event at or after `b` — a deterministic
    /// cut, independent of host scheduling. With no series attached this
    /// is one relaxed atomic load.
    pub fn tick(&self, now: Time) {
        if now < self.next_sample_ps.load(Ordering::Relaxed) {
            return;
        }
        self.sample_at(now, false);
    }

    /// Record the final sample of a run at virtual time `end` (after all
    /// end-of-run publishes) and detach the series. Subsequent ticks are
    /// no-ops until a new series is attached.
    pub fn finish_series(&self, end: Time) {
        self.sample_at(end, true);
        self.next_sample_ps.store(u64::MAX, Ordering::Relaxed);
    }

    fn sample_at(&self, now: Time, finishing: bool) {
        let mut sampler = self.sampler.lock();
        if sampler.series.is_none() {
            return;
        }
        for hook in &sampler.flush_hooks {
            hook(self, now);
        }
        let snap = self.snapshot();
        let series = sampler.series.as_mut().expect("checked above");
        if finishing {
            series.record(now, snap);
            sampler.series = None;
            return;
        }
        let interval = series.interval_ps;
        let mut boundary = self.next_sample_ps.load(Ordering::Relaxed);
        if now < boundary {
            return;
        }
        // One sample for the first crossed boundary; later boundaries in
        // the same gap would carry empty deltas and are skipped outright.
        series.record(boundary, snap);
        while boundary <= now {
            boundary += interval;
        }
        self.next_sample_ps.store(boundary, Ordering::Relaxed);
    }
}

/// One delta-compressed sample of an attached series, as its sink sees it.
pub struct TimeseriesSample {
    /// Monotonic index of this sample within its series (0-based; empty
    /// deltas are skipped and consume no index).
    pub seq: u64,
    /// Virtual time of the sample boundary, in picoseconds.
    pub t_ps: Time,
    /// Everything recorded since the previous sample (see
    /// [`MetricsSnapshot::delta`]).
    pub delta: MetricsSnapshot,
}

impl TimeseriesSample {
    /// The `dv-events-v1` sample line:
    /// `{"event":"sample","seq":…,"t_ps":…,"delta":{…}}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("event".to_string(), Json::str("sample")),
            ("seq".to_string(), Json::U64(self.seq)),
            ("t_ps".to_string(), Json::U64(self.t_ps)),
            ("delta".to_string(), self.delta.to_json()),
        ])
    }
}

/// A streaming consumer of samples.
type SampleSink = Box<dyn FnMut(&TimeseriesSample) + Send>;

/// Delta-compressed [`MetricsSnapshot`] samples taken at deterministic
/// virtual-time intervals, each handed to the sink as it is taken; the
/// series keeps only the baseline of the next delta.
///
/// Samples are pure functions of the simulated event sequence: the same
/// workload produces bit-identical samples. Empty deltas — intervals in
/// which nothing was recorded — are skipped, so `t_ps` gaps between
/// consecutive samples are meaningful and renderers must not assume
/// uniform spacing.
struct Timeseries {
    interval_ps: Time,
    /// Cumulative state at the previous sample (delta baseline).
    prev: MetricsSnapshot,
    next_seq: u64,
    sink: SampleSink,
}

impl Timeseries {
    /// Record the state `snap` observed at virtual time `t_ps`: the delta
    /// against the previous sample goes to the sink. Empty deltas (idle
    /// intervals) are skipped entirely.
    fn record(&mut self, t_ps: Time, snap: MetricsSnapshot) {
        let delta = snap.delta(&self.prev);
        if delta.is_empty() {
            return;
        }
        self.prev = snap;
        (self.sink)(&TimeseriesSample { seq: self.next_seq, t_ps, delta });
        self.next_seq += 1;
    }
}

fn trim(buckets: &[u64]) -> Vec<u64> {
    let last = buckets.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
    buckets[..last].to_vec()
}

/// Frozen histogram contents (trailing empty buckets trimmed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))`, bucket 0
    /// also catches zero.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub total: u64,
}

/// Owned metric key: name plus sorted labels.
pub type MetricKey = (String, Labels);

/// An immutable copy of a registry's contents, with deterministic
/// iteration order, canonical JSON rendering, and an FNV-1a hash for
/// bit-exactness assertions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// All counters in key order.
    pub fn counters(&self) -> &BTreeMap<MetricKey, u64> {
        &self.counters
    }

    /// All gauges in key order.
    pub fn gauges(&self) -> &BTreeMap<MetricKey, f64> {
        &self.gauges
    }

    /// All histograms in key order.
    pub fn histograms(&self) -> &BTreeMap<MetricKey, HistogramSnapshot> {
        &self.histograms
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// A counter's value by name and rendered labels (diagnostics/tests).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key =
            (name.to_string(), labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect());
        self.counters.get(&key).copied()
    }

    /// Sum of a counter across all label sets with the given name.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.iter().filter(|((n, _), _)| n == name).map(|(_, v)| v).sum()
    }

    /// The canonical JSON tree (keys in sorted order; see the module docs
    /// for the schema).
    pub fn to_json(&self) -> Json {
        let key_obj = |(name, labels): &MetricKey| -> Vec<(String, Json)> {
            let mut members = vec![("name".to_string(), Json::str(name.clone()))];
            if !labels.is_empty() {
                members.push((
                    "labels".to_string(),
                    Json::Obj(
                        labels.iter().map(|(k, v)| (k.clone(), Json::str(v.clone()))).collect(),
                    ),
                ));
            }
            members
        };
        Json::Obj(vec![
            (
                "counters".to_string(),
                Json::Arr(
                    self.counters
                        .iter()
                        .map(|(k, v)| {
                            let mut m = key_obj(k);
                            m.push(("value".to_string(), Json::U64(*v)));
                            Json::Obj(m)
                        })
                        .collect(),
                ),
            ),
            (
                "gauges".to_string(),
                Json::Arr(
                    self.gauges
                        .iter()
                        .map(|(k, v)| {
                            let mut m = key_obj(k);
                            m.push(("value".to_string(), Json::F64(*v)));
                            Json::Obj(m)
                        })
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Json::Arr(
                    self.histograms
                        .iter()
                        .map(|(k, h)| {
                            let mut m = key_obj(k);
                            m.push(("total".to_string(), Json::U64(h.total)));
                            m.push((
                                "buckets".to_string(),
                                Json::Arr(h.buckets.iter().map(|&c| Json::U64(c)).collect()),
                            ));
                            Json::Obj(m)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Canonical compact rendering; identical snapshots yield identical
    /// bytes.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// FNV-1a hash over the canonical rendering — the metrics counterpart
    /// of `OrderAudit::hash`.
    pub fn fnv_hash(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.bytes(self.render().as_bytes());
        h.finish()
    }

    /// Rebuild a snapshot from its [`MetricsSnapshot::to_json`] form
    /// (used by `dv-report` to read `BENCH_*.json` back).
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let key_of = |entry: &Json| -> Result<MetricKey, String> {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric entry is missing `name`")?
                .to_string();
            let labels = match entry.get("labels") {
                None => Labels::new(),
                Some(l) => l
                    .as_obj()
                    .ok_or("`labels` must be an object")?
                    .iter()
                    .map(|(k, v)| {
                        v.as_str()
                            .map(|v| (k.clone(), v.to_string()))
                            .ok_or_else(|| format!("label {k:?} is not a string"))
                    })
                    .collect::<Result<_, _>>()?,
            };
            Ok((name, labels))
        };
        let section = |key: &str| -> Result<&[Json], String> {
            json.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("snapshot is missing the `{key}` array"))
        };
        let mut out = MetricsSnapshot::default();
        for entry in section("counters")? {
            let v = entry.get("value").and_then(Json::as_u64).ok_or("counter without value")?;
            out.counters.insert(key_of(entry)?, v);
        }
        for entry in section("gauges")? {
            let v = entry.get("value").and_then(Json::as_f64).ok_or("gauge without value")?;
            out.gauges.insert(key_of(entry)?, v);
        }
        for entry in section("histograms")? {
            let total =
                entry.get("total").and_then(Json::as_u64).ok_or("histogram without total")?;
            let buckets = entry
                .get("buckets")
                .and_then(Json::as_arr)
                .ok_or("histogram without buckets")?
                .iter()
                .map(|b| b.as_u64().ok_or("non-integer bucket count"))
                .collect::<Result<Vec<_>, _>>()?;
            out.histograms.insert(key_of(entry)?, HistogramSnapshot { buckets, total });
        }
        Ok(out)
    }

    /// Everything recorded between `prev` and `self`, where `prev` is an
    /// earlier snapshot of the same registry.
    ///
    /// * **Counters** appear with their increase; unchanged counters are
    ///   omitted — except that a key absent from `prev` always appears
    ///   (even at zero), so folding deltas reproduces zero-valued
    ///   counters byte-for-byte. Counters are monotone; a decrease is
    ///   debug-asserted and saturates to zero in release builds.
    /// * **Gauges** appear when their bits changed (last write wins on
    ///   reconstruction).
    /// * **Histograms** appear with the interval's bucket counts; quiet
    ///   histograms are omitted.
    pub fn delta(&self, prev: &Self) -> Self {
        let mut out = MetricsSnapshot::default();
        for (k, &v) in &self.counters {
            match prev.counters.get(k) {
                None => {
                    out.counters.insert(k.clone(), v);
                }
                Some(&was) => {
                    debug_assert!(was <= v, "counter {k:?} shrank: {was} -> {v}");
                    let d = v.saturating_sub(was);
                    if d > 0 {
                        out.counters.insert(k.clone(), d);
                    }
                }
            }
        }
        for (k, &v) in &self.gauges {
            if prev.gauges.get(k).map(|w| w.to_bits()) != Some(v.to_bits()) {
                out.gauges.insert(k.clone(), v);
            }
        }
        for (k, h) in &self.histograms {
            let d = match prev.histograms.get(k) {
                None => h.clone(),
                Some(was) => {
                    debug_assert!(
                        was.total <= h.total,
                        "histogram {k:?} shrank: {} -> {}",
                        was.total,
                        h.total
                    );
                    let buckets: Vec<u64> = h
                        .buckets
                        .iter()
                        .zip(was.buckets.iter().chain(std::iter::repeat(&0)))
                        .map(|(&now, &b)| {
                            debug_assert!(b <= now, "histogram {k:?} bucket shrank");
                            now.saturating_sub(b)
                        })
                        .collect();
                    HistogramSnapshot { buckets: trim(&buckets), total: buckets.iter().sum() }
                }
            };
            if d.total > 0 {
                out.histograms.insert(k.clone(), d);
            }
        }
        out
    }
}

/// Fold a tracer's per-node, per-state virtual-time totals into
/// `trace.state_ps{node,state}` counters. Clusters call this at the end
/// of a run when both the tracer and the registry are enabled.
pub fn record_state_totals(tracer: &Tracer, metrics: &MetricsRegistry) {
    if !metrics.is_enabled() || !tracer.is_enabled() {
        return;
    }
    for ((node, state), total) in tracer.state_totals() {
        metrics.incr_labeled(
            "trace.state_ps",
            &[("node", node.into()), ("state", state.name().into())],
            total as Time,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::State;

    fn sample_registry() -> MetricsRegistry {
        let m = MetricsRegistry::enabled();
        m.incr("a.b.count", 3);
        m.incr_labeled("vic.gc.sets", &[("node", 2usize.into())], 1);
        m.incr_labeled("vic.gc.sets", &[("node", 0usize.into())], 4);
        m.gauge_labeled("pcie.util", &[("node", 1usize.into())], 0.75);
        m.observe("lat_ps", 1000);
        m.observe("lat_ps", 9);
        m
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let m = MetricsRegistry::disabled();
        m.incr("x", 1);
        m.gauge("g", 1.0);
        m.observe("h", 7);
        m.incr_labeled("y", &[("k", "v".into())], 1);
        assert!(m.snapshot().is_empty());
    }

    #[test]
    fn counters_accumulate_and_labels_separate() {
        let s = sample_registry().snapshot();
        assert_eq!(s.counter("a.b.count", &[]), Some(3));
        assert_eq!(s.counter("vic.gc.sets", &[("node", "0")]), Some(4));
        assert_eq!(s.counter("vic.gc.sets", &[("node", "2")]), Some(1));
        assert_eq!(s.counter_total("vic.gc.sets"), 5);
        assert_eq!(s.counter("vic.gc.sets", &[("node", "1")]), None);
    }

    #[test]
    fn snapshots_hash_bit_identically() {
        let a = sample_registry().snapshot();
        let b = sample_registry().snapshot();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.fnv_hash(), b.fnv_hash());
        // Sensitivity: one extra increment must change the hash.
        let m = sample_registry();
        m.incr("a.b.count", 1);
        assert_ne!(m.snapshot().fnv_hash(), a.fnv_hash());
    }

    #[test]
    fn snapshot_json_round_trips() {
        let s = sample_registry().snapshot();
        let json = s.to_json();
        let back = MetricsSnapshot::from_json(&Json::parse(&json.render()).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.fnv_hash(), s.fnv_hash());
    }

    #[test]
    fn histogram_snapshot_trims_trailing_zeros() {
        let m = MetricsRegistry::enabled();
        m.observe("h", 4); // bucket 2
        let s = m.snapshot();
        let h = s.histograms().values().next().unwrap();
        assert_eq!(h.buckets, vec![0, 0, 1]);
        assert_eq!(h.total, 1);
    }

    #[test]
    fn gauge_max_keeps_the_high_water_mark() {
        let m = MetricsRegistry::enabled();
        m.gauge_max("hwm", &[], 3.0);
        m.gauge_max("hwm", &[], 1.0);
        m.gauge_max("hwm", &[], 7.0);
        assert_eq!(*m.snapshot().gauges().values().next().unwrap(), 7.0);
    }

    #[test]
    fn observe_histogram_merges_prefolded_data() {
        let mut local = Log2Histogram::new(8);
        local.push(2);
        local.push(300);
        let m = MetricsRegistry::enabled();
        m.observe_histogram("switch.cycle.hops", &[("cyl", 0usize.into())], &local);
        m.observe_labeled("switch.cycle.hops", &[("cyl", 0usize.into())], 2);
        let s = m.snapshot();
        let h = s.histograms().values().next().unwrap();
        assert_eq!(h.total, 3);
    }

    #[test]
    fn delta_isolates_the_interval() {
        let m = sample_registry();
        let at_boundary = m.snapshot();
        // More activity after the boundary, including a fresh zero-valued
        // counter and a gauge rewrite.
        m.incr("a.b.count", 5);
        m.incr_labeled("vic.fifo.drops", &[("node", 0usize.into())], 0);
        m.gauge_labeled("pcie.util", &[("node", 1usize.into())], 0.25);
        m.observe("lat_ps", 1 << 20);
        let fin = m.snapshot();
        let d = fin.delta(&at_boundary);
        // The interval delta carries only what happened in the interval:
        // one increase, one new counter at zero, one gauge, one sample.
        assert_eq!(d.counter("a.b.count", &[]), Some(5));
        assert_eq!(d.counter("vic.gc.sets", &[("node", "0")]), None);
        assert_eq!(d.counter("vic.fifo.drops", &[("node", "0")]), Some(0));
        assert_eq!(d.gauges().len(), 1);
        let lat = d.histograms().values().next().expect("lat_ps moved");
        assert_eq!((lat.total, lat.buckets.len()), (1, 21));
        // The first delta is the whole snapshot; an idle interval is empty.
        assert_eq!(at_boundary.delta(&MetricsSnapshot::default()), at_boundary);
        assert!(fin.delta(&fin).is_empty());
    }

    type Samples = Arc<std::sync::Mutex<Vec<(u64, Time, MetricsSnapshot)>>>;

    /// Attach a series whose sink keeps every sample as `(seq, t_ps, delta)`.
    fn attach_collecting(m: &MetricsRegistry, interval_ps: Time) -> Samples {
        let samples = Samples::default();
        let sink = Arc::clone(&samples);
        m.attach_series(interval_ps, move |s| {
            sink.lock().unwrap().push((s.seq, s.t_ps, s.delta.clone()));
        });
        samples
    }

    #[test]
    fn series_samples_at_virtual_time_boundaries() {
        let m = MetricsRegistry::enabled();
        let samples = attach_collecting(&m, 100);
        m.incr("work", 1);
        m.tick(40); // before the first boundary: no sample
        m.incr("work", 2);
        m.tick(150); // crosses t=100
        m.incr("work", 4);
        m.tick(460); // crosses t=200..400 in one hop: one sample, no empties
        m.finish_series(500);
        let samples = samples.lock().unwrap();
        // Two samples: t=100 and t=200. The t=400 boundary and the final
        // sample at t=500 saw nothing new, and empty deltas are skipped.
        assert_eq!(samples.iter().map(|s| s.1).collect::<Vec<_>>(), vec![100, 200]);
        assert_eq!(samples[0].2.counter("work", &[]), Some(3));
        assert_eq!(samples[1].2.counter("work", &[]), Some(4));
    }

    #[test]
    fn sink_sees_every_sample_in_seq_order_until_the_series_finishes() {
        let m = MetricsRegistry::enabled();
        let samples = attach_collecting(&m, 10);
        for i in 0..8u64 {
            m.incr("w", 1);
            m.tick(10 * (i + 1));
        }
        m.incr("w", 1);
        m.finish_series(85);
        // Detached: later activity reaches no sink.
        m.incr("w", 1);
        m.tick(1_000);
        m.finish_series(1_000);
        let seen: Vec<(u64, Time)> = samples.lock().unwrap().iter().map(|s| (s.0, s.1)).collect();
        let expect: Vec<(u64, Time)> = (0..8).map(|i| (i, 10 * (i + 1))).chain([(8, 85)]).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn flush_hooks_run_before_each_sample() {
        let m = MetricsRegistry::enabled();
        let samples = attach_collecting(&m, 100);
        m.register_flush(|reg, _now| reg.incr("hook.flushes", 1));
        m.incr("w", 1);
        m.tick(120);
        m.incr("w", 1);
        m.tick(220);
        let samples = samples.lock().unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].2.counter("hook.flushes", &[]), Some(1));
        assert_eq!(samples[1].2.counter("hook.flushes", &[]), Some(1));
    }

    #[test]
    fn identical_series_render_identically() {
        let run = || {
            let m = MetricsRegistry::enabled();
            let lines = Arc::new(std::sync::Mutex::new(String::new()));
            let sink = Arc::clone(&lines);
            m.attach_series(50, move |s| {
                let mut out = sink.lock().unwrap();
                out.push_str(&s.to_json().render());
                out.push('\n');
            });
            for i in 1..6u64 {
                m.incr_labeled("w", &[("node", (i % 2).into())], i);
                m.observe("h", i * 100);
                m.tick(40 * i);
            }
            m.finish_series(300);
            let out = lines.lock().unwrap().clone();
            out
        };
        let (a, b) = (run(), run());
        assert!(a.starts_with(r#"{"event":"sample","seq":0,"t_ps":50,"delta":{"#), "{a}");
        assert_eq!(a, b);
    }

    #[test]
    fn state_totals_are_recorded_as_counters() {
        let t = Tracer::enabled();
        t.span(0, State::Compute, 0, 100);
        t.span(0, State::Compute, 200, 250);
        t.span(1, State::Send, 0, 30);
        let m = MetricsRegistry::enabled();
        record_state_totals(&t, &m);
        let s = m.snapshot();
        assert_eq!(s.counter("trace.state_ps", &[("node", "0"), ("state", "Compute")]), Some(150));
        assert_eq!(s.counter("trace.state_ps", &[("node", "1"), ("state", "Send")]), Some(30));
    }
}
