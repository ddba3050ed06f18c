//! The one cycle-engine interface and the substrate every engine shares.
//!
//! [`CycleEngine`] is the whole surface a driver needs — queue a packet,
//! advance a cycle, read the conservation counters, flush statistics —
//! so load sweeps, replay benches and the equivalence / conservation /
//! allocation harnesses are each written once, generic over the trait,
//! for the deflection switch ([`crate::SwitchSim`]) and the
//! store-and-forward rival engine ([`crate::RoutedNetSim`]).
//!
//! Two private building blocks carry what the engines used to
//! copy from each other: [`Ingress`] (per-port injection FIFOs in one
//! free-listed slab, plus the pending-port bitmap the injection scans
//! walk) and [`Tally`] (cycle and conservation counters, the hop
//! histogram, and their one publication path, the flush). What differs
//! per engine — routing, arenas, movement kernels — stays in the engine.

use dv_core::metrics::MetricsRegistry;
use dv_core::stats::Log2Histogram;

use crate::cycle::Delivered;

/// A cycle-stepped network simulator: packets are queued at input ports,
/// move one hop per cycle, and leave as [`Delivered`] records.
///
/// Every implementor keeps `injected() == ejected() + in flight` and
/// `enqueued == ejected() + outstanding()` on every cycle
/// (`crates/switch/tests/conservation.rs`).
pub trait CycleEngine {
    /// Queue a packet at `src_port` bound for `dst_port`.
    fn enqueue(&mut self, src_port: usize, dst_port: usize, tag: u64);

    /// Advance one cycle, appending the packets ejected during it to
    /// `out`. Neither engine allocates here once `out` has
    /// grown to a cycle's worth (`tests/switch_alloc.rs`).
    fn step_into(&mut self, out: &mut Vec<Delivered>);

    /// Current cycle number.
    fn cycle(&self) -> u64;

    /// Packets queued at input ports plus in flight.
    fn outstanding(&self) -> usize;

    /// Packets accepted into the network so far.
    fn injected(&self) -> u64;

    /// Packets delivered so far.
    fn ejected(&self) -> u64;

    /// Fold the statistics accumulated since the previous flush — the
    /// whole run at the first — into `metrics` and start the next
    /// interval. A run flushed once at its end publishes its totals;
    /// interval flushes sum to exactly the same totals (gauges are per
    /// interval).
    fn flush_metrics(&mut self, metrics: &MetricsRegistry);

    /// Advance one cycle; returns the packets ejected during it.
    /// Throughput-bound callers reuse a buffer via
    /// [`CycleEngine::step_into`] instead.
    fn step(&mut self) -> Vec<Delivered> {
        let mut out = Vec::new();
        self.step_into(&mut out);
        out
    }

    /// Step until everything queued and in flight is delivered, or until
    /// `max_cycles` elapse. Returns everything delivered.
    fn drain(&mut self, max_cycles: u64) -> Vec<Delivered> {
        let mut all = Vec::new();
        let deadline = self.cycle() + max_cycles;
        while self.outstanding() > 0 && self.cycle() < deadline {
            self.step_into(&mut all);
        }
        all
    }
}

/// A queued packet, as compact as an input FIFO entry can be (24 bytes):
/// the source is the FIFO it sits in, and destination coordinates and the
/// injection cycle are derived when it actually enters the network.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    pub(crate) dst_port: u32,
    /// The next entry of the same FIFO, or of the free list.
    next: u32,
    pub(crate) tag: u64,
    pub(crate) enqueue_cycle: u64,
}

/// The end of the free list.
const NIL: u32 = u32::MAX;

/// The injection side of an engine: one unbounded FIFO per input port
/// (sweeps bound them through [`CycleEngine::outstanding`]) and a bitmap
/// of the ports that hold a packet, so injection visits only those. The
/// FIFOs and a free list are linked through one slab: pops never allocate.
pub(crate) struct Ingress {
    /// Entry `port` is that port's sentinel: its `next` is the FIFO's head.
    slab: Vec<Queued>,
    /// The newest entry per port, or the port's sentinel while it is empty.
    tail: Vec<usize>,
    /// The most recently freed entry, or [`NIL`].
    free: u32,
    /// Bit `port % 64` of word `port / 64` is set iff the port's FIFO is
    /// non-empty.
    pending: Vec<u64>,
    /// Total packets across all FIFOs (keeps `outstanding()` O(1) —
    /// sweeps call it per arrival).
    queued: usize,
}

impl Ingress {
    /// Empty FIFOs for `ports` input ports. Both engines narrow
    /// port indices to 16 bits in flight (`Flit`, ring entries), so this
    /// is where the bound is enforced.
    pub(crate) fn new(ports: usize) -> Self {
        assert!(
            ports <= 1 << 16,
            "cycle engines pack port indices into 16 bits: at most 65536 ports, got {ports}"
        );
        Self {
            slab: vec![Queued { dst_port: 0, next: NIL, tag: 0, enqueue_cycle: 0 }; ports],
            tail: (0..ports).collect(),
            free: NIL,
            pending: vec![0; ports.div_ceil(64)],
            queued: 0,
        }
    }

    pub(crate) fn push(&mut self, src_port: usize, dst_port: usize, tag: u64, cycle: u64) {
        let ports = self.tail.len();
        assert!(src_port < ports && dst_port < ports);
        let dst_port = u32::try_from(dst_port).expect("port index fits in u32");
        let entry = Queued { dst_port, next: NIL, tag, enqueue_cycle: cycle };
        if self.free == NIL {
            // Grow the free list by one entry, which `entry` then takes.
            self.free = u32::try_from(self.slab.len()).expect("slab stays under 2^32 entries");
            self.slab.push(entry);
        }
        let slot = self.free;
        self.free = std::mem::replace(&mut self.slab[slot as usize], entry).next;
        self.slab[self.tail[src_port]].next = slot;
        self.tail[src_port] = slot as usize;
        self.pending[src_port >> 6] |= 1 << (src_port & 63);
        self.queued += 1;
    }

    /// Pop the head of `port`'s FIFO (the port must be pending).
    #[inline]
    pub(crate) fn pop(&mut self, port: usize) -> Queued {
        debug_assert!(self.tail[port] != port, "pop from empty port {port}");
        let slot = self.slab[port].next;
        let q = self.slab[slot as usize];
        self.slab[port].next = q.next;
        if slot as usize == self.tail[port] {
            self.tail[port] = port;
            self.pending[port >> 6] &= !(1 << (port & 63));
        }
        self.slab[slot as usize].next = self.free;
        self.free = slot;
        self.queued -= 1;
        q
    }

    /// The pending-port bitmap, one word per 64 ports.
    #[inline]
    pub(crate) fn pending(&self) -> &[u64] {
        &self.pending
    }

    #[inline]
    pub(crate) fn queued(&self) -> usize {
        self.queued
    }
}

/// Metric names of one engine family: `[cycles, injected, ejected, hops]`.
pub(crate) type Names = [&'static str; 4];

/// The accounting every engine keeps, as plain accumulators (no registry
/// calls in the per-cycle loop), and its publication under the family's
/// [`Names`].
pub(crate) struct Tally {
    pub(crate) cycle: u64,
    pub(crate) injected: u64,
    pub(crate) ejected: u64,
    pub(crate) in_flight: usize,
    /// Hops of delivered packets since the last flush (the whole run when
    /// never flushed).
    pub(crate) hop_hist: Log2Histogram,
    names: &'static Names,
    /// `(cycle, injected, ejected)` at the previous [`Tally::flush`].
    flushed: (u64, u64, u64),
}

impl Tally {
    pub(crate) fn new(names: &'static Names) -> Self {
        Self {
            cycle: 0,
            injected: 0,
            ejected: 0,
            in_flight: 0,
            hop_hist: hist(),
            names,
            flushed: (0, 0, 0),
        }
    }

    /// Publish what accumulated since the previous flush (the whole run at
    /// the first) and start the next interval: the counters keep a
    /// snapshot, the histogram restarts empty. Returns the interval's
    /// cycles (`None` when `metrics` is disabled) so the engine can
    /// publish its own accumulators over the same span.
    pub(crate) fn flush(&mut self, metrics: &MetricsRegistry) -> Option<u64> {
        if !metrics.is_enabled() {
            return None;
        }
        let [cycles, injected, ejected, hops] = *self.names;
        let was = self.flushed;
        metrics.incr(cycles, self.cycle - was.0);
        metrics.incr(injected, self.injected - was.1);
        metrics.incr(ejected, self.ejected - was.2);
        metrics.observe_histogram(hops, &[], &self.hop_hist);
        self.flushed = (self.cycle, self.injected, self.ejected);
        self.hop_hist = hist();
        Some(self.cycle - was.0)
    }
}

/// An empty per-packet histogram at the depth every engine publishes.
pub(crate) fn hist() -> Log2Histogram {
    Log2Histogram::new(12)
}
