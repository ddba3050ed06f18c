//! The VIC proper: packet delivery into DV memory / FIFO / counters.

use dv_core::config::DvParams;
use dv_core::fault::FaultPlan;
use dv_core::metrics::MetricsRegistry;
use dv_core::packet::{AddressSpace, Packet, PacketHeader, GROUP_COUNTERS, SCRATCH_GC};
use dv_core::time::Time;
use dv_core::{NodeId, Word};
use dv_sim::Kernel;

use crate::counters::GroupCounter;
use crate::fifo::SurpriseFifo;
use crate::memory::DvMemory;

/// First status-page slot of the per-source accepted-FIFO counts: the VIC
/// maintains, in hardware, how many surprise packets from each source it
/// has *accepted* into the FIFO (drops excluded) at
/// `FIFO_RECV_BASE + src`. Senders read their slot back with a query
/// packet — the acknowledgment substrate of the `dv-api` recovery layer.
pub const FIFO_RECV_BASE: u32 = 768;
/// Sources tracked by the hardware accepted-count block (bounded by the
/// status page; larger clusters fall back to software acks).
pub const FIFO_RECV_SLOTS: usize = 256;

/// Per-VIC activity counters, accumulated as plain integers on the
/// delivery path (no registry overhead per packet) and folded into a
/// `MetricsRegistry` once per run by [`Vic::publish_metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VicStats {
    /// DV-memory word writes (packet and block deliveries).
    pub mem_writes: u64,
    /// Surprise-FIFO packets *accepted* into the queue (drops excluded —
    /// a rejected packet was never pushed).
    pub fifo_pushes: u64,
    /// Surprise-FIFO packets lost: genuine overflow plus injected drops.
    pub fifo_drops: u64,
    /// The subset of [`VicStats::fifo_drops`] forced by a fault plan.
    pub fifo_forced_drops: u64,
    /// Group-counter set operations (remote packets and host presets).
    pub gc_sets: u64,
    /// Group-counter decrements (block decrements count their length).
    pub gc_decrements: u64,
    /// Sets that overwrote a counter some decrement had already driven
    /// negative — the decrement-before-set race of Section III.
    pub gc_set_races: u64,
    /// Query packets answered.
    pub queries: u64,
}

/// One node's Vortex Interface Controller.
pub struct Vic {
    node: NodeId,
    /// 32 MB QDR SRAM.
    pub memory: DvMemory,
    counters: Vec<GroupCounter>,
    /// The surprise-packet FIFO.
    pub fifo: SurpriseFifo,
    delivered: u64,
    stats: VicStats,
    /// State already folded into a registry by a previous
    /// [`Vic::publish_metrics`] call — publishing is incremental, so
    /// interval telemetry flushes and the end-of-run publish sum to the
    /// same totals as a single end-of-run publish.
    published: VicStats,
    published_delivered: u64,
    /// Optional fault plan (forced FIFO overflow is applied here, at the
    /// admission point); decisions key off `fifo_push_seq`.
    faults: Option<FaultPlan>,
    fifo_push_seq: u64,
}

impl Vic {
    /// A VIC for `node`; with a fault plan, each FIFO arrival consumes one
    /// sequence number of the plan's FIFO stream and may be rejected as if
    /// the queue were full. (`DvWorld` passes its grown switch parameters.)
    pub fn from_parts(node: NodeId, dv: &DvParams, faults: Option<FaultPlan>) -> Self {
        Self {
            node,
            memory: DvMemory::new(),
            counters: (0..GROUP_COUNTERS).map(|_| GroupCounter::new()).collect(),
            fifo: SurpriseFifo::new(dv.fifo_capacity),
            delivered: 0,
            stats: VicStats::default(),
            published: VicStats::default(),
            published_delivered: 0,
            faults,
            fifo_push_seq: 0,
        }
    }

    /// The node this VIC belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Packets delivered to this VIC so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Access a group counter.
    pub fn counter(&self, idx: u8) -> &GroupCounter {
        &self.counters[idx as usize]
    }

    /// This VIC's accumulated activity counters.
    pub fn stats(&self) -> VicStats {
        self.stats
    }

    /// Fold this VIC's counters into a registry as `vic.*` metrics labeled
    /// with the node id (FIFO depth high-water mark and drops included).
    ///
    /// Publishing is **incremental**: each call records only what happened
    /// since the previous call, so the streaming-telemetry layer can flush
    /// per sample interval and the end-of-run publish still lands on
    /// exactly the totals a single publish would have produced. The
    /// high-water gauge uses `gauge_max` and is naturally idempotent.
    pub fn publish_metrics(&mut self, metrics: &MetricsRegistry) {
        if !metrics.is_enabled() {
            return;
        }
        let node = [("node", self.node.into())];
        let was = self.published;
        let now = self.stats;
        metrics.incr_labeled("vic.delivered", &node, self.delivered - self.published_delivered);
        metrics.incr_labeled("vic.mem.writes", &node, now.mem_writes - was.mem_writes);
        metrics.incr_labeled("vic.fifo.pushes", &node, now.fifo_pushes - was.fifo_pushes);
        metrics.incr_labeled("vic.fifo.drops", &node, now.fifo_drops - was.fifo_drops);
        metrics.incr_labeled(
            "vic.fifo.forced_drops",
            &node,
            now.fifo_forced_drops - was.fifo_forced_drops,
        );
        metrics.gauge_max("vic.fifo.high_water", &node, self.fifo.high_water() as f64);
        metrics.incr_labeled("vic.gc.sets", &node, now.gc_sets - was.gc_sets);
        metrics.incr_labeled("vic.gc.decrements", &node, now.gc_decrements - was.gc_decrements);
        metrics.incr_labeled("vic.gc.set_races", &node, now.gc_set_races - was.gc_set_races);
        metrics.incr_labeled("vic.queries", &node, now.queries - was.queries);
        self.published = now;
        self.published_delivered = self.delivered;
    }

    fn apply_set(stats: &mut VicStats, gc: &mut GroupCounter, expected: u64) {
        stats.gc_sets += 1;
        if gc.value() < 0 {
            // Decrements raced ahead of this set and are about to be
            // erased — the decrement-before-set failure of Section III.
            stats.gc_set_races += 1;
        }
        gc.set(expected);
    }

    /// Host-side preset of a local group counter (wakes waiters if the
    /// preset is zero or already satisfied).
    pub fn set_counter(&mut self, kernel: &mut Kernel, idx: u8, expected: u64) {
        let gc = &mut self.counters[idx as usize];
        Self::apply_set(&mut self.stats, gc, expected);
        if gc.is_zero() {
            gc.waiters().wake_all(kernel);
        }
    }

    /// Apply an arriving packet (the switch's ejection port calls this).
    /// Returns the reply packet for [`AddressSpace::Query`] packets.
    ///
    /// Delivery semantics follow Section III:
    /// * DV-memory writes overwrite the slot (last write wins).
    /// * FIFO packets buffer non-destructively (drop + count on overflow).
    /// * Group-counter sets overwrite the counter — including any
    ///   decrements that raced ahead of the set.
    /// * Query packets read the requested slot and emit a reply whose
    ///   header is the original payload ("return header") and whose
    ///   payload is the read value; the reply destination need not be the
    ///   original sender.
    ///
    /// Every packet also decrements the group counter named in its header
    /// (the scratch counter ignores decrements).
    ///
    /// # Drop semantics
    ///
    /// A surprise packet the FIFO rejects (overflow, or a fault plan's
    /// forced drop) is **not delivered**: it is excluded from `delivered`
    /// and `fifo_pushes`, it wakes no FIFO waiter, and it does *not*
    /// decrement its group counter. The packet simply never became
    /// visible to software, so a completion protocol counting on that
    /// decrement times out — a detectable loss — instead of completing
    /// with data silently missing. The only traces it leaves are the drop
    /// counters ([`VicStats::fifo_drops`], [`SurpriseFifo::dropped`]).
    pub fn deliver(&mut self, kernel: &mut Kernel, at: Time, pkt: Packet) -> Option<Packet> {
        self.deliver_one(kernel, at, pkt, &mut false)
    }

    /// Apply a batch that arrived together, as [`Vic::deliver`] would one
    /// packet at a time, collecting query replies into `replies`. FIFO
    /// waiters are woken on the batch's first accepted push only: the
    /// caller holds this VIC for the whole batch, so nobody can register
    /// between pushes and every later wake would find the list empty.
    pub fn deliver_batch(
        &mut self,
        kernel: &mut Kernel,
        at: Time,
        packets: &[Packet],
        replies: &mut Vec<Packet>,
    ) {
        let mut fifo_woken = false;
        for &pkt in packets {
            replies.extend(self.deliver_one(kernel, at, pkt, &mut fifo_woken));
        }
    }

    fn deliver_one(
        &mut self,
        kernel: &mut Kernel,
        at: Time,
        pkt: Packet,
        fifo_woken: &mut bool,
    ) -> Option<Packet> {
        debug_assert_eq!(pkt.header.dest, self.node, "packet routed to the wrong VIC");
        let mut reply = None;
        match pkt.header.space {
            AddressSpace::DvMemory => {
                self.stats.mem_writes += 1;
                self.memory.write(pkt.header.address, pkt.payload);
            }
            AddressSpace::SurpriseFifo => {
                let forced = match &self.faults {
                    Some(plan) => plan.fifo_forced_drop(self.node as u64, self.fifo_push_seq),
                    None => false,
                };
                self.fifo_push_seq += 1;
                let accepted = if forced {
                    self.fifo.force_drop();
                    self.stats.fifo_forced_drops += 1;
                    false
                } else {
                    self.fifo.push(at, pkt.payload)
                };
                if !accepted {
                    self.stats.fifo_drops += 1;
                    return None;
                }
                self.stats.fifo_pushes += 1;
                // Hardware-maintained per-source accepted count in the
                // status page (the recovery layer's ack substrate). Not a
                // software memory write, so not counted in `mem_writes`.
                if pkt.header.src < FIFO_RECV_SLOTS {
                    let src =
                        u32::try_from(pkt.header.src).expect("guarded: src < FIFO_RECV_SLOTS");
                    *self.memory.word_mut(FIFO_RECV_BASE + src) += 1;
                }
                if !std::mem::replace(fifo_woken, true) {
                    self.fifo.waiters().wake_all(kernel);
                }
            }
            AddressSpace::GroupCounterSet => {
                let idx = (pkt.header.address as usize) % GROUP_COUNTERS;
                let gc = &mut self.counters[idx];
                Self::apply_set(&mut self.stats, gc, pkt.payload);
                if gc.is_zero() {
                    gc.waiters().wake_all(kernel);
                }
            }
            AddressSpace::Query => {
                self.stats.queries += 1;
                let value = self.memory.read(pkt.header.address);
                let return_header = PacketHeader::decode(pkt.payload);
                reply = Some(Packet::new(return_header, value));
            }
        }
        self.delivered += 1;
        let gc_idx = pkt.header.group_counter;
        if gc_idx != SCRATCH_GC {
            let gc = &mut self.counters[gc_idx as usize];
            gc.decrement();
            self.stats.gc_decrements += 1;
            if gc.is_zero() {
                gc.waiters().wake_all(kernel);
            }
        }
        reply
    }

    /// Bulk-delivery fast path: apply a contiguous run of DV-memory word
    /// writes as if `words.len()` individual packets arrived (same memory
    /// and group-counter semantics, one call).
    pub fn deliver_block(&mut self, kernel: &mut Kernel, address: u32, words: &[Word], gc_idx: u8) {
        self.memory.write_range(address, words);
        self.delivered += words.len() as u64;
        self.stats.mem_writes += words.len() as u64;
        if gc_idx != SCRATCH_GC {
            let gc = &mut self.counters[gc_idx as usize];
            gc.decrement_by(words.len() as u64);
            self.stats.gc_decrements += words.len() as u64;
            if gc.is_zero() {
                gc.waiters().wake_all(kernel);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_core::packet::BARRIER_GC;

    // Kernel is only constructible through Sim, so VIC delivery tests run
    // inside a minimal simulation.
    fn with_kernel(f: impl FnOnce(&mut Kernel) + Send + 'static) {
        let sim = dv_sim::Sim::new();
        sim.spawn("t", move |ctx| ctx.with_kernel(f));
        sim.run();
    }

    #[test]
    fn dv_memory_write_packet_lands() {
        with_kernel(|k| {
            let mut vic = Vic::from_parts(3, &DvParams::default(), None);
            let h = PacketHeader::dv_memory(0, 3, 500, SCRATCH_GC);
            assert!(vic.deliver(k, 0, Packet::new(h, 99)).is_none());
            assert_eq!(vic.memory.read(500), 99);
            assert_eq!(vic.delivered(), 1);
        });
    }

    #[test]
    fn fifo_packet_buffers() {
        with_kernel(|k| {
            let mut vic = Vic::from_parts(3, &DvParams::default(), None);
            let h = PacketHeader::fifo(1, 3, SCRATCH_GC);
            vic.deliver(k, 7, Packet::new(h, 123));
            vic.deliver(k, 9, Packet::new(h, 456));
            assert_eq!(vic.fifo.pop(), Some((7, 123)));
            assert_eq!(vic.fifo.pop(), Some((9, 456)));
        });
    }

    #[test]
    fn group_counter_decrements_to_zero() {
        with_kernel(|k| {
            let mut vic = Vic::from_parts(3, &DvParams::default(), None);
            vic.set_counter(k, 5, 2);
            let h = PacketHeader::dv_memory(0, 3, 0, 5);
            vic.deliver(k, 0, Packet::new(h, 1));
            assert_eq!(vic.counter(5).value(), 1);
            vic.deliver(k, 0, Packet::new(h, 2));
            assert!(vic.counter(5).is_zero());
        });
    }

    #[test]
    fn scratch_counter_ignores_decrements() {
        with_kernel(|k| {
            let mut vic = Vic::from_parts(3, &DvParams::default(), None);
            let h = PacketHeader::dv_memory(0, 3, 0, SCRATCH_GC);
            for _ in 0..10 {
                vic.deliver(k, 0, Packet::new(h, 0));
            }
            assert_eq!(vic.counter(SCRATCH_GC).value(), 0);
        });
    }

    #[test]
    fn remote_counter_set_packet_applies() {
        with_kernel(|k| {
            let mut vic = Vic::from_parts(3, &DvParams::default(), None);
            let h = PacketHeader::gc_set(0, 3, 9);
            vic.deliver(k, 0, Packet::new(h, 42));
            assert_eq!(vic.counter(9).value(), 42);
        });
    }

    #[test]
    fn query_produces_return_header_reply() {
        with_kernel(|k| {
            let mut vic = Vic::from_parts(3, &DvParams::default(), None);
            vic.memory.write(1000, 0xCAFE);
            // Reply should go to node 7 (not the querying node 0!) at
            // address 55 — the paper: "The reply destination VIC does not
            // need to be the same as the original sending VIC".
            let return_header = PacketHeader::dv_memory(3, 7, 55, SCRATCH_GC);
            let q = PacketHeader::query(0, 3, 1000);
            let reply = vic.deliver(k, 0, Packet::new(q, return_header.encode())).unwrap();
            assert_eq!(reply.header, return_header);
            assert_eq!(reply.payload, 0xCAFE);
        });
    }

    #[test]
    fn set_after_decrement_race_reproduced_end_to_end() {
        with_kernel(|k| {
            let mut vic = Vic::from_parts(3, &DvParams::default(), None);
            let data = PacketHeader::dv_memory(0, 3, 0, 7);
            // One data packet outruns the remote set...
            vic.deliver(k, 0, Packet::new(data, 0));
            // ...then the set arrives...
            vic.deliver(k, 0, Packet::new(PacketHeader::gc_set(0, 3, 7), 3));
            // ...then the remaining two data packets.
            vic.deliver(k, 0, Packet::new(data, 0));
            vic.deliver(k, 0, Packet::new(data, 0));
            // All 3 packets arrived but the counter is stuck at 1.
            assert_eq!(vic.counter(7).value(), 1);
        });
    }

    #[test]
    fn stats_count_deliveries_and_detect_set_races() {
        with_kernel(|k| {
            let mut vic = Vic::from_parts(3, &DvParams::default(), None);
            // A clean set-then-decrement sequence: no race.
            vic.set_counter(k, 5, 1);
            vic.deliver(k, 0, Packet::new(PacketHeader::dv_memory(0, 3, 10, 5), 1));
            assert_eq!(vic.stats().gc_set_races, 0);
            // Decrement-before-set: the set must count as a race.
            vic.deliver(k, 0, Packet::new(PacketHeader::dv_memory(0, 3, 11, 7), 2));
            vic.deliver(k, 0, Packet::new(PacketHeader::gc_set(0, 3, 7), 3));
            assert_eq!(vic.stats().gc_set_races, 1);
            // FIFO and query traffic.
            vic.deliver(k, 1, Packet::new(PacketHeader::fifo(0, 3, SCRATCH_GC), 9));
            let rh = PacketHeader::dv_memory(3, 0, 0, SCRATCH_GC);
            vic.deliver(k, 2, Packet::new(PacketHeader::query(0, 3, 10), rh.encode()));
            let s = vic.stats();
            assert_eq!(s.mem_writes, 2);
            assert_eq!(s.fifo_pushes, 1);
            assert_eq!(s.queries, 1);
            assert_eq!(s.gc_sets, 2); // host preset + remote set packet
            assert_eq!(s.gc_decrements, 2);
            // Publishing lands labeled counters in a registry.
            let m = MetricsRegistry::enabled();
            vic.publish_metrics(&m);
            let snap = m.snapshot();
            assert_eq!(snap.counter("vic.gc.set_races", &[("node", "3")]), Some(1));
            assert_eq!(snap.counter("vic.fifo.pushes", &[("node", "3")]), Some(1));
        });
    }

    #[test]
    fn overflowed_fifo_packet_is_not_delivered_at_all() {
        with_kernel(|k| {
            let dv = DvParams { fifo_capacity: 2, ..Default::default() };
            let mut vic = Vic::from_parts(3, &dv, None);
            vic.set_counter(k, 7, 3);
            let h = PacketHeader::fifo(1, 3, 7);
            for t in 0..3 {
                vic.deliver(k, t, Packet::new(h, t as Word));
            }
            // The third packet overflowed: it is invisible everywhere
            // except the drop counters.
            let s = vic.stats();
            assert_eq!(s.fifo_pushes, 2);
            assert_eq!(s.fifo_drops, 1);
            assert_eq!(s.fifo_forced_drops, 0);
            assert_eq!(vic.fifo.dropped(), 1);
            assert_eq!(vic.delivered(), 2);
            // Only the two accepted packets decremented the counter: the
            // completion protocol sees 1, not 0 — a detectable loss.
            assert_eq!(vic.counter(7).value(), 1);
        });
    }

    #[test]
    fn forced_drops_follow_the_fault_plan() {
        with_kernel(|k| {
            let plan = FaultPlan { fifo_drop: 1.0, ..Default::default() };
            let mut vic = Vic::from_parts(3, &DvParams::default(), Some(plan));
            let h = PacketHeader::fifo(1, 3, SCRATCH_GC);
            for t in 0..5 {
                assert!(vic.deliver(k, t, Packet::new(h, t as Word)).is_none());
            }
            let s = vic.stats();
            assert_eq!(s.fifo_pushes, 0);
            assert_eq!(s.fifo_drops, 5);
            assert_eq!(s.fifo_forced_drops, 5);
            assert_eq!(vic.fifo.dropped(), 5);
            assert!(vic.fifo.is_empty(), "forced drops never enqueue");
        });
    }

    #[test]
    fn hardware_recv_counts_track_accepted_pushes_per_source() {
        with_kernel(|k| {
            let dv = DvParams { fifo_capacity: 3, ..Default::default() };
            let mut vic = Vic::from_parts(3, &dv, None);
            for _ in 0..2 {
                vic.deliver(k, 0, Packet::new(PacketHeader::fifo(1, 3, SCRATCH_GC), 9));
            }
            vic.deliver(k, 0, Packet::new(PacketHeader::fifo(2, 3, SCRATCH_GC), 9));
            // FIFO is now full; the next arrival drops and must NOT bump
            // its source's accepted count.
            vic.deliver(k, 0, Packet::new(PacketHeader::fifo(1, 3, SCRATCH_GC), 9));
            assert_eq!(vic.memory.read(FIFO_RECV_BASE + 1), 2);
            assert_eq!(vic.memory.read(FIFO_RECV_BASE + 2), 1);
            assert_eq!(vic.stats().fifo_drops, 1);
        });
    }

    #[test]
    fn barrier_counters_are_reserved_but_functional() {
        with_kernel(|k| {
            let mut vic = Vic::from_parts(0, &DvParams::default(), None);
            for &gc in &BARRIER_GC {
                vic.set_counter(k, gc, 1);
                assert_eq!(vic.counter(gc).value(), 1);
            }
        });
    }
}
