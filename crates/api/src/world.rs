//! A Data Vortex cluster run: what never changes ([`DvWorld`]) and the
//! state the kernel owns (`DvState`).

use std::sync::Arc;

use dv_core::config::MachineConfig;
use dv_core::metrics::MetricsRegistry;
use dv_core::packet::{AddressSpace, Packet, MAX_NODES, PACKET_BYTES};
use dv_core::time::Time;
use dv_core::trace::Tracer;
use dv_core::{NodeId, Word};
use dv_sim::{Kernel, KernelState, Pipe, Slab, Waker};
use dv_switch::{LinkFaultInjector, SwitchModel};
use dv_vic::{PciePath, Vic};

use crate::layout::Layout;

/// What never changes in one simulated Data Vortex cluster. The rest —
/// VICs, PCIe paths, switch ports, the barrier engine, the switch load —
/// is a state the simulation kernel owns: [`DvCluster::run`](crate::DvCluster::run)
/// installs it before any node runs, and a bare [`DvWorld::transmit`]
/// at its first use.
pub struct DvWorld {
    /// Machine parameters.
    pub config: MachineConfig,
    /// Calibrated switch latency model.
    pub switch: SwitchModel,
    /// Deterministic link-fault decisions (from `config.faults`; `None`
    /// simulates fault-free links).
    fault_injector: Option<LinkFaultInjector>,
    /// Trace recorder.
    pub tracer: Arc<Tracer>,
    /// Metrics registry (disabled unless the cluster attached one).
    pub metrics: Arc<MetricsRegistry>,
    /// Where this run's DV-memory blocks and group counters live.
    pub layout: Layout,
    nodes: usize,
}

/// The mutable half of a cluster, owned by the simulation kernel and
/// reached only with `&mut Kernel` (see [`dv_sim::KernelState`]): only the
/// process holding the run token, or a kernel event, touches it.
pub(crate) struct DvState {
    /// The world this state belongs to: one per kernel.
    world: Arc<DvWorld>,
    /// One VIC per node.
    pub(crate) vics: Vec<Vic>,
    /// One PCIe path per node.
    pub(crate) pcie: Vec<PciePath>,
    /// Per-VIC injection pipes at the port rate.
    inject: Vec<Pipe>,
    /// Per-VIC ejection pipes at the port rate.
    eject: Vec<Pipe>,
    /// The hardware barrier engine (the two reserved group counters on
    /// the real system; modeled centrally here): completed epochs,
    /// arrivals in the current one, and the processes parked in it.
    pub(crate) barrier_epoch: u64,
    pub(crate) barrier_count: usize,
    pub(crate) barrier_waiters: Vec<Waker>,
    /// Which of its two counters each node's next FastBarrier uses.
    pub(crate) fast_barrier_parity: Vec<bool>,
    /// Packets currently inside the switch (for the load-dependent
    /// deflection penalty).
    in_flight: i64,
    /// Surprise-FIFO packets in flight toward each node (transmitted but
    /// not yet delivered) — the basis of sender-side credit.
    fifo_inflight: Vec<i64>,
    /// Set once a surprise-FIFO word may arrive twice: at construction
    /// under a link-duplication fault plan, else by the first
    /// retransmission. Never cleared.
    pub(crate) fifo_repeats: bool,
    /// What each pending state event of this state does, by token.
    flights: Slab<Flight>,
    /// The buffers of the sends whose batches are still in flight.
    bufs: Slab<SendBuf>,
    /// Per-destination counts, then run ends, of the send being grouped
    /// (all zero between sends).
    counts: Vec<usize>,
    /// Query replies of the batch being ejected (empty between events).
    replies: Vec<Packet>,
}

/// What one state event of a [`DvState`] does when it commits.
enum Flight {
    /// A batch of `n` offered packets, `fifo_n` of them bound for the
    /// surprise FIFO, leaves the switch at `dst`.
    Batch { dst: NodeId, n: u64, fifo_n: i64, packets: Packets },
    /// A block-path batch of `n` words leaves the switch at `dst`.
    Blocks { dst: NodeId, n: u64, blocks: Vec<BlockWrite> },
    /// A group-counter set the fault plan delayed lands at `dst`.
    Set { dst: NodeId, pkt: Packet },
    /// The hardware barrier's wave ends: its waiters are released.
    Release(Vec<Waker>),
}

/// Where a batch's packets wait while it crosses the switch.
enum Packets {
    /// The run `start..end` of the shared buffer of send `buf`.
    Shared { buf: u32, start: usize, end: usize },
    /// A buffer of its own: a [`DvWorld::transmit`] caller's, or a batch
    /// the fault plan reshaped.
    Own(Vec<Packet>),
    /// One packet, inline: a query reply, or a one-packet send.
    One(Packet),
}

impl Packets {
    /// The batch's packets, given the send buffers.
    fn slice<'a>(&'a self, bufs: &'a Slab<SendBuf>) -> &'a [Packet] {
        match self {
            Packets::Shared { buf, start, end } => &bufs.get(*buf).packets[*start..*end],
            Packets::Own(v) => v,
            Packets::One(p) => std::slice::from_ref(p),
        }
    }

    /// The batch is done with its packets: the last batch of a send frees
    /// the send's buffer.
    fn release(&self, bufs: &mut Slab<SendBuf>) {
        if let Packets::Shared { buf, .. } = *self {
            let shared = bufs.get_mut(buf);
            shared.batches -= 1;
            if shared.batches == 0 {
                bufs.remove(buf);
            }
        }
    }
}

/// One send's packets, grouped by destination, shared by the send's
/// batches until the last of them ejects.
struct SendBuf {
    packets: Vec<Packet>,
    /// Batches still in flight.
    batches: u32,
}

impl DvWorld {
    /// Build a world from a [`SimSpec`](dv_core::spec::SimSpec): nodes,
    /// machine model (the switch is grown if the cluster exceeds its
    /// ports), tracer, and metrics all come from the spec. Network
    /// batches, packet and byte counts, batch-size histograms, and the
    /// analytic model's per-traversal deflection estimate are recorded
    /// under `api.net.*` / `switch.model.*` when the registry is enabled.
    pub fn from_spec(spec: &dv_core::spec::SimSpec) -> Arc<Self> {
        let nodes = spec.nodes;
        assert!(nodes >= 1);
        // `PacketHeader::encode` masks node ids to the field's width in
        // release builds: past it, replies would reach the wrong node.
        assert!(
            nodes <= MAX_NODES,
            "{nodes} nodes exceed the packet header's 12-bit node field (at most {MAX_NODES})"
        );
        let mut config = spec.machine.clone();
        // Grow the switch if the requested cluster exceeds its ports; a
        // zero-port switch never grows.
        assert!(config.dv.angles >= 1, "dv.angles must be at least 1");
        assert!(config.dv.height >= 1, "dv.height must be at least 1");
        while config.dv.ports() < nodes {
            config.dv.height *= 2;
        }
        Arc::new(Self {
            switch: SwitchModel::from_params(&config.dv),
            fault_injector: config.faults.as_ref().map(|plan| LinkFaultInjector::new(plan.clone(), nodes)),
            tracer: Arc::clone(&spec.tracer),
            metrics: Arc::clone(&spec.metrics),
            config,
            layout: Layout::new(nodes),
            nodes,
        })
    }

    /// Run `f` on this world's kernel-owned state, installing it in
    /// `kernel` at first use.
    ///
    /// # Panics
    /// If `kernel` holds another world's state: one world per kernel.
    pub(crate) fn state<R>(self: &Arc<Self>, kernel: &mut Kernel, f: impl FnOnce(&mut DvState, &mut Kernel) -> R) -> R {
        if !kernel.has_state::<DvState>() {
            kernel.install(DvState::new(self));
        }
        kernel.with_state(|st: &mut DvState, k| {
            assert!(Arc::ptr_eq(&st.world, self), "one DV world per kernel: this kernel holds another world's state");
            f(st, k)
        })
    }

    /// Cluster size.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Transmit a batch of packets, all bound for the same destination,
    /// that become available at the source VIC at `ready`. Handles
    /// injection/ejection pipe occupancy, switch traversal, functional
    /// delivery, and query replies. Returns the delivery time of the
    /// batch's last packet.
    ///
    /// Out-of-order arrival: the network does not preserve packet order;
    /// the model delivers a batch contiguously but different batches (and
    /// replies) interleave freely, and the paper-level semantics "order of
    /// arrival is not guaranteed" is part of the API contract (see the
    /// group-counter race tests).
    ///
    /// When a fault plan is attached, per-packet link faults apply here:
    /// dropped packets paid full wire cost but are never delivered,
    /// duplicated packets deliver twice, delayed `GroupCounterSet` packets
    /// eject late (letting decrements overtake the set — the Section III
    /// race on demand), and a stalled batch holds its ejection port.
    /// The checked DMA block path ([`DvWorld::transmit_blocks`]) is *not*
    /// fault-injected.
    pub fn transmit(
        self: &Arc<Self>,
        kernel: &mut Kernel,
        src: NodeId,
        dst: NodeId,
        packets: Vec<Packet>,
        ready: Time,
    ) -> Time {
        self.state(kernel, |st, k| st.transmit(k, src, dst, Packets::Own(packets), ready))
    }

    /// Bulk-transmission fast path: a set of contiguous DV-memory block
    /// writes, all bound for `dst`, available at the source VIC at
    /// `ready`. Pipe/switch costs are identical to the per-packet path
    /// (one network packet per word); delivery applies whole blocks.
    pub fn transmit_blocks(
        self: &Arc<Self>,
        kernel: &mut Kernel,
        src: NodeId,
        dst: NodeId,
        blocks: Vec<BlockWrite>,
        ready: Time,
    ) -> Time {
        self.state(kernel, |st, k| st.transmit_blocks(k, src, dst, blocks, ready))
    }

    /// Record one network batch: counts, batch-size histogram, and the
    /// analytic switch model's expected deflection hops at the load this
    /// traversal saw (the model-side counterpart of the cycle-accurate
    /// `switch.cycle.deflections` histogram).
    fn record_net(&self, packets: u64, bytes: u64, load: f64) {
        let m = &self.metrics;
        if !m.is_enabled() {
            return;
        }
        m.incr("api.net.batches", 1);
        m.incr("api.net.packets", packets);
        m.incr("api.net.bytes", bytes);
        m.observe("api.net.batch_packets", packets);
        m.observe("switch.model.deflection_hops", self.switch.deflection_hops(load).round() as u64);
    }
}

impl KernelState for DvState {
    /// A batch, block batch or delayed set lands, or the barrier wave
    /// ends: the [`Flight`] the token names.
    fn fire(&mut self, k: &mut Kernel, token: u32) {
        match self.flights.remove(token) {
            Flight::Batch { dst, n, fifo_n, packets } => self.eject(k, dst, n, fifo_n, packets),
            Flight::Blocks { dst, n, blocks } => {
                self.in_flight -= n as i64;
                for b in &blocks {
                    self.vics[dst].deliver_block(k, b.address, &b.words, b.gc);
                }
            }
            Flight::Set { dst, pkt } => {
                let now = k.now();
                let reply = self.vics[dst].deliver(k, now, pkt);
                debug_assert!(reply.is_none(), "GroupCounterSet packets never reply");
            }
            Flight::Release(waiters) => waiters.into_iter().for_each(|w| k.wake(w)),
        }
    }

    /// Interval telemetry: the VIC counters accumulated since the
    /// previous flush plus the instantaneous gauges, so per-interval
    /// deltas carry FIFO depth, drops and switch load. The end-of-run
    /// publish in `DvCluster` performs the same incremental flush, so
    /// interval deltas always sum to the final totals.
    fn flush(&mut self, metrics: &MetricsRegistry) {
        for (n, vic) in self.vics.iter_mut().enumerate() {
            vic.publish_metrics(metrics);
            metrics.gauge_labeled("vic.fifo.depth", &[("node", (n as u64).into())], vic.fifo.len() as f64);
        }
        metrics.gauge("switch.load", self.load());
    }
}

impl DvState {
    fn new(world: &Arc<DvWorld>) -> Self {
        let (nodes, config) = (world.nodes, &world.config);
        let link = config.dv.link_gbps;
        Self {
            vics: (0..nodes).map(|n| Vic::from_parts(n, &config.dv, config.faults.clone())).collect(),
            pcie: (0..nodes).map(|_| PciePath::new(config.pcie.clone())).collect(),
            inject: (0..nodes).map(|_| Pipe::new(link)).collect(),
            eject: (0..nodes).map(|_| Pipe::new(link)).collect(),
            barrier_epoch: 0,
            barrier_count: 0,
            barrier_waiters: Vec::new(),
            fast_barrier_parity: vec![false; nodes],
            in_flight: 0,
            fifo_inflight: vec![0; nodes],
            fifo_repeats: config.faults.as_ref().is_some_and(|p| p.link_dup > 0.0),
            flights: Slab::new(),
            bufs: Slab::new(),
            counts: vec![0; nodes],
            replies: Vec::new(),
            world: Arc::clone(world),
        }
    }

    /// Schedule `flight` for `at`, as one state event.
    fn schedule(&mut self, k: &mut Kernel, at: Time, flight: Flight) {
        let token = self.flights.insert(flight);
        k.state_at::<DvState>(at, token);
    }

    /// Release the hardware barrier's `waiters` at `at`, when its wave
    /// ends.
    pub(crate) fn release_barrier(&mut self, k: &mut Kernel, at: Time, waiters: Vec<Waker>) {
        self.schedule(k, at, Flight::Release(waiters));
    }

    /// One send of `src`'s `packets`, ready at its VIC at `ready`: the
    /// packets are grouped by destination into one exact-size buffer — a
    /// stable counting sort, ascending destination and input order within
    /// one, so the transmit sequence is deterministic by construction —
    /// and each destination's run is transmitted as one batch sharing
    /// that buffer. Returns the delivery time of the last packet.
    pub(crate) fn send(&mut self, k: &mut Kernel, src: NodeId, packets: &[Packet], ready: Time) -> Time {
        match packets {
            [] => ready,
            &[pkt] => self.transmit(k, src, pkt.header.dest, Packets::One(pkt), ready),
            _ => {
                let counts = &mut self.counts;
                packets.iter().for_each(|p| counts[p.header.dest] += 1);
                let (mut start, mut batches) = (0, 0);
                for c in counts.iter_mut() {
                    batches += u32::from(*c > 0);
                    (*c, start) = (start, start + *c);
                }
                // Placing each packet at its destination's cursor leaves
                // `counts[d]` at the end of `d`'s run.
                let mut grouped = vec![packets[0]; packets.len()];
                for &p in packets {
                    grouped[counts[p.header.dest]] = p;
                    counts[p.header.dest] += 1;
                }
                let buf = self.bufs.insert(SendBuf { packets: grouped, batches });
                let (mut last, mut start) = (ready, 0);
                for dst in 0..self.counts.len() {
                    let end = std::mem::take(&mut self.counts[dst]);
                    if end > start {
                        let run = Packets::Shared { buf, start, end };
                        last = last.max(self.transmit(k, src, dst, run, ready));
                        start = end;
                    }
                }
                last
            }
        }
    }

    /// Instantaneous switch load estimate in `[0, 1]`: in-flight packets
    /// over the number of switching cells.
    fn load(&self) -> f64 {
        let cells = self.world.switch.net().nodes() as f64;
        (self.in_flight.max(0) as f64 / cells).min(1.0)
    }

    /// Sender-visible credit for `dst`'s surprise FIFO: remaining capacity
    /// minus packets already in flight toward it. May go negative when
    /// senders outrun the drain; non-positive credit means a fresh push is
    /// likely to overflow.
    pub(crate) fn fifo_credit(&self, dst: NodeId) -> i64 {
        let capacity = self.world.config.dv.fifo_capacity as i64;
        capacity - self.vics[dst].fifo.len() as i64 - self.fifo_inflight[dst]
    }

    /// [`DvWorld::transmit`] of a batch wherever its packets are.
    fn transmit(&mut self, kernel: &mut Kernel, src: NodeId, dst: NodeId, packets: Packets, ready: Time) -> Time {
        let n = packets.slice(&self.bufs).len() as u64;
        debug_assert!(packets.slice(&self.bufs).iter().all(|p| p.header.dest == dst));
        if n == 0 {
            return ready;
        }
        let (inj_start, mut eject_end) = self.cross_switch(src, dst, n, ready);

        // Fault application. Pipe/switch costs above are for the offered
        // batch: a packet lost in flight still occupied the wire.
        let world = &*self.world;
        let mut delayed: Vec<(Time, Packet)> = Vec::new();
        let deliver = if let Some(inj) = &world.fault_injector {
            if let Some(stall) = inj.batch_stall(src, dst) {
                eject_end = eject_end.checked_add(stall).expect("an ejection stall overflows virtual time");
                if world.metrics.is_enabled() {
                    world.metrics.incr("fault.eject.stalls", 1);
                    world.metrics.incr("fault.eject.stall_ps", stall);
                }
            }
            let mut kept = Vec::with_capacity(n as usize);
            let (mut drops, mut dups, mut delayed_sets) = (0u64, 0u64, 0u64);
            for &pkt in packets.slice(&self.bufs) {
                let f = inj.packet_fault(src, dst);
                if f.drop {
                    drops += 1;
                    continue;
                }
                if pkt.header.space == AddressSpace::GroupCounterSet {
                    if let Some(d) = f.gc_set_delay {
                        delayed_sets += 1;
                        let when = eject_end.checked_add(d).expect("a delayed set overflows virtual time");
                        delayed.push((when, pkt));
                        continue;
                    }
                }
                if f.dup {
                    dups += 1;
                    kept.push(pkt);
                }
                kept.push(pkt);
            }
            if world.metrics.is_enabled() {
                if drops > 0 {
                    world.metrics.incr("fault.link.drops", drops);
                }
                if dups > 0 {
                    world.metrics.incr("fault.link.dups", dups);
                }
                if delayed_sets > 0 {
                    world.metrics.incr("fault.gc.delayed_sets", delayed_sets);
                }
            }
            packets.release(&mut self.bufs);
            Packets::Own(kept)
        } else {
            packets
        };

        // Sender-side credit: surprise packets now committed to the wire
        // count against the destination FIFO until delivery resolves them.
        let surprise = deliver.slice(&self.bufs).iter().filter(|p| p.header.space == AddressSpace::SurpriseFifo);
        let fifo_n = surprise.count() as i64;
        self.fifo_inflight[dst] += fifo_n;

        // Load accounting: in the switch from injection until ejection.
        self.in_flight += n as i64;
        world.tracer.message(src, dst, inj_start, eject_end, n * PACKET_BYTES);
        self.schedule(kernel, eject_end, Flight::Batch { dst, n, fifo_n, packets: deliver });
        for (when, pkt) in delayed {
            self.schedule(kernel, when, Flight::Set { dst, pkt });
        }
        eject_end
    }

    /// A batch of `n` offered packets leaves the switch at `dst` (kernel
    /// context): the load and credit it held are released, `packets` land
    /// in the VIC, and query replies — formed by the VIC itself, with no
    /// host or PCIe involvement — re-enter the switch from `dst`, each
    /// inline in its own batch.
    fn eject(&mut self, k: &mut Kernel, dst: NodeId, n: u64, fifo_n: i64, packets: Packets) {
        self.in_flight -= n as i64;
        self.fifo_inflight[dst] -= fifo_n;
        let mut replies = std::mem::take(&mut self.replies);
        self.vics[dst].deliver_batch(k, packets.slice(&self.bufs), &mut replies);
        packets.release(&mut self.bufs);
        for reply in replies.drain(..) {
            let now = k.now();
            self.transmit(k, dst, reply.header.dest, Packets::One(reply), now);
        }
        self.replies = replies;
    }

    /// The network leg both transmit paths share: `n` one-word packets
    /// available at `src`'s VIC at `ready` serialize onto its injection
    /// port, the head traverses the switch at the current load, and the
    /// ejection port serializes arrivals at `dst`. Returns the injection
    /// start and the time the last packet has left the ejection port.
    fn cross_switch(&mut self, src: NodeId, dst: NodeId, n: u64, ready: Time) -> (Time, Time) {
        let word_time = self.world.config.dv.word_time();
        let (inj_start, inj_end) = self.inject[src].reserve_duration(ready, n * word_time);
        let load = self.load();
        let traversal = self.world.switch.traversal(src, dst, load);
        self.world.record_net(n, n * PACKET_BYTES, load);
        let head_at_dst = inj_start + traversal;
        let (_, eject_end) = self.eject[dst].reserve_duration(head_at_dst, n * word_time);
        (inj_start, eject_end.max(inj_end + traversal))
    }

    /// [`DvWorld::transmit_blocks`].
    pub(crate) fn transmit_blocks(
        &mut self,
        kernel: &mut Kernel,
        src: NodeId,
        dst: NodeId,
        blocks: Vec<BlockWrite>,
        ready: Time,
    ) -> Time {
        let n: u64 = blocks.iter().map(|b| b.words.len() as u64).sum();
        if n == 0 {
            return ready;
        }
        let (inj_start, eject_end) = self.cross_switch(src, dst, n, ready);

        self.in_flight += n as i64;
        self.world.tracer.message(src, dst, inj_start, eject_end, n * PACKET_BYTES);
        self.schedule(kernel, eject_end, Flight::Blocks { dst, n, blocks });
        eject_end
    }
}

/// One contiguous remote DV-memory write (part of a bulk batch).
pub struct BlockWrite {
    /// Destination VIC.
    pub dest: NodeId,
    /// First word address at the destination.
    pub address: u32,
    /// Group counter decremented per word at the destination.
    pub gc: u8,
    /// The words to write.
    pub words: Vec<Word>,
}
