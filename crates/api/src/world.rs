//! A Data Vortex cluster run: what never changes ([`DvWorld`]) and the
//! state the kernel owns (`DvState`).

use std::sync::Arc;

use dv_core::config::MachineConfig;
use dv_core::metrics::MetricsRegistry;
use dv_core::packet::{AddressSpace, Packet, MAX_NODES, PACKET_BYTES};
use dv_core::time::Time;
use dv_core::trace::Tracer;
use dv_core::{NodeId, Word};
use dv_sim::{Kernel, KernelState, Pipe, Waker};
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
        self.state(kernel, |st, k| st.transmit(k, src, dst, packets, ready))
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
            in_flight: 0,
            fifo_inflight: vec![0; nodes],
            fifo_repeats: config.faults.as_ref().is_some_and(|p| p.link_dup > 0.0),
            world: Arc::clone(world),
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

    /// [`DvWorld::transmit`].
    pub(crate) fn transmit(
        &mut self,
        kernel: &mut Kernel,
        src: NodeId,
        dst: NodeId,
        packets: Vec<Packet>,
        ready: Time,
    ) -> Time {
        debug_assert!(packets.iter().all(|p| p.header.dest == dst));
        let n = packets.len() as u64;
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
            let mut kept = Vec::with_capacity(packets.len());
            let (mut drops, mut dups, mut delayed_sets) = (0u64, 0u64, 0u64);
            for pkt in packets {
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
            kept
        } else {
            packets
        };

        // Sender-side credit: surprise packets now committed to the wire
        // count against the destination FIFO until delivery resolves them.
        let fifo_n = deliver
            .iter()
            .filter(|p| p.header.space == AddressSpace::SurpriseFifo)
            .count() as i64;
        self.fifo_inflight[dst] += fifo_n;

        // Load accounting: in the switch from injection until ejection.
        self.in_flight += n as i64;
        world.tracer.message(src, dst, inj_start, eject_end, n * PACKET_BYTES);
        kernel.call_at(eject_end, move |k| {
            k.with_state(|st: &mut DvState, k| st.eject(k, dst, n, fifo_n, &deliver));
        });
        for (when, pkt) in delayed {
            kernel.call_at(when, move |k| {
                k.with_state(|st: &mut DvState, k| {
                    let now = k.now();
                    let reply = st.vics[dst].deliver(k, now, pkt);
                    debug_assert!(reply.is_none(), "GroupCounterSet packets never reply");
                });
            });
        }
        eject_end
    }

    /// A batch of `n` offered packets leaves the switch at `dst` (kernel
    /// context): the load and credit it held are released, `packets` land
    /// in the VIC, and query replies — formed by the VIC itself, with no
    /// host or PCIe involvement — re-enter the switch from `dst`.
    fn eject(&mut self, k: &mut Kernel, dst: NodeId, n: u64, fifo_n: i64, packets: &[Packet]) {
        self.in_flight -= n as i64;
        self.fifo_inflight[dst] -= fifo_n;
        let mut replies: Vec<Packet> = Vec::new();
        let now = k.now();
        self.vics[dst].deliver_batch(k, now, packets, &mut replies);
        for reply in replies {
            let rdst = reply.header.dest;
            let now = k.now();
            self.transmit(k, dst, rdst, vec![reply], now);
        }
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
        kernel.call_at(eject_end, move |k| {
            k.with_state(|st: &mut DvState, k| {
                st.in_flight -= n as i64;
                for b in &blocks {
                    st.vics[dst].deliver_block(k, b.address, &b.words, b.gc);
                }
            });
        });
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
