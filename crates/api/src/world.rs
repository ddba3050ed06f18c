//! Shared state of a Data Vortex cluster run: VICs, pipes, switch model.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use dv_core::sync::Mutex;

use dv_core::config::MachineConfig;
use dv_core::metrics::MetricsRegistry;
use dv_core::packet::{AddressSpace, Packet, PACKET_BYTES};
use dv_core::time::Time;
use dv_core::trace::Tracer;
use dv_core::{NodeId, Word};
use dv_sim::{Kernel, Pipe, WaitSet};
use dv_switch::{LinkFaultInjector, SwitchModel};
use dv_vic::{PciePath, Vic};

/// State of the hardware barrier engine (implemented with the two reserved
/// group counters on the real system; modeled centrally here).
pub struct BarrierState {
    /// Completed barrier epochs.
    pub epoch: u64,
    /// Arrivals in the current epoch.
    pub count: usize,
    /// Processes parked in the current epoch.
    pub waiters: WaitSet,
}

/// Shared world of one simulated Data Vortex cluster.
pub struct DvWorld {
    /// Machine parameters.
    pub config: MachineConfig,
    /// One VIC per node.
    pub vics: Vec<Arc<Mutex<Vic>>>,
    /// One PCIe path per node.
    pub pcie: Vec<PciePath>,
    /// Calibrated switch latency model.
    pub switch: SwitchModel,
    /// Per-VIC injection pipes at the port rate.
    pub inject: Vec<Pipe>,
    /// Per-VIC ejection pipes at the port rate.
    pub eject: Vec<Pipe>,
    /// Packets currently inside the switch (for the load-dependent
    /// deflection penalty).
    in_flight: AtomicI64,
    /// Deterministic link-fault decisions (from `config.faults`; `None`
    /// simulates fault-free links).
    fault_injector: Option<LinkFaultInjector>,
    /// Surprise-FIFO packets in flight toward each node (transmitted but
    /// not yet delivered) — the basis of sender-side credit.
    fifo_inflight: Vec<AtomicI64>,
    /// Hardware barrier engine.
    pub barrier: Mutex<BarrierState>,
    /// Trace recorder.
    pub tracer: Arc<Tracer>,
    /// Metrics registry (disabled unless the cluster attached one).
    pub metrics: Arc<MetricsRegistry>,
    nodes: usize,
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
        let mut config = spec.machine.clone();
        // Grow the switch if the requested cluster exceeds its ports; a
        // zero-port switch never grows.
        assert!(config.dv.angles >= 1, "dv.angles must be at least 1");
        assert!(config.dv.height >= 1, "dv.height must be at least 1");
        while config.dv.ports() < nodes {
            config.dv.height *= 2;
        }
        let switch = SwitchModel::from_params(&config.dv);
        let link = config.dv.link_gbps;
        let fault_injector =
            config.faults.as_ref().map(|plan| LinkFaultInjector::new(plan.clone(), nodes));
        let world = Arc::new(Self {
            vics: (0..nodes)
                .map(|n| {
                    Arc::new(Mutex::new_named(
                        "api.vic",
                        Vic::from_parts(n, &config.dv, config.faults.clone()),
                    ))
                })
                .collect(),
            pcie: (0..nodes).map(|_| PciePath::new(config.pcie.clone())).collect(),
            inject: (0..nodes).map(|_| Pipe::new(link)).collect(),
            eject: (0..nodes).map(|_| Pipe::new(link)).collect(),
            in_flight: AtomicI64::new(0),
            fault_injector,
            fifo_inflight: (0..nodes).map(|_| AtomicI64::new(0)).collect(),
            barrier: Mutex::new_named("api.barrier", BarrierState { epoch: 0, count: 0, waiters: WaitSet::new() }),
            tracer: Arc::clone(&spec.tracer),
            metrics: Arc::clone(&spec.metrics),
            switch,
            config,
            nodes,
        });
        // Interval telemetry: when a timeseries is attached to the
        // registry, flush VIC counters and instantaneous gauges right
        // before each sample so per-interval deltas carry FIFO depth,
        // drops, and switch load. The hook holds a weak reference — the
        // registry often outlives the world (benches keep it for the
        // final report), and a strong cycle would leak every VIC.
        if world.metrics.is_enabled() {
            let weak = Arc::downgrade(&world);
            world.metrics.register_flush(move |m, _now| {
                if let Some(w) = weak.upgrade() {
                    w.flush_interval(m);
                }
            });
        }
        world
    }

    /// Publish everything accumulated since the previous flush plus the
    /// instantaneous state gauges. Called by the sampler hook before each
    /// timeseries sample; the end-of-run publish in `DvCluster` performs
    /// the same incremental flush, so interval deltas always sum to the
    /// final totals.
    fn flush_interval(&self, metrics: &MetricsRegistry) {
        for (n, vic) in self.vics.iter().enumerate() {
            let mut vic = vic.lock();
            vic.publish_metrics(metrics);
            metrics.gauge_labeled(
                "vic.fifo.depth",
                &[("node", (n as u64).into())],
                vic.fifo.len() as f64,
            );
        }
        metrics.gauge("switch.load", self.load());
    }

    /// Cluster size.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Instantaneous switch load estimate in `[0, 1]`: in-flight packets
    /// over the number of switching cells.
    pub fn load(&self) -> f64 {
        let cells = self.switch.net().nodes() as f64;
        (self.in_flight.load(Ordering::Relaxed).max(0) as f64 / cells).min(1.0)
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
        debug_assert!(packets.iter().all(|p| p.header.dest == dst));
        let n = packets.len() as u64;
        if n == 0 {
            return ready;
        }
        let (inj_start, mut eject_end) = self.cross_switch(src, dst, n, ready);

        // Fault application. Pipe/switch costs above are for the offered
        // batch: a packet lost in flight still occupied the wire.
        let mut delayed: Vec<(Time, Packet)> = Vec::new();
        let deliver = if let Some(inj) = &self.fault_injector {
            if let Some(stall) = inj.batch_stall(src, dst) {
                eject_end += stall;
                if self.metrics.is_enabled() {
                    self.metrics.incr("fault.eject.stalls", 1);
                    self.metrics.incr("fault.eject.stall_ps", stall);
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
                        delayed.push((eject_end + d, pkt));
                        continue;
                    }
                }
                if f.dup {
                    dups += 1;
                    kept.push(pkt);
                }
                kept.push(pkt);
            }
            if self.metrics.is_enabled() {
                if drops > 0 {
                    self.metrics.incr("fault.link.drops", drops);
                }
                if dups > 0 {
                    self.metrics.incr("fault.link.dups", dups);
                }
                if delayed_sets > 0 {
                    self.metrics.incr("fault.gc.delayed_sets", delayed_sets);
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
        if fifo_n > 0 {
            self.fifo_inflight[dst].fetch_add(fifo_n, Ordering::Relaxed);
        }

        // Load accounting: in the switch from injection until ejection.
        self.in_flight.fetch_add(n as i64, Ordering::Relaxed);
        let world = Arc::clone(self);
        self.tracer.message(src, dst, inj_start, eject_end, n * PACKET_BYTES);
        kernel.call_at(eject_end, move |k| {
            world.in_flight.fetch_sub(n as i64, Ordering::Relaxed);
            if fifo_n > 0 {
                world.fifo_inflight[dst].fetch_sub(fifo_n, Ordering::Relaxed);
            }
            let mut replies: Vec<Packet> = Vec::new();
            world.vics[dst].lock().deliver_batch(k, k.now(), &deliver, &mut replies);
            // Replies are formed by the VIC itself (no host or PCIe
            // involvement) and re-enter the switch from `dst`.
            for reply in replies {
                let rdst = reply.header.dest;
                let now = k.now();
                world.transmit(k, dst, rdst, vec![reply], now);
            }
        });
        for (when, pkt) in delayed {
            let world = Arc::clone(self);
            kernel.call_at(when, move |k| {
                let mut vic = world.vics[dst].lock();
                let reply = vic.deliver(k, k.now(), pkt);
                debug_assert!(reply.is_none(), "GroupCounterSet packets never reply");
            });
        }
        eject_end
    }

    /// Sender-visible credit for `dst`'s surprise FIFO: remaining capacity
    /// minus packets already in flight toward it. May go negative when
    /// senders outrun the drain; non-positive credit means a fresh push is
    /// likely to overflow.
    pub fn fifo_credit(&self, dst: NodeId) -> i64 {
        let capacity = self.config.dv.fifo_capacity as i64;
        let queued = self.vics[dst].lock().fifo.len() as i64;
        capacity - queued - self.fifo_inflight[dst].load(Ordering::Relaxed)
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

    /// The network leg both transmit paths share: `n` one-word packets
    /// available at `src`'s VIC at `ready` serialize onto its injection
    /// port, the head traverses the switch at the current load, and the
    /// ejection port serializes arrivals at `dst`. Returns the injection
    /// start and the time the last packet has left the ejection port.
    fn cross_switch(&self, src: NodeId, dst: NodeId, n: u64, ready: Time) -> (Time, Time) {
        let word_time = self.config.dv.word_time();
        let (inj_start, inj_end) = self.inject[src].reserve_duration(ready, n * word_time);
        let load = self.load();
        let traversal = self.switch.traversal(src, dst, load);
        self.record_net(n, n * PACKET_BYTES, load);
        let head_at_dst = inj_start + traversal;
        let (_, eject_end) = self.eject[dst].reserve_duration(head_at_dst, n * word_time);
        (inj_start, eject_end.max(inj_end + traversal))
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
        let n: u64 = blocks.iter().map(|b| b.words.len() as u64).sum();
        if n == 0 {
            return ready;
        }
        let (inj_start, eject_end) = self.cross_switch(src, dst, n, ready);

        self.in_flight.fetch_add(n as i64, Ordering::Relaxed);
        self.tracer.message(src, dst, inj_start, eject_end, n * PACKET_BYTES);
        let world = Arc::clone(self);
        kernel.call_at(eject_end, move |k| {
            world.in_flight.fetch_sub(n as i64, Ordering::Relaxed);
            let mut vic = world.vics[dst].lock();
            for b in &blocks {
                vic.deliver_block(k, b.address, &b.words, b.gc);
            }
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
