//! Frozen pre-rebuild routed-network simulator — the golden reference.
//!
//! This is the original (naive) [`crate::net::RoutedNetSim`] hot path,
//! kept verbatim: `vec![VecDeque; nodes]` node queues, a full
//! `0..node_count` scan every cycle, enum dispatch into
//! [`NetworkTopology::route_one_hop`] on every hop of every packet
//! (`MinPathGraph` re-scans its sorted adjacency against the O(n²)
//! distance table each time), and a linear `used_links.contains` scan per
//! forwarded packet. It exists for the same one job as
//! [`crate::reference::ReferenceSwitchSim`], the equivalence proof:
//! `crates/switch/tests/equivalence.rs` drives it and the rebuilt
//! simulator with identical traffic and asserts the [`Delivered`] streams
//! are bit-identical — the rebuild must not change a single delivered
//! packet on any topology. Nothing times it.
//!
//! The only deliberate divergence from the original: the hop histogram
//! and metrics flush seams were dropped (`flush_metrics` is a no-op
//! here; they have no effect on the packet stream).

use std::collections::VecDeque;

use dv_core::metrics::MetricsRegistry;

use crate::cycle::Delivered;
use crate::engine::CycleEngine;
use crate::net::{AnyTopology, NetworkTopology, NODE_QUEUE_CAP};

/// A queued arrival at an input port (frozen engine).
#[derive(Debug, Clone, Copy)]
struct RefQueued {
    src_port: u32,
    dst_port: u32,
    tag: u64,
    enqueue_cycle: u64,
}

/// An in-flight packet in a node queue (frozen engine).
#[derive(Debug, Clone, Copy)]
struct RefPkt {
    src_port: u32,
    dst_port: u32,
    tag: u64,
    enqueue_cycle: u64,
    inject_cycle: u64,
    hops: u32,
    /// Cycle of the last movement (or injection): a packet moves at most
    /// one link per cycle, so same-cycle arrivals wait at the tail.
    moved_cycle: u64,
}

/// The pre-rebuild store-and-forward cycle simulator (see the module
/// docs). Semantics are identical to [`crate::net::RoutedNetSim`]; only
/// the data structures differ.
pub struct ReferenceNetSim {
    net: AnyTopology,
    ports: usize,
    /// Per-node FIFO of in-flight packets.
    node_q: Vec<VecDeque<RefPkt>>,
    /// Per-port injection FIFOs (unbounded).
    queues: Vec<VecDeque<RefQueued>>,
    queued: usize,
    in_flight: usize,
    /// `cycle + 1` of each output port's last ejection (0 = never).
    last_eject: Vec<u64>,
    /// Scratch: packets blocked this cycle, re-queued in order.
    keep: Vec<RefPkt>,
    /// Scratch: outgoing links already used by the node under scan.
    used_links: Vec<u32>,
    cycle: u64,
    injected: u64,
    ejected: u64,
}

impl ReferenceNetSim {
    /// An empty reference simulator for `net`.
    pub fn new(net: AnyTopology) -> Self {
        let ports = net.ports();
        let nodes = net.node_count();
        Self {
            ports,
            node_q: vec![VecDeque::new(); nodes],
            queues: vec![VecDeque::new(); ports],
            queued: 0,
            in_flight: 0,
            last_eject: vec![0; ports],
            keep: Vec::new(),
            used_links: Vec::new(),
            cycle: 0,
            injected: 0,
            ejected: 0,
            net,
        }
    }
}

impl CycleEngine for ReferenceNetSim {
    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn outstanding(&self) -> usize {
        self.queued + self.in_flight
    }

    fn injected(&self) -> u64 {
        self.injected
    }

    fn ejected(&self) -> u64 {
        self.ejected
    }

    fn enqueue(&mut self, src_port: usize, dst_port: usize, tag: u64) {
        assert!(src_port < self.ports && dst_port < self.ports);
        self.queues[src_port].push_back(RefQueued {
            src_port: u32::try_from(src_port).expect("port index fits in u32"),
            dst_port: u32::try_from(dst_port).expect("port index fits in u32"),
            tag,
            enqueue_cycle: self.cycle,
        });
        self.queued += 1;
    }

    /// The frozen step body.
    fn step_into(&mut self, out: &mut Vec<Delivered>) {
        let cycle = self.cycle;
        for node in 0..self.node_q.len() {
            if self.node_q[node].is_empty() {
                continue;
            }
            self.used_links.clear();
            let len = self.node_q[node].len();
            for _ in 0..len {
                let Some(mut pkt) = self.node_q[node].pop_front() else { break };
                if pkt.moved_cycle == cycle {
                    // Arrived this cycle; everything behind it did too.
                    self.node_q[node].push_front(pkt);
                    break;
                }
                let dst = pkt.dst_port as usize;
                if node == self.net.eject_node(dst) {
                    if self.last_eject[dst] != cycle + 1 {
                        self.last_eject[dst] = cycle + 1;
                        self.ejected += 1;
                        self.in_flight -= 1;
                        out.push(Delivered {
                            src_port: pkt.src_port as usize,
                            dst_port: dst,
                            tag: pkt.tag,
                            enqueue_cycle: pkt.enqueue_cycle,
                            inject_cycle: pkt.inject_cycle,
                            eject_cycle: cycle,
                            hops: pkt.hops,
                            deflections: 0,
                        });
                    } else {
                        self.keep.push(pkt); // output port busy this cycle
                    }
                    continue;
                }
                let nxt = self.net.route_one_hop(node, dst);
                debug_assert_ne!(nxt, node, "route must progress until the eject node");
                let nxt32 = u32::try_from(nxt).expect("node index fits in u32");
                if self.used_links.contains(&nxt32)
                    || self.node_q[nxt].len() >= NODE_QUEUE_CAP
                {
                    self.keep.push(pkt); // link busy or receiver full
                    continue;
                }
                self.used_links.push(nxt32);
                pkt.hops += 1;
                pkt.moved_cycle = cycle;
                self.node_q[nxt].push_back(pkt);
            }
            // Blocked packets return to the front in their original order.
            for pkt in self.keep.drain(..).rev() {
                self.node_q[node].push_front(pkt);
            }
        }

        // Injection after movement: one packet per port per cycle, if the
        // entry node has room.
        if self.queued > 0 {
            for port in 0..self.ports {
                if self.queues[port].is_empty() {
                    continue;
                }
                let entry = self.net.inject_node(port);
                if self.node_q[entry].len() >= NODE_QUEUE_CAP {
                    continue;
                }
                let q = self.queues[port].pop_front().expect("queue checked non-empty");
                self.queued -= 1;
                self.injected += 1;
                self.in_flight += 1;
                self.node_q[entry].push_back(RefPkt {
                    src_port: q.src_port,
                    dst_port: q.dst_port,
                    tag: q.tag,
                    enqueue_cycle: q.enqueue_cycle,
                    inject_cycle: cycle,
                    hops: 0,
                    moved_cycle: cycle,
                });
            }
        }
        self.cycle += 1;
    }

    fn flush_metrics(&mut self, _: &MetricsRegistry) {}
}
