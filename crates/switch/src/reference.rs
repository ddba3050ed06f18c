//! Frozen pre-refactor switch implementation — the golden reference.
//!
//! This is the original (naive) [`crate::cycle::SwitchSim`] hot path,
//! kept verbatim: a `Vec<Vec<Option<Flit>>>` grid reallocated every
//! cycle, a full `cylinders × ports` scan per step, and an O(ports)
//! [`ReferenceSwitchSim::outstanding`]. It exists for one job, the
//! equivalence proof: `crates/switch/tests/equivalence.rs` drives it and
//! the optimized simulator with identical traffic and asserts the
//! `Delivered` streams are bit-identical — the refactor must not change a
//! single delivered packet. Nothing times it; the optimized path's speed
//! is tracked in absolute terms by the `benchmark/` ledger.
//!
//! The only deliberate divergence from the original: the hop/deflection
//! histograms and occupancy accumulators were dropped (they fed
//! `flush_metrics`, a no-op here, and they have no effect on the packet
//! stream).

use std::collections::VecDeque;

use dv_core::metrics::MetricsRegistry;

use crate::cycle::Delivered;
use crate::engine::CycleEngine;
use crate::topology::Topology;

/// A packet in flight through the reference switch.
#[derive(Debug, Clone, Copy)]
struct Flit {
    dst_h: usize,
    dst_a: usize,
    src_port: usize,
    dst_port: usize,
    tag: u64,
    inject_cycle: u64,
    enqueue_cycle: u64,
    hops: u32,
    deflections: u32,
}

/// The pre-refactor cycle-accurate switch (see the module docs).
pub struct ReferenceSwitchSim {
    topo: Topology,
    /// `grid[c][a * H + h]`.
    grid: Vec<Vec<Option<Flit>>>,
    queues: Vec<VecDeque<Flit>>,
    cycle: u64,
    injected: u64,
    ejected: u64,
    in_flight: usize,
}

impl ReferenceSwitchSim {
    /// A reference switch with the given topology, empty.
    pub fn new(topo: Topology) -> Self {
        let cells = topo.ports();
        let cylinders = topo.cylinders();
        Self {
            grid: vec![vec![None; cells]; cylinders],
            queues: vec![VecDeque::new(); topo.ports()],
            topo,
            cycle: 0,
            injected: 0,
            ejected: 0,
            in_flight: 0,
        }
    }

    /// The switch's topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    fn cell(&self, h: usize, a: usize) -> usize {
        a * self.topo.height + h
    }

    /// Advance one cycle with the pre-refactor step body; returns the
    /// packets ejected during it.
    fn step_reference(&mut self) -> Vec<Delivered> {
        let topo = self.topo.clone();
        let cylinders = topo.cylinders();
        let angles = topo.angles;
        let height = topo.height;
        let mut next: Vec<Vec<Option<Flit>>> = vec![vec![None; topo.ports()]; cylinders];
        let mut out = Vec::new();

        // Inner cylinders first: same-cylinder movement has priority (it
        // carries the deflection signal), so by the time an outer cylinder
        // tries to descend, the inner cylinder's claims are final.
        for c in (0..cylinders).rev() {
            let innermost = c == cylinders - 1;
            for a in 0..angles {
                for h in 0..height {
                    let cur = self.cell(h, a);
                    let Some(mut f) = self.grid[c][cur].take() else {
                        continue;
                    };
                    f.hops += 1;
                    let a1 = (a + 1) % angles;
                    if innermost {
                        debug_assert_eq!(h, f.dst_h, "innermost height must be matched");
                        if a == f.dst_a {
                            f.hops -= 1; // ejection is not a hop
                            self.ejected += 1;
                            self.in_flight -= 1;
                            out.push(Delivered {
                                src_port: f.src_port,
                                dst_port: f.dst_port,
                                tag: f.tag,
                                enqueue_cycle: f.enqueue_cycle,
                                inject_cycle: f.inject_cycle,
                                eject_cycle: self.cycle,
                                hops: f.hops,
                                deflections: f.deflections,
                            });
                        } else {
                            let tgt = self.cell(h, a1);
                            debug_assert!(next[c][tgt].is_none());
                            next[c][tgt] = Some(f);
                        }
                    } else if topo.bit_matches(c, h, f.dst_h) {
                        // Normal path: descend, same height, next angle.
                        let tgt = self.cell(h, a1);
                        if next[c + 1][tgt].is_none() {
                            next[c + 1][tgt] = Some(f);
                        } else {
                            // Blocked by the deflection signal: stay in the
                            // cylinder on the deflection path.
                            f.deflections += 1;
                            let dh = topo.deflect_height(c, h);
                            let tgt = self.cell(dh, a1);
                            debug_assert!(
                                next[c][tgt].is_none(),
                                "same-cylinder moves cannot conflict"
                            );
                            next[c][tgt] = Some(f);
                        }
                    } else {
                        // Bit mismatch: routing deflection path toggles the
                        // bit under scrutiny.
                        let dh = topo.deflect_height(c, h);
                        let tgt = self.cell(dh, a1);
                        debug_assert!(next[c][tgt].is_none());
                        next[c][tgt] = Some(f);
                    }
                }
            }
        }

        // Injection last: an input port only fires into an empty cell of
        // the outermost cylinder (backpressure otherwise).
        for port in 0..topo.ports() {
            if self.queues[port].is_empty() {
                continue;
            }
            let (h, a) = topo.port_position(port);
            let cellidx = self.cell(h, a);
            if next[0][cellidx].is_none() {
                let mut f = self.queues[port].pop_front().unwrap();
                f.inject_cycle = self.cycle;
                self.injected += 1;
                self.in_flight += 1;
                next[0][cellidx] = Some(f);
            }
        }

        self.grid = next;
        self.cycle += 1;
        out
    }
}

impl CycleEngine for ReferenceSwitchSim {
    fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The original O(ports) queue scan.
    fn outstanding(&self) -> usize {
        self.in_flight + self.queues.iter().map(VecDeque::len).sum::<usize>()
    }

    fn injected(&self) -> u64 {
        self.injected
    }

    fn ejected(&self) -> u64 {
        self.ejected
    }

    fn enqueue(&mut self, src_port: usize, dst_port: usize, tag: u64) {
        assert!(src_port < self.topo.ports() && dst_port < self.topo.ports());
        let (dst_h, dst_a) = self.topo.port_position(dst_port);
        self.queues[src_port].push_back(Flit {
            dst_h,
            dst_a,
            src_port,
            dst_port,
            tag,
            inject_cycle: 0,
            enqueue_cycle: self.cycle,
            hops: 0,
            deflections: 0,
        });
    }

    fn step_into(&mut self, out: &mut Vec<Delivered>) {
        out.extend(self.step_reference());
    }

    fn flush_metrics(&mut self, _: &MetricsRegistry) {}
}
