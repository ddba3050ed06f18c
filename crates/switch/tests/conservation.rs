//! Seeded conservation properties, one case table over both
//! [`CycleEngine`] implementors: no packet is ever created, duplicated,
//! misrouted or lost by [`SwitchSim`]'s or [`RoutedNetSim`]'s arenas,
//! rings and bitmaps. Checked every cycle, on the Data Vortex graph at
//! each movement kernel's shape (narrow, scalar-wide, batched) and on the
//! rival graphs.

use std::collections::BTreeMap;

use dv_core::rng::SplitMix64;
use dv_switch::{
    AnyTopology, CycleEngine, Delivered, NetworkTopology, RoutedNetSim, SwitchSim, TopoKind,
    Topology,
};

/// Per-cycle bookkeeping: what was enqueued and not yet delivered.
struct Ledger<'a> {
    net: &'a AnyTopology,
    /// tag → destination of every packet still owed.
    owed: BTreeMap<u64, usize>,
    enqueued: u64,
    delivered: u64,
    deflections: u64,
}

impl Ledger<'_> {
    /// Check one cycle's `Delivered` batch and the engine's counters.
    fn observe(&mut self, sim: &impl CycleEngine, out: &[Delivered]) {
        let mut ejected_at = Vec::with_capacity(out.len());
        for d in out {
            let dst = self
                .owed
                .remove(&d.tag)
                .unwrap_or_else(|| panic!("tag {:#x} delivered twice or never enqueued", d.tag));
            assert_eq!(d.dst_port, dst, "tag {:#x} left through the wrong port", d.tag);
            assert!(d.hops as usize >= self.net.min_hops(d.src_port, dst), "hops below minimum");
            assert!(d.eject_cycle >= d.inject_cycle && d.inject_cycle >= d.enqueue_cycle);
            ejected_at.push(dst);
            self.delivered += 1;
            self.deflections += d.deflections as u64;
        }
        ejected_at.sort_unstable();
        assert!(ejected_at.windows(2).all(|w| w[0] != w[1]), "two ejections at one port in a cycle");
        assert_eq!(
            self.enqueued,
            sim.ejected() + sim.outstanding() as u64,
            "cycle {}: packets leaked or duplicated",
            sim.cycle()
        );
        assert_eq!(self.delivered, sim.ejected());
        assert!(sim.ejected() <= sim.injected() && sim.injected() <= self.enqueued);
    }
}

/// Offer `sim` Bernoulli traffic at `load` for `cycles` cycles (half of it
/// aimed at port 0 when `hotspot`), checking the ledger every cycle; then
/// drain one cycle at a time, still checking, and assert every packet
/// came out exactly once and the drained engine stays silent. Returns the
/// contention deflections seen.
fn assert_conserves(
    mut sim: impl CycleEngine,
    net: &AnyTopology,
    (load, hotspot, cycles): (f64, bool, u64),
    seed: u64,
) -> u64 {
    let ports = net.ports();
    let mut rng = SplitMix64::new(seed);
    let mut ledger =
        Ledger { net, owed: BTreeMap::new(), enqueued: 0, delivered: 0, deflections: 0 };
    let mut out = Vec::new();
    for cycle in 0..cycles {
        for src in 0..ports {
            if rng.next_f64() >= load {
                continue;
            }
            let dst = if hotspot && rng.next_f64() < 0.5 {
                0
            } else {
                rng.next_below(ports as u64) as usize
            };
            let tag = cycle << 16 | src as u64;
            sim.enqueue(src, dst, tag);
            ledger.owed.insert(tag, dst);
            ledger.enqueued += 1;
        }
        out.clear();
        sim.step_into(&mut out);
        ledger.observe(&sim, &out);
    }
    while sim.outstanding() > 0 {
        out.clear();
        sim.step_into(&mut out);
        ledger.observe(&sim, &out);
        assert!(sim.cycle() < cycles + 100_000, "drain did not converge");
    }
    assert!(ledger.enqueued > 0, "workload must actually enqueue packets");
    assert_eq!(ledger.delivered, ledger.enqueued, "every enqueued packet must be delivered");
    assert!(ledger.owed.is_empty(), "undelivered tags remain");
    // Nothing stale may resurface from an arena, ring or grid.
    for _ in 0..100 {
        assert!(sim.step().is_empty(), "a drained engine produced a packet");
    }
    ledger.deflections
}

/// The Data Vortex graph at each movement kernel's shape: narrow (64
/// ports), scalar-wide (H = 32: a bitmap word spans two angles) and
/// batched (H = 128).
fn vortex_shapes() -> [Topology; 3] {
    [Topology::new(16, 4), Topology::new(32, 4), Topology::new(128, 4)]
}

/// Contention deflections of `deflection_engines_conserve_packets`' six
/// runs, [`vortex_shapes`] × its two loads in order, as the pre-refactor
/// switch simulator counted them.
const DEFLECTIONS: [u64; 6] = [32416, 10967, 78161, 48606, 411491, 797946];

#[test]
fn deflection_engines_conserve_packets() {
    // Offered past what the switch accepts, so the injection FIFOs back
    // up and contention deflections fire throughout.
    let mut totals = Vec::new();
    for (i, topo) in vortex_shapes().into_iter().enumerate() {
        let net = AnyTopology::Vortex(topo.clone());
        let seed = 0xD0 + i as u64;
        for run in [(0.9, false, 150), (0.6, true, 20)] {
            let deflections = assert_conserves(SwitchSim::new(topo.clone()), &net, run, seed);
            assert!(deflections > 0, "a saturated switch should deflect sometimes");
            totals.push(deflections);
        }
    }
    assert_eq!(totals, DEFLECTIONS, "deflection totals moved");
}

#[test]
fn store_and_forward_engines_conserve_packets() {
    // Sub-saturation loads: past ~x8 port depth of backlog the buffered
    // fabrics wedge (see `deadlocked_backlog_is_bit_equivalent`). Only the
    // fat tree's up/down routes are deadlock-free, so only it takes the
    // hotspot run.
    let rivals = [TopoKind::FatTree, TopoKind::MinPath]
        .into_iter()
        .flat_map(|kind| [64, 256].map(|ports| AnyTopology::for_ports(kind, ports)));
    for (i, net) in vortex_shapes().map(AnyTopology::Vortex).into_iter().chain(rivals).enumerate() {
        let seed = 0xFA7 + i as u64;
        let cycles = if net.ports() > 64 { 120 } else { 400 };
        let hotspot = (net.kind() == TopoKind::FatTree).then_some((0.05, true, cycles));
        for run in [(0.3, false, cycles)].into_iter().chain(hotspot) {
            assert_conserves(RoutedNetSim::new(net.clone()), &net, run, seed);
        }
    }
}
