//! The rebuilt routed-network simulator's hot path must be allocation-free
//! in steady state: one `step` touches only the packet arena, the free
//! list, the fixed-capacity ring queues, the bitmap worklists, and the
//! caller's reused delivery buffer. The per-thread counting allocator of
//! `tests/common` wraps the system one; a measured
//! drain of a backlog identical to a warm-up backlog must leave the
//! counter untouched — the warm-up drives every buffer to the exact
//! high-water mark the measured phase needs.

mod common;

use common::allocations_in;
use datavortex::core::rng::SplitMix64;
use datavortex::switch::{AnyTopology, RoutedNetSim, TopoKind};

/// Enqueue the seeded backlog used by both the warm-up and measured
/// phases: `depth` packets per port, destinations from `seed`.
fn enqueue_backlog(sim: &mut RoutedNetSim, ports: usize, depth: u64, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for src in 0..ports {
        for k in 0..depth {
            sim.enqueue(src, rng.next_below(ports as u64) as usize, (src as u64) << 16 | k);
        }
    }
}

#[test]
fn steady_state_step_never_allocates() {
    for kind in [TopoKind::FatTree, TopoKind::MinPath, TopoKind::Vortex] {
        let net = AnyTopology::for_ports(kind, 64);
        let mut sim = RoutedNetSim::new(net);
        let ports = 64;
        let mut out = Vec::with_capacity(ports);

        // Warm-up: drain a full backlog so the arena, free list, and
        // scratch buffers all grow to the exact high-water marks the
        // identical measured backlog will need.
        enqueue_backlog(&mut sim, ports, 64, 0xA110C);
        while sim.outstanding() > 0 {
            out.clear();
            sim.step_into(&mut out);
        }
        let warm_cycles = sim.cycle();

        // Measured phase: the same backlog again (enqueue itself is
        // outside the window — injection FIFOs legitimately grow there).
        enqueue_backlog(&mut sim, ports, 64, 0xA110C);
        let mut delivered = 0u64;
        let allocated = allocations_in(|| {
            while sim.outstanding() > 0 {
                out.clear();
                sim.step_into(&mut out);
                delivered += out.len() as u64;
            }
        });
        assert_eq!(allocated, 0, "{kind:?}: step_into allocated across the measured drain");

        // The window did real work and repeated the warm-up exactly.
        assert_eq!(delivered, (ports * 64) as u64);
        assert_eq!(sim.cycle(), warm_cycles * 2, "{kind:?}: phases must be identical");
    }
}
