//! The optimized cycle engines' hot path must be allocation-free: one
//! `step_into` touches only preallocated arenas, rings, bitmaps and free
//! lists, plus the caller's reused delivery buffer. The per-thread
//! counting allocator of `tests/common` wraps the system one and counts
//! what two drains of one seeded backlog allocate: the second drain must
//! leave the counter untouched on every engine — the first drives every
//! buffer to the exact high-water mark the second needs — and the Data
//! Vortex switch, whose arenas are sized at construction, must not
//! allocate in the first either.

mod common;

use common::allocations_in;
use datavortex::core::rng::SplitMix64;
use datavortex::switch::{AnyTopology, CycleEngine, RoutedNetSim, SwitchSim, TopoKind, Topology};

/// Allocations inside a cold and then a warm drain of the same backlog of
/// `depth` packets per port (enqueueing is outside both windows —
/// injection FIFOs legitimately grow there).
fn drain_allocations(mut sim: impl CycleEngine, ports: usize, depth: u64) -> [u64; 2] {
    let mut out = Vec::with_capacity(ports);
    let mut drain = |sim: &mut dyn CycleEngine| {
        let mut rng = SplitMix64::new(0xA110C);
        for src in 0..ports {
            for k in 0..depth {
                sim.enqueue(src, rng.next_below(ports as u64) as usize, (src as u64) << 16 | k);
            }
        }
        let mut delivered = 0u64;
        let allocated = allocations_in(|| {
            while sim.outstanding() > 0 {
                out.clear();
                sim.step_into(&mut out);
                delivered += out.len() as u64;
            }
        });
        assert_eq!(delivered, ports as u64 * depth, "the window must do real work");
        allocated
    };
    let cold = drain(&mut sim);
    let cold_cycles = sim.cycle();
    let warm = drain(&mut sim);
    assert_eq!(sim.cycle(), cold_cycles * 2, "the two drains must be identical");
    [cold, warm]
}

#[test]
fn saturated_step_never_allocates() {
    // 128 queued packets per port: the arena runs at high occupancy and
    // contention deflections fire throughout. One switch per movement
    // kernel: narrow, scalar-wide, batched.
    for topo in [Topology::new(16, 4), Topology::new(32, 4), Topology::new(128, 4)] {
        let ports = topo.ports();
        assert_eq!(drain_allocations(SwitchSim::new(topo.clone()), ports, 128), [0, 0], "{topo:?}");
    }
}

#[test]
fn steady_state_step_never_allocates() {
    for kind in TopoKind::ALL {
        let sim = RoutedNetSim::new(AnyTopology::for_ports(kind, 64));
        assert_eq!(drain_allocations(sim, 64, 64)[1], 0, "{kind:?}");
    }
}
