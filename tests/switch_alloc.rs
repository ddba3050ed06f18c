//! The optimized cycle engines' hot path must be allocation-free: one
//! `step_into` touches only preallocated arenas, queue heads, bitmaps and
//! free lists, plus the caller's reused delivery buffer. The per-thread
//! counting allocator of `tests/common` wraps the system one and counts
//! what two drains of one seeded backlog allocate: the second drain must
//! leave the counter untouched on every engine — the first drives every
//! buffer to the exact high-water mark the second needs — and the Data
//! Vortex switch, whose arenas are sized at construction, must not
//! allocate in the first either. Construction is checked once: a rival
//! graph's route table is built by its first `RoutedNetSim` only.

mod common;

use std::collections::BTreeSet;

use common::{allocations_in, largest_allocation_in};
use datavortex::core::rng::SplitMix64;
use datavortex::switch::traffic::{LoadSweep, Pattern};
use datavortex::switch::{
    AnyTopology, CycleEngine, NetworkTopology, RoutedNetSim, SwitchSim, TopoKind, Topology,
};

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

/// `node_count × lut_cols`: the size of `net`'s one-byte next-hop table,
/// one column per distinct next-hop column over destination ports (the
/// eject node's own entry is the node itself, as `RoutedNetSim` builds it).
fn route_table_bytes(net: &AnyTopology) -> usize {
    let nodes = net.node_count();
    let columns: BTreeSet<Vec<usize>> = (0..net.ports())
        .map(|dst| {
            let out = net.eject_node(dst);
            (0..nodes).map(|n| if n == out { n } else { net.route_one_hop(n, dst) }).collect()
        })
        .collect();
    nodes * columns.len()
}

#[test]
fn a_second_simulator_on_a_graph_reuses_its_route_table() {
    // The table is built once per graph and shared by every clone of the
    // topology value, so only the first `RoutedNetSim::new` allocates it.
    for kind in [TopoKind::FatTree, TopoKind::MinPath] {
        let net = AnyTopology::for_ports(kind, 1024);
        let table = route_table_bytes(&net);
        let (first, second) = (net.clone(), net.clone());
        let largest = largest_allocation_in(|| drop(RoutedNetSim::new(first)));
        assert!(largest >= table, "{kind:?}: the first build allocates the {table}-byte table");
        let largest = largest_allocation_in(|| drop(RoutedNetSim::new(second)));
        assert!(largest < table, "{kind:?}: a {largest}-byte allocation, table {table} bytes");
    }
}

#[test]
fn a_backlogged_sweep_point_allocates_per_run_not_per_port() {
    // Hotspot 0.9 on 256 ports backs every input FIFO up to `LoadSweep`'s
    // `ports × 64` cap. The FIFOs share one slab, so the point allocates
    // its engine, its buffers and the slab's doublings — not a queue per
    // port that receives traffic, and again each time one doubles.
    let mut s = LoadSweep::new(Topology::new(64, 4));
    s.pattern = Pattern::Hotspot;
    let allocated = allocations_in(|| assert!(s.run(0.9).delivered > 0));
    assert!(allocated < 64, "{allocated} allocations for one sweep point");
}
