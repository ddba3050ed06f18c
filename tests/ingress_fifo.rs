//! The cycle engines' input FIFOs — every port's queue linked through one
//! free-listed slab — checked through the public engines against a
//! `VecDeque` per port. Seeded pushes land mostly on four hot ports (deep
//! FIFOs, in more than one bitmap word) and singly elsewhere, interleaved
//! with the pops each step's injection makes. Three properties:
//! * every port's packets enter the network in the order they were
//!   queued, carrying their own enqueue cycle;
//! * under light load, where nothing can block injection, exactly the
//!   ports with a packet queued inject each cycle — the pending-port
//!   bitmap never misses or invents a port;
//! * the same schedule run again on the drained engine allocates nothing:
//!   popped entries are reused, so the slab stays at its high-water mark.

mod common;

use std::collections::{BTreeMap, VecDeque};

use common::allocations_in;
use datavortex::core::rng::SplitMix64;
use datavortex::switch::{
    AnyTopology, CycleEngine, Delivered, RoutedNetSim, SwitchSim, TopoKind, Topology,
};

/// Outstanding packets stay below this: under `RoutedNetSim`'s 64-packet
/// node queue bound, so no node is ever full and injection never blocks.
const LIGHT: usize = 48;

/// Cycles with pushes; the engine then drains.
const CYCLES: u64 = 600;

/// One seeded run on `sim`, checked against the oracle; returns how many
/// allocations the engine's own `enqueue` and `step_into` calls made.
/// `conserving`: nothing blocks injection, so every port with a packet
/// queued injects its head each cycle.
fn run(sim: &mut impl CycleEngine, ports: usize, seed: u64, conserving: bool) -> u64 {
    let mut rng = SplitMix64::new(seed);
    let hot = [0, 1, ports / 2 + 3, ports - 1];
    let mut oracle: Vec<VecDeque<u64>> = vec![VecDeque::new(); ports];
    let mut pushed: Vec<Vec<u64>> = vec![Vec::new(); ports];
    // tag -> (enqueue cycle, expected inject cycle when `conserving`)
    let mut expected: BTreeMap<u64, (u64, Option<u64>)> = BTreeMap::new();
    let mut delivered: Vec<Delivered> = Vec::new();
    let mut out = Vec::with_capacity(ports);
    let (mut allocations, mut tag) = (0, 0u64);
    let first = sim.cycle();
    while sim.cycle() < first + CYCLES || sim.outstanding() > 0 {
        let cycle = sim.cycle();
        for _ in 0..if cycle < first + CYCLES { rng.next_below(6) } else { 0 } {
            if sim.outstanding() >= LIGHT {
                break;
            }
            let src = if rng.next_f64() < 0.7 {
                hot[rng.next_below(4) as usize]
            } else {
                rng.next_below(ports as u64) as usize
            };
            let dst = rng.next_below(ports as u64) as usize;
            allocations += allocations_in(|| sim.enqueue(src, dst, tag));
            oracle[src].push_back(tag);
            pushed[src].push(tag);
            expected.insert(tag, (cycle, None));
            tag += 1;
        }
        let injected = sim.injected();
        out.clear();
        allocations += allocations_in(|| sim.step_into(&mut out));
        delivered.extend_from_slice(&out);
        if conserving {
            let heads: Vec<u64> = oracle.iter_mut().filter_map(VecDeque::pop_front).collect();
            assert_eq!(sim.injected() - injected, heads.len() as u64, "cycle {cycle}");
            for head in heads {
                expected.get_mut(&head).expect("pushed").1 = Some(cycle);
            }
        }
        assert!(sim.cycle() < first + 50 * CYCLES, "the light load must drain");
    }
    assert_eq!(delivered.len() as u64, tag, "every packet delivered once");
    for d in &delivered {
        let (enqueued, injected) = expected[&d.tag];
        assert_eq!(d.enqueue_cycle, enqueued, "tag {}", d.tag);
        if conserving {
            assert_eq!(Some(d.inject_cycle), injected, "tag {}: the head injects", d.tag);
        }
    }
    // Per port, injection order is queueing order.
    delivered.sort_by_key(|d| (d.src_port, d.inject_cycle));
    for (src, tags) in pushed.iter().enumerate() {
        let injected: Vec<u64> =
            delivered.iter().filter(|d| d.src_port == src).map(|d| d.tag).collect();
        assert_eq!(&injected, tags, "port {src}: FIFO order");
    }
    allocations
}

fn assert_fifos<E: CycleEngine>(new: impl Fn() -> E, ports: usize, conserving: bool) {
    for seed in [1, 0xF1F0] {
        let mut sim = new();
        assert!(run(&mut sim, ports, seed, conserving) > 0, "the first run grows the slab");
        assert_eq!(run(&mut sim, ports, seed, conserving), 0, "seed {seed}: the slab grew again");
    }
}

#[test]
fn routed_engine_fifos_and_pending_ports_match_a_vecdeque_per_port() {
    for kind in [TopoKind::FatTree, TopoKind::MinPath] {
        assert_fifos(|| RoutedNetSim::new(AnyTopology::for_ports(kind, 128)), 128, true);
    }
}

#[test]
fn switch_fifos_keep_queueing_order_and_reuse_the_slab() {
    // Narrow and scalar-wide kernels: injection can block on a deflected
    // flit here, so only order and reuse are checked.
    for topo in [Topology::new(16, 4), Topology::new(32, 4)] {
        let ports = topo.ports();
        assert_fifos(|| SwitchSim::new(topo.clone()), ports, false);
    }
}
