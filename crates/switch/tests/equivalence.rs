//! Golden equivalence: each optimized engine must deliver *exactly* the
//! packet stream of its frozen oracle — same tags, same cycles, same
//! hops, same deflections, in the same order — across every topology and
//! traffic pattern, with and without injected link faults, including the
//! drain tails. One lock-step harness, generic over [`CycleEngine`],
//! serves both pairs: [`SwitchSim`] against [`ReferenceSwitchSim`] (every
//! movement kernel: narrow, scalar-wide, batched with `u16` and `u32`
//! handles) and [`RoutedNetSim`] against [`ReferenceNetSim`] (all three
//! topologies, rivals up to 4096 ports).

use dv_core::fault::FaultPlan;
use dv_core::rng::SplitMix64;
use dv_switch::{
    AnyTopology, CycleEngine, LinkFaultInjector, MinPathGraph, NetworkTopology, ReferenceNetSim,
    ReferenceSwitchSim, RoutedNetSim, SwitchSim, TopoKind, Topology,
};

/// How one cycle's arrivals pick destinations.
#[derive(Clone, Copy)]
enum Workload {
    Uniform,
    Hotspot,
    Tornado,
}

impl Workload {
    fn dst(self, rng: &mut SplitMix64, ports: usize, src: usize) -> usize {
        match self {
            Workload::Uniform => rng.next_below(ports as u64) as usize,
            Workload::Hotspot => {
                if rng.next_f64() < 0.5 {
                    0
                } else {
                    rng.next_below(ports as u64) as usize
                }
            }
            Workload::Tornado => (src + ports / 2) % ports,
        }
    }
}

/// What differs between the two engine families' runs.
struct Family {
    seed: u64,
    /// Arrivals are skipped while `outstanding > ports × backlog`.
    backlog: usize,
    drain_budget: u64,
}

/// The bufferless switch deflects instead of wedging, so its backlog may
/// run as deep as `LoadSweep` lets it.
const DV: Family = Family { seed: 0x51CA_FFE5, backlog: 64, drain_budget: 1_000_000 };

/// x4 keeps the backlog deep enough to exercise blocking and
/// keep/re-queue paths, but below the store-and-forward deadlock regime
/// (finite FIFO queues + head-of-line blocking around cyclic buffer
/// dependencies wedge every topology here once outstanding grows past
/// ~x8 port depth). `deadlocked_backlog_is_bit_equivalent` covers the
/// wedged regime with a bounded run; every other probed workload clears
/// in well under 1k cycles.
const ROUTED: Family = Family { seed: 0x0DD5_EED5, backlog: 4, drain_budget: 50_000 };

/// Drive both sims with identical traffic for `cycles` cycles and assert
/// the per-cycle `Delivered` batches match exactly; returns how many
/// packets were delivered. Fault decisions are made once per arrival and
/// applied to both sims.
fn lockstep(
    new_sim: &mut impl CycleEngine,
    ref_sim: &mut impl CycleEngine,
    ports: usize,
    rng: &mut SplitMix64,
    (workload, load, cycles): (Workload, f64, u64),
    backlog: usize,
    injector: Option<&LinkFaultInjector>,
) -> u64 {
    let mut out = Vec::with_capacity(ports);
    let mut expected = Vec::with_capacity(ports);
    let mut total = 0;
    for cycle in 0..cycles {
        for src in 0..ports {
            if rng.next_f64() >= load || new_sim.outstanding() > ports * backlog {
                continue;
            }
            let dst = workload.dst(rng, ports, src);
            if injector.is_some_and(|inj| inj.packet_fault(src, dst).drop) {
                continue;
            }
            let tag = cycle << 16 | src as u64;
            new_sim.enqueue(src, dst, tag);
            ref_sim.enqueue(src, dst, tag);
        }
        out.clear();
        expected.clear();
        new_sim.step_into(&mut out);
        ref_sim.step_into(&mut expected);
        assert_eq!(out, expected, "cycle {cycle}: delivered batches diverge");
        total += out.len() as u64;
    }
    total
}

fn assert_equivalent(
    family: &Family,
    mut new_sim: impl CycleEngine,
    mut ref_sim: impl CycleEngine,
    ports: usize,
    run: (Workload, f64, u64),
    faults: Option<FaultPlan>,
) {
    let injector = faults.map(|plan| LinkFaultInjector::new(plan, ports));
    let mut rng = SplitMix64::new(family.seed);
    let (backlog, injector) = (family.backlog, injector.as_ref());
    let total = lockstep(&mut new_sim, &mut ref_sim, ports, &mut rng, run, backlog, injector);
    assert_eq!(new_sim.outstanding(), ref_sim.outstanding());
    assert_eq!(new_sim.injected(), ref_sim.injected());
    assert_eq!(new_sim.ejected(), ref_sim.ejected());
    assert_eq!(new_sim.ejected(), total);
    assert!(total > 0, "workload must actually deliver packets");

    // Drain the tail too: backlog clearance must also match packet for
    // packet.
    let new_tail = new_sim.drain(family.drain_budget);
    let ref_tail = ref_sim.drain(family.drain_budget);
    assert_eq!(new_tail, ref_tail, "drain tails diverge");
    assert_eq!(new_sim.outstanding(), 0);
}

/// `SwitchSim` (whichever kernel the topology resolves to) against its
/// oracle.
fn dv(topo: Topology, workload: Workload, load: f64, cycles: u64, faults: Option<FaultPlan>) {
    let (ports, run) = (topo.ports(), (workload, load, cycles));
    let (new_sim, ref_sim) = (SwitchSim::new(topo.clone()), ReferenceSwitchSim::new(topo));
    assert_equivalent(&DV, new_sim, ref_sim, ports, run, faults);
}

/// `RoutedNetSim` against its oracle.
fn routed(net: AnyTopology, workload: Workload, load: f64, cycles: u64, faults: Option<FaultPlan>) {
    let (ports, run) = (net.ports(), (workload, load, cycles));
    let (new_sim, ref_sim) = (RoutedNetSim::new(net.clone()), ReferenceNetSim::new(net));
    assert_equivalent(&ROUTED, new_sim, ref_sim, ports, run, faults);
}

/// Everything enqueued up front (deep queues, maximum contention), then
/// the network drains with no further arrivals.
fn burst_then_silence(
    mut new_sim: impl CycleEngine,
    mut ref_sim: impl CycleEngine,
    ports: usize,
    depth: u64,
) {
    let mut rng = SplitMix64::new(99);
    for src in 0..ports {
        for k in 0..depth {
            let dst = rng.next_below(ports as u64) as usize;
            let tag = (src as u64) << 16 | k;
            new_sim.enqueue(src, dst, tag);
            ref_sim.enqueue(src, dst, tag);
        }
    }
    let mut out = Vec::with_capacity(ports);
    let mut expected = Vec::with_capacity(ports);
    while ref_sim.outstanding() > 0 {
        assert!(ref_sim.cycle() < 50_000, "burst drain did not converge");
        out.clear();
        expected.clear();
        new_sim.step_into(&mut out);
        ref_sim.step_into(&mut expected);
        assert_eq!(out, expected);
    }
    assert_eq!(new_sim.outstanding(), 0);
    assert_eq!(new_sim.ejected(), ports as u64 * depth);
}

/// The two narrow (≤ 64-port) switches.
fn narrow() -> [Topology; 2] {
    [Topology::new(8, 4), Topology::new(16, 4)]
}

/// Fat tree, min-path graph, and the DV graph routed store-and-forward.
fn nets(ports: usize) -> [AnyTopology; 3] {
    TopoKind::ALL.map(|kind| AnyTopology::for_ports(kind, ports))
}

fn rivals(ports: usize) -> [AnyTopology; 2] {
    [TopoKind::FatTree, TopoKind::MinPath].map(|kind| AnyTopology::for_ports(kind, ports))
}

#[test]
fn uniform_traffic_is_bit_equivalent() {
    for topo in narrow() {
        dv(topo, Workload::Uniform, 0.8, 600, None);
    }
    for net in nets(64) {
        routed(net, Workload::Uniform, 0.8, 400, None);
    }
}

#[test]
fn hotspot_traffic_is_bit_equivalent() {
    for topo in narrow() {
        dv(topo, Workload::Hotspot, 0.6, 600, None);
    }
    for net in nets(64) {
        routed(net, Workload::Hotspot, 0.5, 400, None);
    }
}

#[test]
fn tornado_traffic_is_bit_equivalent() {
    for topo in narrow() {
        dv(topo, Workload::Tornado, 0.9, 600, None);
    }
    for net in nets(64) {
        routed(net, Workload::Tornado, 0.9, 400, None);
    }
}

#[test]
fn faulted_traffic_is_bit_equivalent() {
    let plan = FaultPlan { seed: 17, link_drop: 0.1, ..Default::default() };
    for topo in narrow() {
        dv(topo, Workload::Uniform, 0.8, 600, Some(plan.clone()));
    }
    for net in nets(64) {
        routed(net, Workload::Uniform, 0.8, 400, Some(plan.clone()));
    }
}

#[test]
fn saturated_burst_then_silence_is_bit_equivalent() {
    for topo in narrow() {
        let ports = topo.ports();
        burst_then_silence(SwitchSim::new(topo.clone()), ReferenceSwitchSim::new(topo), ports, 40);
    }
    // Burst depth 4 per port: the deepest backlog probed to still clear
    // on every rival topology.
    for net in rivals(64) {
        burst_then_silence(RoutedNetSim::new(net.clone()), ReferenceNetSim::new(net), 64, 4);
    }
}

#[test]
fn scalar_wide_switch_is_bit_equivalent() {
    // More than 64 ports but H < 64: multi-word occupancy bitmaps served
    // by the scalar wide kernel (a word spans two angles here, so the
    // batched kernel does not apply).
    dv(Topology::new(32, 4), Workload::Uniform, 0.7, 400, None);
    dv(Topology::new(32, 4), Workload::Tornado, 0.9, 400, None);
    dv(Topology::new(32, 4), Workload::Hotspot, 0.5, 400, None);
    let plan = FaultPlan { seed: 17, link_drop: 0.1, ..Default::default() };
    dv(Topology::new(32, 4), Workload::Uniform, 0.7, 400, Some(plan));
}

#[test]
fn batched_wide_h128_is_bit_equivalent() {
    // H = 128 (512 ports, A = 4): the batched word-parallel kernel, all
    // three workloads, including the drain tail.
    let topo = || Topology::new(128, 4);
    dv(topo(), Workload::Uniform, 0.7, 200, None);
    dv(topo(), Workload::Hotspot, 0.5, 200, None);
    dv(topo(), Workload::Tornado, 0.9, 150, None);
}

#[test]
fn batched_wide_h256_is_bit_equivalent() {
    // H = 256 (1024 ports): the largest switch `switch_sweep` times.
    let topo = || Topology::new(256, 4);
    dv(topo(), Workload::Uniform, 0.7, 150, None);
    dv(topo(), Workload::Tornado, 0.9, 120, None);
}

#[test]
fn batched_wide_u32_handles_is_bit_equivalent() {
    // H = 2048, A = 4: 8192 ports and 98304 cells — past the 2^16 pool
    // bound, so the batched kernel runs its u32 handle instantiation
    // (every other wide test here fits the u16 path). Short runs: the
    // reference is the per-flit scalar baseline and this is the largest
    // topology in the suite.
    let topo = || Topology::new(2048, 4);
    dv(topo(), Workload::Uniform, 0.4, 60, None);
    dv(topo(), Workload::Tornado, 0.6, 50, None);
}

#[test]
fn batched_wide_faulted_is_bit_equivalent() {
    // Seeded fault drops thin the batched kernel's words irregularly.
    let plan = FaultPlan { seed: 17, link_drop: 0.1, ..Default::default() };
    dv(Topology::new(128, 4), Workload::Uniform, 0.7, 250, Some(plan.clone()));
    dv(Topology::new(256, 4), Workload::Hotspot, 0.5, 150, Some(plan));
}

#[test]
fn rivals_at_256_are_bit_equivalent() {
    for net in rivals(256) {
        routed(net.clone(), Workload::Uniform, 0.6, 150, None);
        routed(net, Workload::Tornado, 0.9, 120, None);
    }
}

#[test]
fn rivals_at_1024_are_bit_equivalent() {
    for net in rivals(1024) {
        routed(net, Workload::Uniform, 0.5, 60, None);
    }
}

#[test]
fn rivals_at_4096_are_bit_equivalent() {
    // The largest sweep size in the figure suite. Short runs: the
    // reference re-routes every hop through the virtual dispatch and this
    // test also runs in debug builds.
    for net in rivals(4096) {
        routed(net, Workload::Uniform, 0.3, 25, None);
    }
}

#[test]
fn rivals_at_4096_faulted_is_bit_equivalent() {
    // Uniform, not hotspot: at 4096 ports a single hot ejection port
    // drains at one packet per cycle, which turns the drain tail into
    // tens of thousands of full-fabric cycles on the (deliberately slow)
    // reference. Hotspot coverage lives in the 64/256-port tests.
    let plan = FaultPlan { seed: 23, link_drop: 0.05, ..Default::default() };
    for net in rivals(4096) {
        routed(net, Workload::Uniform, 0.25, 20, Some(plan.clone()));
    }
}

#[test]
fn deadlocked_backlog_is_bit_equivalent() {
    // Past ~x8 port depth the buffered store-and-forward protocol wedges:
    // finite per-node FIFOs plus head-of-line blocking form a cycle of
    // full queues that never clears (the frozen semantics since the rival
    // engine landed — the bufferless DV switch deflects instead of
    // wedging). The rebuilt engine must reproduce the wedged trajectory
    // packet for packet, and wedge at the same outstanding count.
    let net = AnyTopology::for_ports(TopoKind::MinPath, 64);
    let mut new_sim = RoutedNetSim::new(net.clone());
    let mut ref_sim = ReferenceNetSim::new(net);
    let mut rng = SplitMix64::new(ROUTED.seed);
    lockstep(&mut new_sim, &mut ref_sim, 64, &mut rng, (Workload::Uniform, 0.8, 400), 64, None);
    // Bounded drain attempt (no arrivals): both must stall identically,
    // still loaded.
    lockstep(&mut new_sim, &mut ref_sim, 64, &mut rng, (Workload::Uniform, 0.0, 1_000), 64, None);
    assert_eq!(new_sim.outstanding(), ref_sim.outstanding());
    assert!(new_sim.outstanding() > 0, "this workload is expected to wedge");
}

#[test]
fn rivals_at_the_benchmark_load_and_backlog_are_bit_equivalent() {
    // `switch_sweep`'s rival points: 1024 ports, `LoadSweep`'s 0.9 offered
    // at speedup 4, its x64 backlog bound. The hotspot rows and the fat
    // tree's uniform row wedge with tens of thousands of packets
    // outstanding, so the run is bounded rather than drained.
    for net in rivals(1024) {
        for workload in [Workload::Uniform, Workload::Hotspot] {
            let mut new_sim = RoutedNetSim::new(net.clone());
            let mut ref_sim = ReferenceNetSim::new(net.clone());
            let mut rng = SplitMix64::new(ROUTED.seed);
            let run = (workload, 0.225, 300);
            lockstep(&mut new_sim, &mut ref_sim, 1024, &mut rng, run, 64, None);
            assert_eq!(new_sim.outstanding(), ref_sim.outstanding());
        }
    }
}

#[test]
fn nodes_with_more_than_64_outputs_are_bit_equivalent() {
    // Degree 72 plus two local eject ports: each node's outputs span two
    // bitmap words.
    let net = || AnyTopology::MinPath(MinPathGraph::new(128, 72, 2, 256));
    routed(net(), Workload::Uniform, 0.6, 150, None);
    routed(net(), Workload::Hotspot, 0.5, 150, None);
}

#[test]
fn equivalence_run_replays_identically() {
    // Trace determinism of the harness itself: the same faulted workload
    // twice produces the same delivered stream on the optimized path.
    let run = || {
        let topo = Topology::new(8, 4);
        let ports = topo.ports();
        let inj = LinkFaultInjector::new(
            FaultPlan { seed: 5, link_drop: 0.08, ..Default::default() },
            ports,
        );
        let mut sim = SwitchSim::new(topo);
        let mut rng = SplitMix64::new(1234);
        let mut log = Vec::new();
        for cycle in 0..400u64 {
            for src in 0..ports {
                if rng.next_f64() >= 0.7 {
                    continue;
                }
                let dst = rng.next_below(ports as u64) as usize;
                if inj.packet_fault(src, dst).drop {
                    continue;
                }
                sim.enqueue(src, dst, cycle << 8 | src as u64);
            }
            for d in sim.step() {
                log.push((d.tag, d.eject_cycle, d.hops, d.deflections));
            }
        }
        log
    };
    assert_eq!(run(), run());
}
