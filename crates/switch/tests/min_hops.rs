//! Structural cross-validation of `Topology::min_hops`.
//!
//! The closed-form hop count's convergence proof used to rest on a
//! `debug_assert` that vanishes in release builds. This property test
//! replaces it with structure: a single contention-free flit driven
//! through the cycle simulator must arrive at the right port in exactly
//! `min_hops` hops with zero deflections, for **every** (src, dst) pair
//! at H ∈ {8, 32, 64, 256} — covering the narrow (≤ 64 ports), scalar
//! wide (H < 64) and batched wide (H ≥ 64) movement kernels.

use dv_switch::{CycleEngine, SwitchSim, Topology};

/// Drive one flit per (src, dst) pair through an otherwise-empty switch
/// and assert delivery at `min_hops`. The simulator is reused across
/// pairs (drained empty each time), so the whole sweep is cheap.
fn check_all_pairs(topo: Topology, stride: usize) {
    let ports = topo.ports();
    let mut sw = SwitchSim::new(topo.clone());
    for src in (0..ports).step_by(stride) {
        for dst in (0..ports).step_by(stride) {
            sw.enqueue(src, dst, (src * ports + dst) as u64);
            let d = sw.drain(10_000);
            assert_eq!(d.len(), 1, "{src}->{dst}: not delivered");
            assert_eq!(d[0].dst_port, dst, "{src}->{dst}: wrong port");
            assert_eq!(d[0].deflections, 0, "{src}->{dst}: contention in an empty switch");
            assert_eq!(
                d[0].hops as usize,
                topo.min_hops(src, dst),
                "{src}->{dst}: closed form diverges from the simulated route"
            );
        }
    }
}

#[test]
fn min_hops_matches_simulation_h8_narrow() {
    check_all_pairs(Topology::new(8, 4), 1);
}

#[test]
fn min_hops_matches_simulation_h64_batched() {
    // 128 ports: the smallest batched-kernel switch (exactly one word
    // per angle), every pair.
    check_all_pairs(Topology::new(64, 2), 1);
}

#[test]
fn min_hops_matches_simulation_h32_scalar_wide() {
    // The same 128 ports at H = 32: a bitmap word spans two angles, so
    // the flit-at-a-time wide kernel serves it.
    check_all_pairs(Topology::new(32, 4), 1);
}

#[test]
fn min_hops_matches_simulation_h256_batched() {
    // 256 ports at a single angle (a_bits == 0: the eject mask is the
    // whole occupancy word), every pair.
    check_all_pairs(Topology::new(256, 1), 1);
}

#[test]
fn min_hops_matches_simulation_h256_four_angles_sampled() {
    // 1024 ports (the perf-gate scale): strided sample of pairs keeps
    // the full-matrix variant above as the exhaustive check.
    check_all_pairs(Topology::new(256, 4), 7);
}
