//! Chaos suite: deterministic fault injection end to end.
//!
//! Every test here runs with a seeded [`FaultPlan`] (or a deliberately
//! starved FIFO) and asserts *exact* outcomes: kernels complete with the
//! correct answer under injected loss, fault counters agree with an
//! offline replay of the plan, and two runs of the same seed are
//! bit-identical. This is the executable form of the repo's determinism
//! contract under failure — see DESIGN.md § "Fault injection & recovery".

use std::sync::Arc;

use datavortex::api::{DvCluster, SendMode};
use datavortex::core::config::MachineConfig;
use datavortex::core::fault::FaultPlan;
use datavortex::core::metrics::MetricsRegistry;
use datavortex::core::packet::SCRATCH_GC;
use datavortex::core::spec::SimSpec;
use datavortex::core::time::us;
use datavortex::kernels::graph::{
    kronecker_edges, partition_csr, pick_roots, validate_bfs, Csr, GraphConfig, VertexPart,
};
use datavortex::kernels::gups::{dv as gups_dv, mpi as gups_mpi, serial_reference, GupsConfig};

fn plan(spec: &str) -> FaultPlan {
    FaultPlan::parse(spec).expect("valid fault spec")
}

fn chaos_machine(spec: &str) -> MachineConfig {
    let mut m = MachineConfig::paper_cluster();
    m.faults = Some(plan(spec));
    m
}

/// Small-but-real GUPS sizing shared by the chaos runs.
const GUPS: GupsConfig =
    GupsConfig { table_per_node: 1 << 10, updates_per_node: 1 << 12, bucket: 1024, stream_offset: 0 };

fn gups_chaos_run(nodes: usize, spec: &str) -> (u64, Arc<MetricsRegistry>) {
    let metrics = Arc::new(MetricsRegistry::enabled());
    let r = gups_dv::run_spec(
        GUPS,
        SimSpec::new(nodes).machine(chaos_machine(spec)).metrics(Arc::clone(&metrics)),
    );
    assert_eq!(
        r.total_updates,
        (GUPS.updates_per_node * nodes) as u64,
        "every update must be applied exactly once"
    );
    (r.checksum, metrics)
}

#[test]
fn gups_is_exact_under_injected_fifo_drops() {
    // 2% forced drops plus a periodic storm: well past the ISSUE's 1% bar.
    let (checksum, metrics) = gups_chaos_run(4, "seed=7,fifodrop=0.02,fifostorm=509:3");
    let (_, expect) = serial_reference(&GUPS, 4);
    assert_eq!(checksum, expect, "recovery must reconstruct the exact table");

    let snap = metrics.snapshot();
    assert!(snap.counter_total("vic.fifo.forced_drops") > 0, "the plan must actually fire");
    assert!(snap.counter_total("api.fifo.retx_words") > 0, "drops must trigger retransmission");
    // Retransmission switches the receivers' dedup on mid-run: the words
    // re-shipped after the FIFO had in fact accepted them are discarded.
    assert!(snap.counter_total("api.fifo.dup_discarded") > 0, "retransmission must overshoot");
}

#[test]
fn gups_is_exact_under_link_duplication() {
    // Under a `dup` plan a word may arrive twice from the first packet on,
    // so inbound dedup is live for the whole run.
    let nodes = 4;
    let metrics = Arc::new(MetricsRegistry::enabled());
    let spec = SimSpec::new(nodes).machine(chaos_machine("seed=5,dup=0.05"));
    let r = gups_dv::run_spec(GUPS, spec.metrics(Arc::clone(&metrics)));
    let (_, expect) = serial_reference(&GUPS, nodes);
    assert_eq!(r.checksum, expect, "duplicates must be applied once");
    assert_eq!(r.total_updates, (GUPS.updates_per_node * nodes) as u64);
    assert_eq!(metrics.snapshot().counter_total("api.fifo.dup_discarded"), 579);
    assert_eq!(r.elapsed, 10_118_182_583, "virtual time moved");
}

#[test]
#[should_panic(expected = "nodes [1] never posted their counts")]
fn a_peer_that_never_posts_ends_the_run() {
    // A duplicated count post or barrier decrement (only surprise-FIFO
    // words have a recovery layer) leaves node 1 short of its epoch close,
    // and node 0's close used to poll for its post forever: more than 240
    // s of host time. It now panics once nothing has been posted or
    // received for a hundred query timeouts of virtual time.
    let small =
        GupsConfig { table_per_node: 1 << 8, updates_per_node: 1 << 10, bucket: 256, stream_offset: 0 };
    gups_dv::run_spec(small, SimSpec::new(2).machine(chaos_machine("seed=5,dup=0.05")));
}

#[test]
fn forced_drop_counters_agree_with_an_offline_replay() {
    let spec = "seed=21,fifodrop=0.03";
    let nodes = 4;
    let (_, metrics) = gups_chaos_run(nodes, spec);
    let snap = metrics.snapshot();
    let p = plan(spec);
    for node in 0..nodes {
        let label = [("node", node.to_string())];
        let labels: Vec<(&str, &str)> = label.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let pushes = snap.counter("vic.fifo.pushes", &labels).unwrap_or(0);
        let drops = snap.counter("vic.fifo.drops", &labels).unwrap_or(0);
        let forced = snap.counter("vic.fifo.forced_drops", &labels).unwrap_or(0);
        // The VIC consumes one decision per FIFO arrival (accepted or
        // not), so replaying the plan over that many sequence numbers
        // must land on exactly the forced-drop count it reported.
        assert_eq!(
            p.expected_fifo_forced_drops(node as u64, pushes + drops),
            forced,
            "node {node}: plan replay disagrees with the VIC counter"
        );
    }
}

#[test]
fn same_seed_same_plan_is_bit_identical() {
    let spec = "seed=42,fifodrop=0.02,stall=0.01:800";
    let (c1, m1) = gups_chaos_run(4, spec);
    let (c2, m2) = gups_chaos_run(4, spec);
    assert_eq!(c1, c2, "checksums must match across runs");
    let (s1, s2) = (m1.snapshot(), m2.snapshot());
    assert_eq!(s1.fnv_hash(), s2.fnv_hash(), "metrics snapshots must be bit-identical");
}

#[test]
fn different_seeds_diverge() {
    // The seed must actually steer the fault pattern (otherwise the
    // determinism test above would pass vacuously).
    let (_, m1) = gups_chaos_run(4, "seed=1,fifodrop=0.05");
    let (_, m2) = gups_chaos_run(4, "seed=2,fifodrop=0.05");
    assert_ne!(
        m1.snapshot().counter_total("vic.fifo.forced_drops"),
        m2.snapshot().counter_total("vic.fifo.forced_drops"),
        "different seeds should force different drop patterns"
    );
}

#[test]
fn gups_recovers_from_genuine_overflow_without_a_plan() {
    // No fault plan at all — just a FIFO far too small for the offered
    // load, so rejections are real admission-control overflows.
    let mut machine = MachineConfig::paper_cluster();
    machine.dv.fifo_capacity = 128;
    let metrics = Arc::new(MetricsRegistry::enabled());
    let r =
        gups_dv::run_spec(GUPS, SimSpec::new(4).machine(machine).metrics(Arc::clone(&metrics)));
    let (_, expect) = serial_reference(&GUPS, 4);
    assert_eq!(r.checksum, expect);
    let snap = metrics.snapshot();
    assert!(snap.counter_total("vic.fifo.drops") > 0, "the starved FIFO must overflow");
    assert_eq!(snap.counter_total("vic.fifo.forced_drops"), 0, "no plan, no forced drops");
    assert!(snap.counter_total("api.fifo.retx_words") > 0);
}

#[test]
fn dv_gups_matches_mpi_under_chaos() {
    // The cross-backend check fig6 --faults relies on, in miniature: the
    // MPI backend never sees the plan, so agreement proves recovery.
    let (dv_checksum, _) = gups_chaos_run(4, "seed=3,fifodrop=0.015");
    let m = gups_mpi::run_spec(GUPS, SimSpec::new(4));
    assert_eq!(dv_checksum, m.checksum);
}

#[test]
fn bfs_trees_validate_under_injected_fifo_drops() {
    let gcfg = GraphConfig { scale: 10, edgefactor: 8, seed: 0x6500 };
    let edges = kronecker_edges(&gcfg);
    let csr = Csr::build(gcfg.vertices(), &edges);
    let locals = partition_csr(&csr, VertexPart { nodes: 4 });
    for root in pick_roots(&csr, 2, 99) {
        let spec = SimSpec::new(4).machine(chaos_machine("seed=13,fifodrop=0.02"));
        let r = datavortex::kernels::graph::dv::run_spec(&locals, gcfg.vertices(), root, spec);
        validate_bfs(&csr, root, &r.parents).expect("BFS tree invalid under chaos");
    }
}

#[test]
fn link_faults_obey_conservation() {
    // drop/dup act on the wire, before FIFO admission: with a roomy FIFO,
    // accepted = offered − drops + dups, exactly.
    let offered = 2000u64;
    let metrics = Arc::new(MetricsRegistry::enabled());
    let machine = chaos_machine("seed=5,drop=0.1,dup=0.1");
    let results = DvCluster::from_spec(SimSpec::new(2).machine(machine).metrics(Arc::clone(&metrics)))
        .run(move |dv, ctx| {
            if dv.node() == 0 {
                let words: Vec<u64> = (0..offered).collect();
                dv.send_fifo(ctx, 1, &words, SCRATCH_GC, SendMode::Dma { cached_headers: true });
                ctx.delay(us(500));
                0
            } else {
                ctx.delay(us(1000));
                dv.fifo_drain(ctx, usize::MAX).len() as u64
            }
        })
        .result;
    let snap = metrics.snapshot();
    let drops = snap.counter_total("fault.link.drops");
    let dups = snap.counter_total("fault.link.dups");
    assert!(drops > 0 && dups > 0, "both fault kinds must fire at 10%");
    assert_eq!(results[1], offered - drops + dups, "link-level conservation");
}

#[test]
fn ejection_stalls_delay_but_do_not_lose() {
    let offered = 512u64;
    let metrics = Arc::new(MetricsRegistry::enabled());
    let machine = chaos_machine("seed=9,stall=1.0:5000");
    let results = DvCluster::from_spec(SimSpec::new(2).machine(machine).metrics(Arc::clone(&metrics)))
        .run(move |dv, ctx| {
            if dv.node() == 0 {
                let words: Vec<u64> = (0..offered).collect();
                dv.send_fifo(ctx, 1, &words, SCRATCH_GC, SendMode::Dma { cached_headers: true });
                ctx.delay(us(500));
                0
            } else {
                ctx.delay(us(1000));
                dv.fifo_drain(ctx, usize::MAX).len() as u64
            }
        })
        .result;
    assert_eq!(results[1], offered, "stalls reorder time, not data");
    let snap = metrics.snapshot();
    assert!(snap.counter_total("fault.eject.stalls") > 0);
    assert!(snap.counter_total("fault.eject.stall_ps") > 0);
}

#[test]
fn delayed_group_counter_set_reproduces_the_section_iii_race() {
    // Delay every GroupCounterSet packet 100 µs: the three decrements
    // land first (counter → −3), then the set overwrites them (→ 3), so
    // the counter never crosses zero — the set/decrement race the paper
    // warns about, forced on demand.
    let metrics = Arc::new(MetricsRegistry::enabled());
    let machine = chaos_machine("seed=17,gcrace=1.0:100000");
    let results = DvCluster::from_spec(SimSpec::new(2).machine(machine).metrics(Arc::clone(&metrics)))
        .run(|dv, ctx| {
            if dv.node() == 0 {
                dv.gc_set_remote(ctx, 1, 11, 3, SendMode::DirectWrite { cached_headers: true });
                dv.write_remote(
                    ctx,
                    1,
                    0,
                    &[1, 2, 3],
                    11,
                    SendMode::DirectWrite { cached_headers: true },
                );
                ctx.delay(us(400));
                (true, 0, 0)
            } else {
                // Decrements beat the delayed set…
                ctx.delay(us(30));
                let mid = dv.gc_value(ctx, 11);
                // …which then lands and overwrites them.
                ctx.delay(us(120));
                let done = dv.gc_wait_zero(ctx, 11, Some(ctx.now() + us(100)));
                (done, mid, dv.gc_value(ctx, 11))
            }
        })
        .result;
    let (done, mid, fin) = results[1];
    assert_eq!(mid, -3, "decrements must arrive before the delayed set");
    assert_eq!(fin, 3, "the late set must overwrite the negative counter");
    assert!(!done, "the counter can never reach zero after the race");
    let snap = metrics.snapshot();
    assert!(snap.counter_total("fault.gc.delayed_sets") >= 1);
    assert!(snap.counter_total("vic.gc.set_races") >= 1);
}

#[test]
fn fifo_try_send_applies_backpressure_at_zero_credit() {
    let mut machine = MachineConfig::paper_cluster();
    machine.dv.fifo_capacity = 16;
    let metrics = Arc::new(MetricsRegistry::enabled());
    let results = DvCluster::from_spec(SimSpec::new(2).machine(machine).metrics(Arc::clone(&metrics)))
        .run(|dv, ctx| {
            if dv.node() == 0 {
                let mut accepted = 0u64;
                let mode = SendMode::DirectWrite { cached_headers: true };
                loop {
                    match dv.fifo_try_send(ctx, 1, &[accepted], SCRATCH_GC, mode) {
                        Ok(_) => accepted += 1,
                        Err(bp) => {
                            assert!(bp.credit <= 0, "refusal implies exhausted credit");
                            break;
                        }
                    }
                }
                accepted
            } else {
                // Never drains: credit can only fall.
                ctx.delay(us(500));
                0
            }
        })
        .result;
    assert_eq!(results[0], 16, "credit admits exactly the FIFO capacity");
    assert!(metrics.snapshot().counter_total("api.fifo.backpressure_rejects") >= 1);
    }
