//! Serial vs parallel sweep determinism, end to end: `sweep_parallel`
//! must be indistinguishable from `sweep` — identical `SweepPoint`s in
//! input order and byte-identical metrics snapshots. This suite is what
//! holds serial against parallel; CI only `cmp`s two parallel
//! `switch_study --quick --json` runs against each other.

use std::sync::Arc;

use datavortex::core::fault::FaultPlan;
use datavortex::core::metrics::MetricsRegistry;
use datavortex::switch::traffic::{Arrival, LoadSweep, Pattern};
use datavortex::switch::{AnyTopology, TopoKind, Topology};

fn base_sweep(topo: Topology) -> LoadSweep {
    let mut s = LoadSweep::new(topo);
    s.warmup = 100;
    s.measure = 600;
    s
}

/// Render a full run (points + registry bytes) under one configuration.
fn render(sweep: &LoadSweep, loads: &[f64], parallel: bool) -> String {
    let metrics = Arc::new(MetricsRegistry::enabled());
    let mut s = sweep.clone();
    s.metrics = Some(Arc::clone(&metrics));
    let points = if parallel { s.sweep_parallel(loads) } else { s.sweep(loads) };
    let mut out = String::new();
    for p in points {
        out.push_str(&format!(
            "{:.6} {:.9} {:.9} {:.9} {:.9} {} {}\n",
            p.offered,
            p.accepted,
            p.latency_mean,
            p.total_latency_mean,
            p.deflections_mean,
            p.delivered,
            p.total_latency_p99_log2,
        ));
    }
    out.push_str(&metrics.snapshot().render());
    out
}

#[test]
fn parallel_sweep_bytes_match_serial_across_patterns() {
    let loads = [0.1, 0.3, 0.5, 0.7, 0.9];
    for pattern in Pattern::ALL {
        let mut s = base_sweep(Topology::new(8, 4));
        s.pattern = pattern;
        assert_eq!(
            render(&s, &loads, false),
            render(&s, &loads, true),
            "{pattern:?}: serial and parallel sweeps must be byte-identical"
        );
    }
}

#[test]
fn parallel_sweep_bytes_match_serial_with_bursty_faulted_traffic() {
    let loads = [0.2, 0.4, 0.6, 0.8];
    let mut s = base_sweep(Topology::new(16, 4));
    s.arrival = Arrival::Bursty { mean_burst: 8.0 };
    s.faults = Some(FaultPlan { seed: 7, link_drop: 0.05, ..Default::default() });
    assert_eq!(render(&s, &loads, false), render(&s, &loads, true));
}

#[test]
fn parallel_sweep_bytes_match_serial_on_rival_topologies() {
    // The `--topo` sweeps route through the rebuilt `RoutedNetSim` (LUT +
    // arena + bitmap worklists); its parallel shards must still publish
    // in input order with byte-identical points and metrics.
    let loads = [0.1, 0.3, 0.5];
    for kind in [TopoKind::FatTree, TopoKind::MinPath] {
        let mut s = LoadSweep::for_net(AnyTopology::for_ports(kind, 64));
        s.warmup = 100;
        s.measure = 400;
        assert_eq!(
            render(&s, &loads, false),
            render(&s, &loads, true),
            "{kind:?}: serial and parallel rival sweeps must be byte-identical"
        );
    }
}

#[test]
fn parallel_sweep_replays_byte_identically() {
    // Two parallel runs on a machine with whatever core count: same bytes.
    let loads = [0.25, 0.55, 0.85];
    let s = base_sweep(Topology::new(8, 4));
    assert_eq!(render(&s, &loads, true), render(&s, &loads, true));
}

#[test]
fn streamed_interval_flushes_sum_to_the_one_shot_totals() {
    // `run_streamed` documents that its interval flushes match a plain
    // `LoadSweep::run` exactly: every counter and histogram, on each
    // movement kernel's engine and both routed ones, at a flush interval
    // that does not divide the 500-cycle run (gauges are per interval by
    // design, so they are excluded). The plain snapshot's FNV is pinned
    // per network to what the engines published before a single flush
    // became their only publication path, so the one-shot bytes cannot
    // move either.
    let nets = [
        (AnyTopology::for_ports(TopoKind::Vortex, 64), 0xb6e0_bd99_3489_9d38),
        (AnyTopology::for_ports(TopoKind::Vortex, 256), 0x58de_e067_d36c_cf05),
        (AnyTopology::for_ports(TopoKind::FatTree, 64), 0xe4aa_af9a_5bfe_b5e8),
        (AnyTopology::for_ports(TopoKind::MinPath, 64), 0x3d56_ddc6_cda5_ce0d),
    ];
    for (net, pinned) in nets {
        let snapshot = |streamed: bool| {
            let metrics = Arc::new(MetricsRegistry::enabled());
            let mut s = LoadSweep::for_net(net.clone());
            (s.warmup, s.measure) = (100, 400);
            s.metrics = Some(Arc::clone(&metrics));
            let point = if streamed { s.run_streamed(0.6, 1_000, 37) } else { s.run(0.6) };
            (point, metrics.snapshot())
        };
        let (plain_point, plain) = snapshot(false);
        let (streamed_point, streamed) = snapshot(true);
        assert_eq!(plain.fnv_hash(), pinned, "{:?}: the one-shot snapshot moved", net.kind());
        assert_eq!(plain_point, streamed_point, "{:?}", net.kind());
        assert_eq!(plain.counters(), streamed.counters(), "{:?}", net.kind());
        assert_eq!(plain.histograms(), streamed.histograms(), "{:?}", net.kind());
        assert!(plain.counter_total("switch.sweep.delivered") > 0);
    }
}
