//! Beyond the paper: projecting Data Vortex behavior past 32 nodes.
//!
//! Section IX: "Our present study is limited by the size of the system
//! available ... To the best of our knowledge, no existing simulator can
//! definitively predict the performance of an application running on a
//! larger-scale Data Vortex system. Theoretically, network properties
//! should be maintained when scaling up ... Each doubling of nodes would
//! add an additional 'cylinder' to the Data Vortex Switch ... Those
//! additional hops would (minimally) increase latency but should not
//! change overall throughput per node."
//!
//! This scenario is that simulator: it grows the switch exactly as the
//! paper prescribes (H doubles, C = log₂H + 1 cylinders) and measures
//! barrier latency, per-node GUPS, and cycle-accurate switch behavior at
//! 32 → 256 ports, testing the paper's scaling conjecture.
//!
//! `--topo <kind>` selects the network for the rival-topology sweep:
//! `dv` (default, which also runs the legacy Data Vortex study),
//! `fattree`, or `minpath` (the Deng et al. minimal-mean-path-length
//! random-regular graph). The rival sweep drives every traffic
//! [`Pattern`] at 64 → 4096 ports through the same `LoadSweep` driver,
//! so a `--topo fattree` artifact is row-for-row comparable with the
//! Data Vortex one; CI runs each rival twice and `cmp`s the artifacts
//! byte-for-byte.

use std::sync::Arc;

use dv_bench::{f2, f3, Opts, Report};
use dv_core::metrics::MetricsRegistry;
use dv_core::spec::SimSpec;
use dv_core::sync::fan_out;
use dv_core::time::as_us_f64;
use dv_kernels::barrier::{barrier_latency_spec, BarrierKind};
use dv_kernels::gups::{self, GupsConfig};
use dv_switch::traffic::{LoadSweep, Pattern, SweepPoint};
use dv_switch::{AnyTopology, NetworkTopology, TopoKind, Topology};

/// One rival-sweep point: an independent seeded simulation of `pattern`
/// on `net` at 0.7 offered load (deterministic in its inputs, so points
/// can fan out across threads and join in input order).
fn rival_point(net: &AnyTopology, pattern: Pattern, measure: u64) -> SweepPoint {
    let mut sweep = LoadSweep::for_net(net.clone());
    sweep.pattern = pattern;
    sweep.measure = measure;
    sweep.run(0.7)
}

/// The rival-topology sweep: structure and every traffic pattern for one
/// topology kind at 64 → 4096 ports (the kilo-port scale the batched
/// wide kernel unlocks; `--quick` stops at 256).
/// `stream` carries the options of a rival-only run, whose `--stream`
/// follows the largest network.
fn rival_sweep(report: &mut Report, kind: TopoKind, quick: bool, stream: Option<&Opts>) {
    let sizes: &[usize] = if quick { &[64, 128, 256] } else { &[64, 256, 1024, 4096] };
    let measure = if quick { 1_000 } else { 3_000 };
    let nets: Vec<AnyTopology> =
        sizes.iter().map(|&ports| AnyTopology::for_ports(kind, ports)).collect();
    if let Some(opts) = stream {
        let mut streamed = LoadSweep::for_net(nets.last().expect("sizes is non-empty").clone());
        streamed.measure = measure;
        super::stream_sweep(opts, streamed);
    }

    // Structure at scale: router count and the contention-free path
    // profile (mean path length is the Deng et al. figure of merit).
    let mut rows = Vec::new();
    for net in &nets {
        let (mean, max) = net.path_stats();
        rows.push(vec![
            net.ports().to_string(),
            net.node_count().to_string(),
            f2(mean),
            max.to_string(),
        ]);
    }
    report.section(
        &format!("[{}] structure at scale", kind.name()),
        &["ports", "switch nodes", "mean path", "max path"],
        rows,
    );

    // Every pattern × every size at 0.7 offered load. The parallel fan
    // joins in input order, so repeat runs cmp byte-identical.
    let combos: Vec<(Pattern, usize)> = Pattern::ALL
        .iter()
        .flat_map(|&p| (0..nets.len()).map(move |i| (p, i)))
        .collect();
    let points: Vec<SweepPoint> =
        fan_out(&combos, |&(p, i)| rival_point(&nets[i], p, measure));
    let rows = combos
        .iter()
        .zip(&points)
        .map(|(&(pattern, i), p)| {
            vec![
                format!("{pattern:?}"),
                nets[i].ports().to_string(),
                f3(p.accepted),
                f2(p.total_latency_mean),
                format!("<2^{}", p.total_latency_p99_log2.saturating_add(1)),
                f3(p.deflections_mean),
            ]
        })
        .collect();
    report.section(
        &format!("[{}] every pattern at 0.7 offered load", kind.name()),
        &["pattern", "ports", "accepted/port", "total lat (cyc)", "p99 lat", "deflections"],
        rows,
    );
}

pub(crate) fn run(opts: &Opts, report: &mut Report) {
    let quick = opts.quick;
    let kind = opts.topo.unwrap_or(TopoKind::Vortex);
    let sizes: &[usize] = if quick { &[32, 64] } else { &[32, 64, 128, 256] };
    let measure = if quick { 1_000 } else { 3_000 };

    // A rival-only run (`--topo fattree|minpath`) skips the Data Vortex
    // legacy study: barriers and GUPS run on the DV cluster runtime and
    // have no rival-topology counterpart.
    if kind != TopoKind::Vortex {
        rival_sweep(report, kind, quick, Some(opts));
        return;
    }

    // `--stream`: the largest projected switch.
    let largest = *sizes.last().expect("sizes is non-empty");
    let mut streamed = LoadSweep::new(Topology::for_ports(largest, 4));
    streamed.measure = measure;
    super::stream_sweep(opts, streamed);

    // 1. Switch structure growth. `for_ports` is exact-or-panic, so the
    //    reported port count is the topology's own, never the request.
    let mut rows = Vec::new();
    for &ports in sizes {
        let topo = Topology::for_ports(ports, 4);
        rows.push(vec![
            topo.ports().to_string(),
            topo.height.to_string(),
            topo.cylinders().to_string(),
            topo.nodes().to_string(),
            topo.min_hops(0, topo.ports() - 1).to_string(),
        ]);
    }
    report.section(
        "Switch growth (A = 4): each port doubling adds one cylinder",
        &["ports", "H", "cylinders", "switch nodes", "hops 0->last"],
        rows,
    );

    // 2. Cycle-accurate uniform-load behavior: throughput per port should
    //    hold, latency should grow only by the extra hops. Each topology
    //    is an independent seeded simulation, so the points fan out across
    //    threads and are joined — and reported — in input order.
    let sweep_at = |ports: usize| {
        let metrics = Arc::new(MetricsRegistry::enabled());
        let topo = Topology::for_ports(ports, 4);
        let actual_ports = topo.ports();
        let mut sweep = LoadSweep::new(topo);
        sweep.measure = measure;
        sweep.metrics = Some(Arc::clone(&metrics));
        let p = sweep.run(0.7);
        (metrics, p, actual_ports)
    };
    let results = fan_out(sizes, |&ports| sweep_at(ports));
    let mut rows = Vec::new();
    for (metrics, p, actual_ports) in results {
        report.add_run(&format!("sweep.p{actual_ports}"), &metrics);
        rows.push(vec![
            actual_ports.to_string(),
            f3(p.accepted),
            f2(p.latency_mean),
            f3(p.deflections_mean),
        ]);
    }
    report.section(
        "Cycle-accurate switch, uniform traffic at 0.7 offered load",
        &["ports", "accepted/port", "latency (cyc)", "deflections"],
        rows,
    );

    // 3. Hardware barrier at scale (the paper's conjecture: ~flat).
    let reps = if quick { 50 } else { 200 };
    let mut rows = Vec::new();
    for &nodes in sizes {
        let dv = barrier_latency_spec(BarrierKind::DvIntrinsic, SimSpec::new(nodes), reps);
        let mpi = barrier_latency_spec(BarrierKind::Mpi, SimSpec::new(nodes), reps);
        rows.push(vec![
            nodes.to_string(),
            f3(as_us_f64(dv)),
            f3(as_us_f64(mpi)),
            f2(as_us_f64(mpi) / as_us_f64(dv)),
        ]);
    }
    report.section(
        "Global barrier latency (µs) projected past the paper's 32 nodes",
        &["nodes", "Data Vortex", "Infiniband", "MPI/DV"],
        rows,
    );

    // 4. GUPS per node at scale: does the flat curve hold?
    // Sample the stream past its sparse-polynomial head: on >32 nodes the
    // head's node-0 hotspot would overflow any bounded FIFO (see
    // GupsConfig::stream_offset).
    let cfg = if quick {
        GupsConfig { table_per_node: 1 << 10, updates_per_node: 1 << 12, bucket: 1024, stream_offset: 1 << 40 }
    } else {
        GupsConfig { table_per_node: 1 << 12, updates_per_node: 1 << 14, bucket: 1024, stream_offset: 1 << 40 }
    };
    let mut rows = Vec::new();
    for &nodes in sizes {
        let d = gups::dv::run_spec(cfg, SimSpec::new(nodes));
        let m = gups::mpi::run_spec(cfg, SimSpec::new(nodes));
        rows.push(vec![
            nodes.to_string(),
            f2(d.mups_per_node()),
            f2(m.mups_per_node()),
            f2(d.ups() / m.ups()),
        ]);
    }
    report.section(
        "GUPS per node (MUPS) projected past 32 nodes",
        &["nodes", "Data Vortex", "Infiniband", "DV/MPI"],
        rows,
    );

    // 5. The Data Vortex's own rival-format sweep: row-for-row comparable
    //    with the `--topo fattree` / `--topo minpath` artifacts.
    rival_sweep(report, TopoKind::Vortex, quick, None);

    println!(
        "Conjecture check: DV per-node GUPS and barrier latency should stay ~flat while\n\
         MPI keeps degrading — the additional cylinders only add a few hops of latency."
    );
}
