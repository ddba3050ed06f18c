//! Figure 6: GUPS — updates per second per node (6a) and aggregate (6b).
//!
//! The fully instrumented benchmark: every run carries a tracer and a
//! metrics registry, so `--json <path>` drops an artifact with switch
//! deflection histograms, VIC group-counter stats, and per-state
//! virtual-time totals alongside the figure's tables.

use std::sync::Arc;

use dv_bench::{f2, Opts, Report, Streamer};
use dv_core::config::MachineConfig;
use dv_core::metrics::MetricsRegistry;
use dv_core::spec::SimSpec;
use dv_core::trace::Tracer;
use dv_kernels::gups::{dv, mpi, GupsConfig};

pub(crate) fn run(opts: &Opts, report: &mut Report) {
    let cfg = if opts.quick {
        GupsConfig { table_per_node: 1 << 11, updates_per_node: 1 << 13, bucket: 1024, stream_offset: 0 }
    } else {
        // HPCC convention: updates = 4 × table size.
        GupsConfig { table_per_node: 1 << 13, updates_per_node: 4 << 13, bucket: 1024, stream_offset: 0 }
    };
    // Optional chaos mode: the Data Vortex runs carry the fault plan (the
    // InfiniBand model is unaffected), so the checksum comparison below
    // doubles as an end-to-end recovery check.
    let fault_plan = &opts.faults;
    let mut rows_per = Vec::new();
    let mut rows_agg = Vec::new();
    for nodes in [4usize, 8, 16, 32] {
        let mut machine = MachineConfig::paper_cluster();
        machine.faults = fault_plan.clone();
        let dv_tracer = Arc::new(Tracer::enabled());
        let dv_metrics = Arc::new(MetricsRegistry::enabled());
        // `--stream`: the 4-node Data Vortex run emits live dv-events-v1
        // telemetry (one stream per invocation; later runs are summarized
        // in the `--json` artifact as usual).
        let streamer =
            if nodes == 4 { Streamer::attach(opts, &dv_metrics, nodes) } else { None };
        let d = dv::run_spec(
            cfg,
            SimSpec::new(nodes)
                .machine(machine.clone())
                .tracer(Arc::clone(&dv_tracer))
                .metrics(Arc::clone(&dv_metrics)),
        );
        if let Some(s) = streamer {
            s.finish(d.elapsed);
        }
        let mpi_metrics = Arc::new(MetricsRegistry::enabled());
        let m = mpi::run_spec(
            cfg,
            SimSpec::new(nodes)
                .machine(machine)
                .tracer(Arc::new(Tracer::enabled()))
                .metrics(Arc::clone(&mpi_metrics)),
        );
        assert_eq!(d.checksum, m.checksum, "backends disagree on the table");
        report.add_run(&format!("dv.n{nodes}"), &dv_metrics);
        report.add_run(&format!("mpi.n{nodes}"), &mpi_metrics);
        if nodes == 4 {
            report.set_trace(dv_tracer.dump());
        }
        rows_per.push(vec![nodes.to_string(), f2(d.mups_per_node()), f2(m.mups_per_node())]);
        rows_agg.push(vec![nodes.to_string(), f2(d.mups_total()), f2(m.mups_total())]);
    }
    report.section(
        &format!(
            "Figure 6a — GUPS per processing element (MUPS), table 2^{} words/node, {} updates/node",
            cfg.table_per_node.trailing_zeros(),
            cfg.updates_per_node
        ),
        &["nodes", "Data Vortex", "Infiniband"],
        rows_per,
    );
    report.section("Figure 6b — aggregate GUPS (MUPS)", &["nodes", "Data Vortex", "Infiniband"], rows_agg);
}
