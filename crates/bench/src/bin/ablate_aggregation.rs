//! Ablation: GUPS with source aggregation on vs off.
//!
//! DESIGN.md calls out source aggregation as the mechanism behind the
//! Data Vortex GUPS curve; this bench quantifies it by sending every
//! remote update as its own PCIe crossing instead of batched DMA.

use dv_bench::{f2, quick, Report};
use dv_core::config::MachineConfig;
use dv_kernels::gups::{dv, GupsConfig};

fn main() {
    let mut report = Report::new("ablate_aggregation");
    let cfg = if quick() {
        GupsConfig { table_per_node: 1 << 10, updates_per_node: 1 << 11, bucket: 1024, stream_offset: 0 }
    } else {
        GupsConfig { table_per_node: 1 << 12, updates_per_node: 1 << 13, bucket: 1024, stream_offset: 0 }
    };
    // `--stream`: one representative instrumented run (8-node aggregated
    // GUPS) emits dv-events-v1 telemetry before the ablation proper.
    if dv_bench::stream::stream_path().is_some() {
        let metrics = std::sync::Arc::new(dv_core::metrics::MetricsRegistry::enabled());
        let streamer = dv_bench::Streamer::attach(&metrics, "ablate_aggregation", 8)
            .expect("--stream was passed");
        let r = dv::run_spec(
            cfg,
            dv_core::spec::SimSpec::new(8)
                .machine(MachineConfig::paper_cluster())
                .metrics(std::sync::Arc::clone(&metrics)),
        );
        streamer.finish(r.elapsed);
    }
    let spec = |nodes| {
        dv_core::spec::SimSpec::new(nodes).machine(MachineConfig::paper_cluster())
    };
    let mut rows = Vec::new();
    for nodes in [4usize, 8, 16] {
        let with = dv::run_ablate(cfg, spec(nodes), true);
        let without = dv::run_ablate(cfg, spec(nodes), false);
        assert_eq!(with.checksum, without.checksum);
        rows.push(vec![
            nodes.to_string(),
            f2(with.mups_total()),
            f2(without.mups_total()),
            f2(with.mups_total() / without.mups_total()),
        ]);
    }
    report.section(
        "Ablation — GUPS aggregate MUPS with and without source aggregation",
        &["nodes", "aggregated", "per-packet PIO", "gain"],
        rows,
    );
    report.finish();
}
