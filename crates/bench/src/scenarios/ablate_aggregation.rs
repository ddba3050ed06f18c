//! Ablation: GUPS with source aggregation on vs off.
//!
//! DESIGN.md calls out source aggregation as the mechanism behind the
//! Data Vortex GUPS curve; this bench quantifies it by sending every
//! remote update as its own PCIe crossing instead of batched DMA.

use dv_bench::{f2, Opts, Report, Streamer};
use dv_core::config::MachineConfig;
use dv_kernels::gups::{dv, GupsConfig};

pub(crate) fn run(opts: &Opts, report: &mut Report) {
    let cfg = if opts.quick {
        GupsConfig { table_per_node: 1 << 10, updates_per_node: 1 << 11, bucket: 1024, stream_offset: 0 }
    } else {
        GupsConfig { table_per_node: 1 << 12, updates_per_node: 1 << 13, bucket: 1024, stream_offset: 0 }
    };
    // `--stream`: the 8-node aggregated GUPS.
    Streamer::representative_run(opts, 8, |spec| {
        dv::run_spec(cfg, spec.machine(MachineConfig::paper_cluster())).elapsed
    });
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
}
