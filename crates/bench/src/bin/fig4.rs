//! Figure 4: global barrier latency vs node count.

use dv_bench::{f3, quick, Report, Streamer};
use dv_core::spec::SimSpec;
use dv_core::time::as_us_f64;
use dv_kernels::barrier::{barrier_latency_spec, BarrierKind};

fn main() {
    let mut report = Report::new("fig4");
    let reps = if quick() { 100 } else { 1000 };
    // `--stream`: one representative instrumented run (32-node hardware
    // barrier) emits dv-events-v1 telemetry before the sweep proper.
    if dv_bench::stream::stream_path().is_some() {
        let metrics = std::sync::Arc::new(dv_core::metrics::MetricsRegistry::enabled());
        let streamer = Streamer::attach(&metrics, "fig4", 32).expect("--stream was passed");
        let per_barrier = barrier_latency_spec(
            BarrierKind::DvIntrinsic,
            SimSpec::new(32).metrics(std::sync::Arc::clone(&metrics)),
            reps,
        );
        streamer.finish(per_barrier * reps as u64);
    }
    let mut rows = Vec::new();
    for nodes in [2usize, 4, 8, 16, 32] {
        let latency = |kind| barrier_latency_spec(kind, SimSpec::new(nodes), reps);
        let dv = latency(BarrierKind::DvIntrinsic);
        let fast = latency(BarrierKind::DvFast);
        let mpi = latency(BarrierKind::Mpi);
        rows.push(vec![
            nodes.to_string(),
            f3(as_us_f64(dv)),
            f3(as_us_f64(fast)),
            f3(as_us_f64(mpi)),
        ]);
    }
    report.section(
        &format!("Figure 4 — global barrier latency (µs, mean of {reps} barriers)"),
        &["nodes", "Data Vortex", "FastBarrier", "Infiniband"],
        rows,
    );
    report.finish();
}
