//! Figure 4: global barrier latency vs node count.

use dv_bench::{f3, Opts, Report, Streamer};
use dv_core::spec::SimSpec;
use dv_core::time::as_us_f64;
use dv_kernels::barrier::{barrier_latency_spec, BarrierKind};

pub(crate) fn run(opts: &Opts, report: &mut Report) {
    let reps = if opts.quick { 100 } else { 1000 };
    // `--stream`: the 32-node hardware barrier.
    Streamer::representative_run(opts, 32, |spec| {
        barrier_latency_spec(BarrierKind::DvIntrinsic, spec, reps) * reps as u64
    });
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
}
