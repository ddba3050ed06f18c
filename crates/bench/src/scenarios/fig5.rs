//! Figure 5: execution trace of the MPI GUPS run.
//!
//! The paper shows an Extrae/Paraver trace: per-node timelines colored by
//! state (computation vs MPI calls) with message lines. We record the same
//! events from the simulated run and render (a) the complete execution and
//! (b) a zoom into the central region, then dump the machine-readable
//! trace to `fig5_trace.txt`.

use std::sync::Arc;

use dv_bench::{Opts, Report, Streamer};
use dv_core::config::MachineConfig;
use dv_core::metrics::MetricsRegistry;
use dv_core::spec::SimSpec;
use dv_core::trace::Tracer;
use dv_kernels::gups::{dv, mpi, GupsConfig};

pub(crate) fn run(opts: &Opts, report: &mut Report) {
    let nodes = 8;
    let cfg = if opts.quick {
        GupsConfig { table_per_node: 1 << 10, updates_per_node: 2 << 10, bucket: 1024, stream_offset: 0 }
    } else {
        GupsConfig { table_per_node: 1 << 12, updates_per_node: 8 << 10, bucket: 1024, stream_offset: 0 }
    };
    let tracer = Arc::new(Tracer::enabled());
    let metrics = Arc::new(MetricsRegistry::enabled());
    let result = mpi::run_spec(
        cfg,
        SimSpec::new(nodes)
            .machine(MachineConfig::paper_cluster())
            .tracer(Arc::clone(&tracer))
            .metrics(Arc::clone(&metrics)),
    );

    let spans = tracer.spans();
    let t_end = spans.iter().map(|s| s.end).max().unwrap_or(1);

    println!("Figure 5a — complete execution ({} updates, {} nodes)\n", result.total_updates, nodes);
    println!("{}", tracer.render_ascii(nodes, 100, None));

    // Zoom into the central 10% of the run, like the paper's close-up.
    let lo = t_end / 2 - t_end / 20;
    let hi = t_end / 2 + t_end / 20;
    println!("Figure 5b — zoom into the central region\n");
    println!("{}", tracer.render_ascii(nodes, 100, Some((lo, hi))));

    let messages = tracer.messages();
    println!(
        "trace: {} spans, {} messages; aggregate rate {:.1} MUPS",
        spans.len(),
        messages.len(),
        result.mups_total()
    );
    let dump = tracer.dump();
    std::fs::write("fig5_trace.txt", &dump).expect("write fig5_trace.txt");
    println!("machine-readable trace written to fig5_trace.txt ({} bytes)", dump.len());

    // Extension beyond the paper: the same workload traced on the Data
    // Vortex — mostly sends and short waits instead of collectives.
    let dv_tracer = Arc::new(Tracer::enabled());
    let dv_metrics = Arc::new(MetricsRegistry::enabled());
    // `--stream`: the Data Vortex GUPS run emits live dv-events-v1
    // telemetry (the MPI run above stays un-streamed).
    let streamer = Streamer::attach(opts, &dv_metrics, nodes);
    let dv_result = dv::run_spec(
        cfg,
        SimSpec::new(nodes)
            .machine(MachineConfig::paper_cluster())
            .tracer(Arc::clone(&dv_tracer))
            .metrics(Arc::clone(&dv_metrics)),
    );
    if let Some(s) = streamer {
        s.finish(dv_result.elapsed);
    }
    println!("\nExtension — the same GUPS run on the Data Vortex\n");
    println!("{}", dv_tracer.render_ascii(nodes, 100, None));
    println!(
        "Data Vortex aggregate rate {:.1} MUPS vs MPI {:.1} MUPS",
        dv_result.mups_total(),
        result.mups_total()
    );

    report.add_run(&format!("mpi.n{nodes}"), &metrics);
    report.add_run(&format!("dv.n{nodes}"), &dv_metrics);
    report.set_trace(dump);
}
