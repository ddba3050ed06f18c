//! The scenario bodies behind `dv-bench <scenario>`: each module is one
//! `fn run(opts, report)`; `main.rs` owns the table, the command
//! line and the report's start and finish.

use std::sync::Arc;

use dv_bench::{Opts, Streamer};
use dv_core::config::DvParams;
use dv_core::metrics::MetricsRegistry;
use dv_switch::traffic::LoadSweep;
use dv_switch::NetworkTopology;

pub mod ablate_aggregation;
pub mod ablate_halo;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod scaling_study;
pub mod switch_study;

/// Run `f` on every item, each on its own host thread, and collect the
/// results in input order. Every item is an independent seeded
/// simulation, so host scheduling cannot change the output
/// (`tests/determinism.rs` and `tests/sweep_parallel.rs` check that).
fn fan_out<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items.iter().map(|item| s.spawn(move || f(item))).collect();
        handles.into_iter().map(|h| h.join().expect("scenario worker panicked")).collect()
    })
}

/// `--stream` on a switch study: a dedicated serial run of `sweep` at 0.7
/// offered load streams the switch's cycle-level telemetry, with virtual
/// time = cycle × hop time, flushed at every sample boundary. Does
/// nothing without `--stream`.
fn stream_sweep(opts: &Opts, mut sweep: LoadSweep) {
    let metrics = Arc::new(MetricsRegistry::enabled());
    let Some(streamer) = Streamer::attach(opts, &metrics, sweep.net.ports()) else {
        return;
    };
    let hop_ps = DvParams::default().hop_time;
    let flush_cycles = (opts.stream_interval / hop_ps).max(1);
    sweep.metrics = Some(metrics);
    let end_cycles = sweep.warmup + sweep.measure;
    sweep.run_streamed(0.7, hop_ps, flush_cycles);
    streamer.finish(end_cycles * hop_ps);
}
