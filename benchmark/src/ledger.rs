//! Per-layer counts out of a traced repetition's metrics snapshot, and
//! the host-time ledger that prices them with the probes.
//!
//! The ledger is an *estimate from outside*: count × probe cost, with each
//! layer's row reduced by the share its probe spent in the layer below
//! (self time = span minus child spans). What it cannot explain is
//! reported as `ledger.unattributed_frac`; that residual, not any single
//! row, says how far the numbers can be trusted.

use dv_core::metrics::MetricsSnapshot;

use crate::probes::{value_of, Metric};
use crate::workloads::{kernel_work, sweep_cycles_per_net, Workload};

/// Outside this band the ledger "does not close" (informational).
pub const RESIDUAL_BAND: (f64, f64) = (-0.25, 0.5);

/// Sum of `2^bucket × count` over every histogram named `name`: a floor
/// on the histogram's sample total (bucket `i` holds `[2^i, 2^(i+1))`).
fn histogram_floor(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.histograms()
        .iter()
        .filter(|((n, _), _)| n == name)
        .flat_map(|(_, h)| h.buckets.iter().enumerate())
        .map(|(i, &count)| count << i)
        .sum()
}

/// The per-layer counts of one traced repetition. They depend only on the
/// inputs, so two runs — and two commits that claim to preserve behaviour
/// — must produce them exactly.
pub fn counts(snap: &MetricsSnapshot) -> Vec<Metric> {
    let total = |name: &str| snap.counter_total(name) as f64;
    let labeled = |name: &str, key: &str, value: &str| {
        snap.counter(name, &[(key, value)]).unwrap_or(0) as f64
    };
    let count = |name: &str, value: f64| Metric::new(name, "count", value);
    let (batches, packets) = (total("api.net.batches"), total("api.net.packets"));
    vec![
        count("dv-sim.resumes", total("sim.sched.resumes")),
        count("dv-sim.calls", total("sim.sched.calls")),
        count("dv-sim.stale_wakeups", total("sim.sched.stale_wakeups")),
        count("dv-sim.events", total("sim.sched.trace_events")),
        count("dv-api.batches", batches),
        count("dv-api.packets", packets),
        count(
            "dv-api.pkts_per_batch",
            if batches > 0.0 {
                packets / batches
            } else {
                0.0
            },
        ),
        count("dv-api.retx_words", total("api.fifo.retx_words")),
        count("dv-vic.delivered", total("vic.delivered")),
        count("dv-vic.fifo_pushes", total("vic.fifo.pushes")),
        count("dv-vic.fifo_drops", total("vic.fifo.drops")),
        count("dv-vic.gc_decrements", total("vic.gc.decrements")),
        count("dv-vic.mem_writes", total("vic.mem.writes")),
        count("mini-mpi.msgs_eager", labeled("mpi.msgs", "path", "eager")),
        count("mini-mpi.msgs_rndv", labeled("mpi.msgs", "path", "rndv")),
        count("mini-mpi.bytes", total("mpi.bytes")),
        count("mini-mpi.coll_calls", total("mpi.coll.calls")),
        count("dv-switch.cycles", total("switch.cycle.cycles")),
        // In-network hops, floored to each packet's log2 bucket (the
        // engines publish hop histograms, not sums).
        count(
            "dv-switch.flit_hops",
            (histogram_floor(snap, "switch.cycle.hops") + histogram_floor(snap, "rival.cycle.hops"))
                as f64,
        ),
        count(
            "dv-switch.deflections",
            total("switch.cycle.contention_deflections"),
        ),
        count("dv-switch.delivered", total("switch.sweep.delivered")),
        count("dv-switch.routed_cycles", total("rival.cycle.cycles")),
    ]
}

/// Price `counts` with `probes` for one workload whose untraced
/// repetition took `wall_s`. Returns the `ledger.*` rows.
pub fn ledger(
    workload: Workload,
    counts: &[Metric],
    probes: &[Metric],
    wall_s: f64,
) -> Vec<Metric> {
    let c = |name: &str| value_of(counts, name);
    let p = |name: &str| value_of(probes, name);
    let ns = 1e-9;

    // dv-sim: every committed event at the scheduler's own price. Charging
    // every resume the cross-thread price is an upper estimate — the
    // engine does not yet say how many took the RunSelf fast path.
    let handoff = p("dv-sim.handoff_ns") * ns;
    let call = p("dv-sim.call_ns") * ns;
    let sim_s = c("dv-sim.resumes") * handoff + c("dv-sim.calls") * call;

    // dv-vic and dv-api. The per-packet path (`transmit` → `Vic::deliver`)
    // and the block path (`transmit_blocks` → `Vic::deliver_block`) are
    // priced apart; no workload mixes them in earnest (`bulk_regular`'s
    // few barrier and counter-arming packets ride the packet path and are
    // priced as block words here).
    let (batches, packets) = (c("dv-api.batches"), c("dv-api.packets"));
    let (vic_s, api_s) = if workload == Workload::BulkRegular {
        let vic = c("dv-vic.mem_writes") * p("dv-vic.deliver_block_ns") * ns;
        let api = packets * (p("dv-api.transmit_blocks_ns") - p("dv-vic.deliver_block_ns")) * ns;
        (vic, api - batches * call)
    } else {
        let mem = p("dv-vic.deliver_mem_ns");
        let vic = (c("dv-vic.mem_writes") * mem
            + c("dv-vic.fifo_pushes") * p("dv-vic.deliver_fifo_ns")
            + c("dv-vic.gc_decrements") * (p("dv-vic.deliver_gc_ns") - mem).max(0.0))
            * ns;
        // cost(batch of b) = per_batch + b × per_packet, from the two
        // batch sizes probed.
        let (t1, t1024) = (p("dv-api.transmit_b1_ns"), p("dv-api.transmit_b1024_ns"));
        let per_batch = (t1 - t1024) * 1024.0 / 1023.0;
        let per_packet = t1 - per_batch;
        // The transmit probe delivers DV-memory packets and schedules one
        // kernel call per batch: both belong to the rows above.
        let api = (batches * per_batch + packets * (per_packet - mem)) * ns;
        // Every surprise-FIFO word of these kernels also crosses the
        // recovery layer (`ReliableFifo`), sender and receiver side.
        let recovery = c("dv-vic.fifo_pushes") * p("dv-api.reliable_word_ns") * ns;
        (vic, api - batches * call + recovery)
    };

    // mini-mpi: a message's host cost minus the scheduler events it
    // causes. Eager messages are priced in the 32-rank alltoall context
    // (where a delay hands the token to another rank), rendezvous in the
    // 2-rank ping-pong.
    let pairs = 32.0 * 31.0;
    let eager_self = p("mini-mpi.alltoall32_host_ms") * 1e-3 / pairs
        - p("mini-mpi.alltoall32_resumes_per_msg") * handoff
        - p("mini-mpi.alltoall32_calls_per_msg") * call;
    let rndv_self = p("mini-mpi.rndv_msg_host_us") * 1e-6
        - p("mini-mpi.rndv_resumes_per_msg") * handoff
        - p("mini-mpi.rndv_calls_per_msg") * call;
    let mpi_s = c("mini-mpi.msgs_eager") * eager_self.max(0.0)
        + c("mini-mpi.msgs_rndv") * rndv_self.max(0.0);

    // dv-switch: the analytic model once per batch on the cluster
    // workloads; the cycle engines only under `switch_sweep`.
    let switch_s = if workload == Workload::SwitchSweep {
        let per_cycle = [
            "dv-switch.vortex64_cycle_ns",
            "dv-switch.vortex1024_cycle_ns",
            "dv-switch.vortex4096_cycle_ns",
            "dv-switch.fattree1024_cycle_ns",
            "dv-switch.minpath1024_cycle_ns",
        ];
        sweep_cycles_per_net()
            .iter()
            .zip(per_cycle)
            .map(|(&cycles, name)| cycles as f64 * p(name) * ns)
            .sum()
    } else {
        batches * p("dv-switch.model_traversal_ns") * ns
    };

    let (updates, validations, fft_points, cell_steps) = kernel_work(workload);
    let kernels_s = updates as f64 * p("dv-kernels.gups_update_ns") * ns
        + validations as f64 * p("dv-kernels.bfs_validate_ms") * 1e-3
        + fft_points as f64 * p("dv-kernels.fft_point_ns") * ns
        + cell_steps as f64 * p("dv-apps.heat_cell_step_ns") * ns;

    let rows = [
        ("ledger.dv-sim_s", sim_s),
        ("ledger.dv-api_s", api_s.max(0.0)),
        ("ledger.dv-vic_s", vic_s),
        ("ledger.mini-mpi_s", mpi_s),
        ("ledger.dv-switch_s", switch_s),
        ("ledger.dv-kernels_s", kernels_s),
    ];
    let attributed: f64 = rows.iter().map(|(_, s)| s).sum();
    let mut out: Vec<Metric> = rows
        .into_iter()
        .map(|(name, s)| Metric::new(name, "s", s))
        .collect();
    out.push(Metric::new(
        "ledger.unattributed_frac",
        "ratio",
        1.0 - attributed / wall_s,
    ));
    // The dv-sim row read the other way round: what one resume would have
    // to cost for the scheduler to explain all the time the other layers
    // do not. Between `self_resume_ns` and `handoff_ns` it is believable.
    let resumes = c("dv-sim.resumes");
    let per_resume_us = if resumes > 0.0 {
        (wall_s - (attributed - sim_s)) / resumes * 1e6
    } else {
        0.0
    };
    out.push(Metric::new(
        "ledger.resume_residual_us",
        "us",
        per_resume_us,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probes_at(value: f64) -> Vec<Metric> {
        [
            "dv-sim.handoff_ns",
            "dv-sim.call_ns",
            "dv-vic.deliver_mem_ns",
            "dv-vic.deliver_fifo_ns",
            "dv-vic.deliver_gc_ns",
            "dv-vic.deliver_block_ns",
            "dv-api.transmit_b1_ns",
            "dv-api.transmit_b1024_ns",
            "dv-api.transmit_blocks_ns",
            "dv-api.reliable_word_ns",
            "mini-mpi.alltoall32_host_ms",
            "mini-mpi.alltoall32_resumes_per_msg",
            "mini-mpi.alltoall32_calls_per_msg",
            "mini-mpi.rndv_msg_host_us",
            "mini-mpi.rndv_resumes_per_msg",
            "mini-mpi.rndv_calls_per_msg",
            "dv-switch.model_traversal_ns",
            "dv-switch.vortex64_cycle_ns",
            "dv-switch.vortex1024_cycle_ns",
            "dv-switch.vortex4096_cycle_ns",
            "dv-switch.fattree1024_cycle_ns",
            "dv-switch.minpath1024_cycle_ns",
            "dv-kernels.gups_update_ns",
            "dv-kernels.bfs_validate_ms",
            "dv-kernels.fft_point_ns",
            "dv-apps.heat_cell_step_ns",
        ]
        .into_iter()
        .map(|name| Metric::new(name, "ns", value))
        .collect()
    }

    #[test]
    fn an_idle_run_is_wholly_unattributed() {
        let counts = counts(&MetricsSnapshot::default());
        assert!(counts.iter().all(|m| m.value == 0.0 && m.unit == "count"));
        let rows = ledger(Workload::MpiIrregular, &counts, &probes_at(0.0), 2.0);
        assert_eq!(rows.len(), 8);
        assert_eq!(value_of(&rows, "ledger.unattributed_frac"), 1.0);
        assert_eq!(value_of(&rows, "ledger.resume_residual_us"), 0.0);
    }

    #[test]
    fn scheduler_events_are_priced_at_the_probe_cost() {
        let mut counts = counts(&MetricsSnapshot::default());
        for m in &mut counts {
            if m.name == "dv-sim.resumes" {
                m.value = 1e6;
            }
        }
        let mut probes = probes_at(0.0);
        probes[0].value = 500.0; // handoff_ns
        let rows = ledger(Workload::MpiIrregular, &counts, &probes, 1.0);
        assert!((value_of(&rows, "ledger.dv-sim_s") - 0.5).abs() < 1e-12);
        assert!((value_of(&rows, "ledger.unattributed_frac") - 0.5).abs() < 1e-12);
        // The whole second spread over a million resumes.
        assert!((value_of(&rows, "ledger.resume_residual_us") - 1.0).abs() < 1e-9);
    }
}
