//! `dv-bench <scenario> [flags]` — the one front end to every figure,
//! study and ablation.
//!
//! The command line is parsed once into [`Opts`] and checked against the
//! scenario's row of [`SCENARIOS`]; misuse (no or an unknown scenario, an
//! unknown flag, a flag without its value, a flag the scenario does not
//! take) exits 2 naming the problem and listing the scenarios. The front
//! end starts the [`Report`], runs the scenario, and finishes the report
//! (the `--json` artifact and the `wall: <s> s` stderr line).

use dv_bench::{Opts, Report, Scenario};

mod scenarios;

use scenarios::{
    ablate_aggregation, ablate_halo, fig3, fig4, fig5, fig6, fig7, fig8, fig9, scaling_study,
    switch_study,
};

const STREAM: &[&str] = &["--stream", "--stream-interval"];
const STREAM_FAULTS: &[&str] = &["--stream", "--stream-interval", "--faults"];
const STREAM_TOPO: &[&str] = &["--stream", "--stream-interval", "--topo"];

/// Every scenario: name, role, the flags it takes beyond `--quick` and
/// `--json`, body.
#[rustfmt::skip]
const SCENARIOS: &[Scenario] = &[
    Scenario { name: "fig3", role: "Fig. 3a/3b: ping-pong bandwidth vs message size", flags: STREAM, run: fig3::run },
    Scenario { name: "fig4", role: "Fig. 4: barrier latency vs node count", flags: STREAM, run: fig4::run },
    Scenario { name: "fig5", role: "Fig. 5: execution trace of MPI GUPS (writes fig5_trace.txt)", flags: STREAM, run: fig5::run },
    Scenario { name: "fig6", role: "Fig. 6a/6b: GUPS per node and aggregate vs node count", flags: STREAM_FAULTS, run: fig6::run },
    Scenario { name: "fig7", role: "Fig. 7: FFT-1D aggregate GFLOPS vs node count", flags: STREAM, run: fig7::run },
    Scenario { name: "fig8", role: "Fig. 8: Graph500 BFS harmonic-mean TEPS vs node count", flags: STREAM_FAULTS, run: fig8::run },
    Scenario { name: "fig9", role: "Fig. 9: application speedups (SNAP, Vorticity, Heat)", flags: STREAM, run: fig9::run },
    Scenario { name: "switch_study", role: "cycle-accurate switch load sweeps, DV vs rival topologies at 32 ports", flags: STREAM_FAULTS, run: switch_study::run },
    Scenario { name: "scaling_study", role: "Section IX: barrier, GUPS and switch past 32 nodes; --topo sweeps to 4096 ports", flags: STREAM_TOPO, run: scaling_study::run },
    Scenario { name: "ablate_aggregation", role: "ablation: GUPS with source aggregation on/off", flags: STREAM, run: ablate_aggregation::run },
    Scenario { name: "ablate_halo", role: "ablation: heat speedup vs the MPI baseline's halo strategy", flags: STREAM, run: ablate_halo::run },
];

fn main() {
    let (scenario, opts) = match Opts::parse(std::env::args().skip(1), SCENARIOS) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("dv-bench: {e}\n\nusage: dv-bench <scenario> [--quick] [--json <path>] [scenario flags]\n\nscenarios:");
            for s in SCENARIOS {
                eprintln!("  {:<18}  {} [{}]", s.name, s.role, s.flags.join(" "));
            }
            std::process::exit(2);
        }
    };
    let mut report = Report::new(&opts);
    (scenario.run)(&opts, &mut report);
    report.finish();
}
