//! The four workloads: input generation (set-up), one repetition, and the
//! correctness checks every repetition carries.
//!
//! Sizes are frozen here. They are the issue's figure-path sizes scaled
//! down so that one repetition costs 0.15–0.4 s of host time on one CPU of
//! the reference host (each run is pinned, see `procfs::pin_to_one_cpu`).
//! A run reports its best repetition (see `stats`), and the host's quiet
//! spells can be short: fifty to a hundred short repetitions per run find
//! one where a dozen long ones do not. Host time is far from linear in the
//! problem size — an MPI BFS costs the same at any scale from 10 to 14,
//! because it is bound by its message count — so the scaling is per
//! kernel, chosen to keep each kernel a visible share of its workload.

use std::sync::Arc;
use std::time::Instant;

use dv_apps::heat::{self, Halo, HeatConfig, SerialHeat};
use dv_core::config::DvParams;
use dv_core::metrics::MetricsRegistry;
use dv_core::rng::SplitMix64;
use dv_core::spec::SimSpec;
use dv_core::time::Time;
use dv_kernels::fft;
use dv_kernels::graph::{self, Csr, GraphConfig, VertexPart};
use dv_kernels::gups::{self, GupsConfig};
use dv_switch::traffic::{LoadSweep, Pattern, SweepPoint};
use dv_switch::{AnyTopology, NetworkTopology, TopoKind};

use crate::procfs;

/// Simulated cluster size of every cluster workload (the paper's system).
pub const NODES: usize = 32;

/// GUPS table words per node.
const GUPS_TABLE: usize = 1 << 13;
/// GUPS updates per node on the Data Vortex backend.
const GUPS_UPDATES_DV: usize = 1 << 14;
/// GUPS updates per node on mini-MPI: an MPI update costs about eight
/// times the host time of a DV one, so the MPI run gets an eighth.
const GUPS_UPDATES_MPI: usize = 1 << 11;
/// Kronecker graph: log2 vertices, edges per vertex, BFS roots.
const GRAPH_SCALE: u32 = 12;
const GRAPH_EDGEFACTOR: usize = 16;
const BFS_ROOTS: usize = 1;
/// Levels a benchmark search should have (scale-12 graphs offer 4 or 5).
const BFS_DEPTH: i64 = 5;
/// FFT points (both backends).
pub const FFT_N: usize = 1 << 20;
/// FFT validation tolerance. `max_error` is an absolute elementwise
/// distance and the spectrum's magnitude grows with N, so the tolerance
/// scales with N (1.05e-5 here, 3.6e-6 measured); the kernels' own unit
/// tests use the much looser `1e-9 * n`.
const FFT_TOLERANCE: f64 = 1e-11 * FFT_N as f64;
/// Heat problem (both backends): Figure 9's grid, a sixth of its steps
/// (every step costs the same six halo shifts).
pub const HEAT: HeatConfig = HeatConfig {
    n: (32, 32, 32),
    grid: (4, 4, 2),
    r: 0.1,
    steps: 4,
    report_every: 2,
    halo: Halo::Face,
};
/// Sweep networks: kind, ports, measured cycles per point (a tenth of
/// the issue's, for 0.35 s repetitions).
pub const SWEEP_NETS: [(TopoKind, usize, u64); 5] = [
    (TopoKind::Vortex, 64, 10_000),
    (TopoKind::Vortex, 1024, 400),
    (TopoKind::Vortex, 4096, 100),
    (TopoKind::FatTree, 1024, 400),
    (TopoKind::MinPath, 1024, 400),
];
/// Warm-up cycles per point: half of `LoadSweep`'s default, so that the
/// unmeasured cycles do not dwarf the measured ones on the large networks.
const SWEEP_WARMUP: u64 = 250;
const SWEEP_PATTERNS: [Pattern; 2] = [Pattern::Uniform, Pattern::Hotspot];
const SWEEP_LOADS: [f64; 2] = [0.2, 0.9];
/// Bernoulli arrivals over a finite window can deliver slightly more than
/// the nominal offered load; beyond this factor the accounting is wrong.
const ACCEPTED_SLACK: f64 = 1.05;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GUPS + BFS on the Data Vortex backend.
    DvIrregular,
    /// GUPS + BFS on mini-MPI.
    MpiIrregular,
    /// FFT + heat on both backends.
    BulkRegular,
    /// 20 serial `LoadSweep` points over five networks.
    SwitchSweep,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::DvIrregular,
        Workload::MpiIrregular,
        Workload::BulkRegular,
        Workload::SwitchSweep,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DvIrregular => "dv_irregular",
            Workload::MpiIrregular => "mpi_irregular",
            Workload::BulkRegular => "bulk_regular",
            Workload::SwitchSweep => "switch_sweep",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (`BENCHMARK.json` repeats it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::DvIrregular => {
                "GUPS+BFS on the DV backend only: the per-packet surprise-FIFO path (Aggregator, ReliableFifo, transmit, Vic::deliver) at 14 k resumes per rep; mini-mpi is bypassed"
            }
            Workload::MpiIrregular => {
                "the same GUPS+BFS on mini-MPI only: 9 k eager messages at 4 resumes each, so mini-mpi and dv-sim handoffs set the time; dv-api and dv-vic are bypassed"
            }
            Workload::BulkRegular => {
                "FFT+heat on both backends: 4 M words through the DMA block path and 2 k rendezvous messages, the most host compute per event; the per-packet FIFO path is bypassed"
            }
            Workload::SwitchSweep => {
                "20 LoadSweep points on 5 networks: the only workload that runs the cycle engines, and the bypass for every cluster-side change"
            }
        }
    }

    /// What one unit of `app_ops_per_s` counts.
    pub fn ops_unit(self) -> &'static str {
        match self {
            Workload::DvIrregular | Workload::MpiIrregular => "GUPS updates + BFS edges scanned",
            Workload::BulkRegular => "FFT points + heat cell-steps",
            Workload::SwitchSweep => "packets delivered",
        }
    }
}

/// Generated inputs of the two irregular workloads.
pub struct IrregularInputs {
    /// Run on mini-MPI instead of the Data Vortex.
    pub mpi: bool,
    /// GUPS problem (the seed picks the offset into the HPCC stream).
    pub gups: GupsConfig,
    /// XOR checksum of the serial reference table.
    pub gups_checksum: u64,
    /// The whole graph (validation needs it).
    pub csr: Csr,
    /// Per-node partitions of `csr`.
    pub locals: Vec<Csr>,
    /// BFS roots, all inside the giant component.
    pub roots: Vec<u32>,
}

/// Generated inputs of one workload.
pub enum Inputs {
    /// `dv_irregular` / `mpi_irregular`.
    Irregular(IrregularInputs),
    /// `bulk_regular`: the serial heat reference field.
    Bulk {
        /// Final field of [`SerialHeat`] after [`HEAT`]`.steps` steps.
        heat_reference: Vec<f64>,
    },
    /// `switch_sweep`: the five networks and the arrival seed.
    Sweep {
        /// `(network, measured cycles)` per sweep family.
        nets: Vec<(AnyTopology, u64)>,
        /// `LoadSweep::seed`.
        seed: u64,
    },
}

/// Generate `workload`'s inputs from `seed`. This is what `setup_s`
/// times; the simulator only ever sees what is built here.
pub fn setup(workload: Workload, seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed);
    match workload {
        Workload::DvIrregular | Workload::MpiIrregular => {
            let mpi = workload == Workload::MpiIrregular;
            let gups = GupsConfig {
                table_per_node: GUPS_TABLE,
                updates_per_node: if mpi {
                    GUPS_UPDATES_MPI
                } else {
                    GUPS_UPDATES_DV
                },
                bucket: 1024,
                // Deep enough into the LFSR period that the sparse head of
                // the stream (see `GupsConfig::stream_offset`) is skipped.
                stream_offset: (1 << 20) + rng.next_below(1 << 40) as i64,
            };
            let (_, gups_checksum) = gups::serial_reference(&gups, NODES);
            let (csr, locals) = build_graph(rng.next_u64());
            let roots = giant_component_roots(&csr, BFS_ROOTS, rng.next_u64());
            Inputs::Irregular(IrregularInputs {
                mpi,
                gups,
                gups_checksum,
                csr,
                locals,
                roots,
            })
        }
        Workload::BulkRegular => {
            // The FFT signal and the heat initial condition are fixed
            // functions inside the kernels and take no seed.
            let mut serial = SerialHeat::new(&HEAT);
            for _ in 0..HEAT.steps {
                serial.step();
            }
            Inputs::Bulk {
                heat_reference: serial.u,
            }
        }
        Workload::SwitchSweep => Inputs::Sweep {
            nets: SWEEP_NETS
                .iter()
                .map(|&(kind, ports, measure)| (AnyTopology::for_ports(kind, ports), measure))
                .collect(),
            seed: rng.next_u64(),
        },
    }
}

/// Generate the Kronecker graph, its CSR form and the per-node partitions.
pub fn build_graph(seed: u64) -> (Csr, Vec<Csr>) {
    let cfg = GraphConfig {
        scale: GRAPH_SCALE,
        edgefactor: GRAPH_EDGEFACTOR,
        seed,
    };
    let edges = graph::kronecker_edges(&cfg);
    let csr = Csr::build(cfg.vertices(), &edges);
    let locals = graph::partition_csr(&csr, VertexPart { nodes: NODES });
    (csr, locals)
}

/// `count` distinct roots whose BFS reaches at least a quarter of all
/// vertices in as close to [`BFS_DEPTH`] levels as the graph offers.
/// `pick_roots` only guarantees non-zero degree, and the work of a search
/// is set by its level count: a root in a two-vertex component, or one
/// level more or less, would make a repetition's cost depend on the seed
/// (one more level is +25 % host time on mini-MPI).
fn giant_component_roots(csr: &Csr, count: usize, seed: u64) -> Vec<u32> {
    let mut candidates: Vec<(i64, u32)> = graph::pick_roots(csr, 16 * count, seed)
        .into_iter()
        .filter_map(|root| {
            let (_, levels) = graph::serial_bfs(csr, root);
            let reached = levels.iter().filter(|&&l| l >= 0).count();
            let depth = levels.iter().copied().max().unwrap_or(0);
            (reached >= csr.vertices() / 4).then_some(((depth - BFS_DEPTH).abs(), root))
        })
        .collect();
    assert!(
        candidates.len() >= count,
        "no giant component found among the candidate roots"
    );
    // Stable: among equally deep searches the earlier candidate wins.
    candidates.sort_by_key(|&(off_target, _)| off_target);
    candidates
        .into_iter()
        .take(count)
        .map(|(_, root)| root)
        .collect()
}

/// How one repetition is run.
#[derive(Clone, Default)]
pub struct RepMode {
    /// Event-queue shards (0 = auto). The warm-up repetition runs at 1 and
    /// the timed ones at auto, so equal digests also prove shard invariance.
    pub shards: usize,
    /// Also run the expensive reference comparisons (FFT against its
    /// serial transform, heat against [`SerialHeat`]).
    pub validate: bool,
    /// Registry the simulations publish into; `None` leaves metrics off.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl RepMode {
    fn spec(&self) -> SimSpec {
        let spec = SimSpec::new(NODES).shards(self.shards);
        match &self.metrics {
            Some(m) => spec.metrics(Arc::clone(m)),
            None => spec,
        }
    }
}

/// What one repetition produced.
pub struct Rep {
    /// Host wall-clock of the repetition, checks included (they are a few
    /// milliseconds of fixed work).
    pub wall_s: f64,
    /// User + system CPU over the same interval, all threads.
    pub cpu_s: f64,
    /// Application work done (see [`Workload::ops_unit`]).
    pub ops: u64,
    /// Simulated time-to-solution summed over the repetition's runs, ms.
    pub virt_ms: f64,
    /// FNV-1a digest of every simulated result.
    pub digest: u64,
    /// The repetition's correctness checks.
    pub checks: Checks,
}

/// Correctness checks made so far, and the ones that failed.
#[derive(Default)]
pub struct Checks {
    /// Checks made (`ops_attempted`).
    pub attempted: u64,
    /// One line per failed check (`ops_failed` of them).
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Add another tally's checks to this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// Accumulates a repetition's results and checks.
struct Tally {
    ops: u64,
    virt_ps: u128,
    digest: u64,
    checks: Checks,
}

impl Tally {
    fn new() -> Self {
        Self {
            ops: 0,
            virt_ps: 0,
            digest: 0xcbf2_9ce4_8422_2325,
            checks: Checks::default(),
        }
    }

    /// Fold one 64-bit word into the FNV-1a digest, byte by byte.
    fn hash(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Account one simulation run: its simulated time and its work.
    fn ran(&mut self, elapsed: Time, ops: u64) {
        self.virt_ps += u128::from(elapsed);
        self.ops += ops;
        self.hash(elapsed);
    }
}

/// Run one repetition of the workload `inputs` was generated for.
pub fn run_rep(inputs: &Inputs, mode: &RepMode) -> Rep {
    let cpu0 = procfs::cpu_seconds();
    let t0 = Instant::now();
    let mut tally = Tally::new();
    match inputs {
        Inputs::Irregular(inp) => rep_irregular(inp, mode, &mut tally),
        Inputs::Bulk { heat_reference } => rep_bulk(heat_reference, mode, &mut tally),
        Inputs::Sweep { nets, seed } => rep_sweep(nets, *seed, mode, &mut tally),
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds() - cpu0;
    Rep {
        wall_s,
        cpu_s,
        ops: tally.ops,
        virt_ms: tally.virt_ps as f64 / 1e9,
        digest: tally.digest,
        checks: tally.checks,
    }
}

fn rep_irregular(inp: &IrregularInputs, mode: &RepMode, tally: &mut Tally) {
    let backend = if inp.mpi { "mpi" } else { "dv" };
    let g = if inp.mpi {
        gups::mpi::run_spec(inp.gups, mode.spec())
    } else {
        gups::dv::run_spec(inp.gups, mode.spec())
    };
    tally.ran(g.elapsed, g.total_updates);
    tally.hash(g.checksum);
    tally.checks.check(g.checksum == inp.gups_checksum, || {
        format!(
            "gups::{backend} checksum {:#x} != serial {:#x}",
            g.checksum, inp.gups_checksum
        )
    });
    let expected = (inp.gups.updates_per_node * NODES) as u64;
    tally.checks.check(g.total_updates == expected, || {
        format!(
            "gups::{backend} applied {} updates, expected {expected}",
            g.total_updates
        )
    });

    let n = inp.csr.vertices();
    for &root in &inp.roots {
        let b = if inp.mpi {
            graph::mpi::run_spec(&inp.locals, n, root, mode.spec())
        } else {
            graph::dv::run_spec(&inp.locals, n, root, mode.spec())
        };
        tally.ran(b.elapsed, b.edges_scanned);
        for &p in &b.parents {
            tally.hash(p as u64);
        }
        let verdict = graph::validate_bfs(&inp.csr, root, &b.parents);
        tally.checks.check(verdict.is_ok(), || {
            format!("graph::{backend} root {root}: {}", verdict.unwrap_err())
        });
    }
}

fn rep_bulk(heat_reference: &[f64], mode: &RepMode, tally: &mut Tally) {
    for (backend, r) in [
        ("dv", fft::dv::run_spec(FFT_N, mode.spec(), mode.validate)),
        ("mpi", fft::mpi::run_spec(FFT_N, mode.spec(), mode.validate)),
    ] {
        tally.ran(r.elapsed, FFT_N as u64);
        tally.hash(r.flops);
        if mode.validate {
            tally.checks.check(r.max_error < FFT_TOLERANCE, || {
                format!(
                    "fft::{backend} max_error {} >= {FFT_TOLERANCE}",
                    r.max_error
                )
            });
        }
    }

    let cell_steps = (HEAT.n.0 * HEAT.n.1 * HEAT.n.2 * HEAT.steps) as u64;
    // `heat::mpi` has no `run_spec`: it always runs on a default spec, so
    // it takes neither the shard count nor the metrics registry.
    for (backend, r) in [
        ("dv", heat::dv::run_spec(HEAT, mode.spec())),
        ("mpi", heat::mpi::run(HEAT)),
    ] {
        tally.ran(r.elapsed, cell_steps);
        tally.hash(r.last_heat.to_bits());
        let field = heat::mpi::assemble(&HEAT, &r.fields);
        for &u in &field {
            tally.hash(u.to_bits());
        }
        if mode.validate {
            tally.checks.check(field == heat_reference, || {
                format!("heat::{backend} field differs from SerialHeat")
            });
        }
    }
}

fn rep_sweep(nets: &[(AnyTopology, u64)], seed: u64, mode: &RepMode, tally: &mut Tally) {
    let hop_time = DvParams::default().hop_time;
    for (net, measure) in nets {
        for pattern in SWEEP_PATTERNS {
            for offered in SWEEP_LOADS {
                let mut sweep = LoadSweep::for_net(net.clone());
                sweep.pattern = pattern;
                sweep.warmup = SWEEP_WARMUP;
                sweep.measure = *measure;
                sweep.seed = seed;
                sweep.metrics = mode.metrics.clone();
                let p = sweep.run(offered);
                // Simulated time of the point: its mean total packet
                // latency in cycles at the machine's hop time.
                tally.ran(
                    (p.total_latency_mean * hop_time as f64).round() as Time,
                    p.delivered,
                );
                hash_point(tally, &p);
                let label = format!(
                    "{} {} ports {pattern:?} @{offered}",
                    net.kind().name(),
                    net.ports()
                );
                tally
                    .checks
                    .check(p.delivered > 0, || format!("{label}: nothing delivered"));
                tally
                    .checks
                    .check(p.accepted <= offered * ACCEPTED_SLACK, || {
                        format!("{label}: accepted {} > offered {offered}", p.accepted)
                    });
            }
        }
    }
}

fn hash_point(tally: &mut Tally, p: &SweepPoint) {
    for x in [
        p.offered,
        p.accepted,
        p.latency_mean,
        p.total_latency_mean,
        p.deflections_mean,
    ] {
        tally.hash(x.to_bits());
    }
    tally.hash(p.delivered);
    tally.hash(p.total_latency_p99_log2 as u64);
}

/// Host compute a repetition asks of `dv-kernels` / `dv-apps`, in the
/// units the kernel probes price: `(GUPS updates, BFS validations, FFT
/// points, heat cell-steps)`.
pub fn kernel_work(workload: Workload) -> (u64, u64, u64, u64) {
    let cell_steps = (HEAT.n.0 * HEAT.n.1 * HEAT.n.2 * HEAT.steps) as u64;
    match workload {
        Workload::DvIrregular => ((GUPS_UPDATES_DV * NODES) as u64, BFS_ROOTS as u64, 0, 0),
        Workload::MpiIrregular => ((GUPS_UPDATES_MPI * NODES) as u64, BFS_ROOTS as u64, 0, 0),
        Workload::BulkRegular => (0, 0, 2 * FFT_N as u64, 2 * cell_steps),
        Workload::SwitchSweep => (0, 0, 0, 0),
    }
}

/// Simulated cycles one repetition of `switch_sweep` steps through, per
/// network family: four points of `warmup + measure` cycles each.
pub fn sweep_cycles_per_net() -> Vec<u64> {
    let points = (SWEEP_PATTERNS.len() * SWEEP_LOADS.len()) as u64;
    SWEEP_NETS
        .iter()
        .map(|&(_, _, measure)| points * (SWEEP_WARMUP + measure))
        .collect()
}
