//! Golden virtual-time rail: every kernel and app × backend at one small
//! fixed size, pinned to the `elapsed` (integer ps) and result digest the
//! workspace produced when the table was captured. Other tests compare a
//! run with itself; this one compares a run with an earlier *commit*, so
//! a refactor that claims "no simulated behaviour changed" has something
//! to be held to.
//!
//! A model PR that moves virtual time on purpose re-captures the table:
//! run the test, copy the `actual` rows it prints into [`GOLDEN`], and say
//! so in the PR. The `elapsed` column is pure integer arithmetic; digests
//! of floating-point fields additionally depend on the platform's libm.

use datavortex::api::SendMode;
use datavortex::apps::heat::{self, Halo, HeatConfig};
use datavortex::apps::snap::{self, SnapConfig};
use datavortex::apps::vorticity::{dist as vort, VortConfig};
use datavortex::core::fault::FaultPlan;
use datavortex::core::fnv::Fnv1a;
use datavortex::core::spec::SimSpec;
use datavortex::kernels::barrier::{barrier_latency_spec, BarrierKind};
use datavortex::kernels::fft::{self, Complex};
use datavortex::kernels::graph;
use datavortex::kernels::gups::{self, GupsConfig};
use datavortex::kernels::pingpong;

/// `(row, elapsed ps, result digest)`.
type Row = (&'static str, u64, u64);

const GOLDEN: &[Row] = &[
    ("gups/dv", 102383734, 0xa4c04e7e647e9070),
    ("gups/mpi", 131835240, 0xa4c04e7e647e9070),
    ("gups/dv/chaos", 525020239, 0xa4c04e7e647e9070),
    ("bfs/dv", 87027125, 0xb17233db72b71274),
    ("bfs/mpi", 110708809, 0x51aef2b4a4d8725e),
    ("bfs/dv/chaos", 612061602, 0xd2f2216b5043a12c),
    ("fft1d/dv/square", 23457238, 0x0000000000042000),
    ("fft1d/mpi/square", 29999260, 0x0000000000042000),
    ("fft1d/dv/nonsquare", 15805633, 0x000000000001e800),
    ("fft1d/mpi/nonsquare", 23365166, 0x000000000001e800),
    ("fft2d/dv", 12978804, 0x95370bd0be4fc7fb),
    ("fft2d/mpi", 16611002, 0x95370bd0be4fc7fb),
    ("pingpong/dv/dwr", 1330924664, 0x0000000000000000),
    ("pingpong/dv/dwr-cached", 690924664, 0x0000000000000000),
    ("pingpong/dv/dma", 230817876, 0x0000000000000000),
    ("pingpong/mpi", 150693356, 0x0000000000000000),
    ("barrier/dv-intrinsic", 1300000, 0x0000000000000000),
    ("barrier/dv-fast", 598775, 0x0000000000000000),
    ("barrier/mpi", 6838090, 0x0000000000000000),
    ("heat/dv", 27482846, 0x295036ebdbb866d4),
    ("heat/mpi/face", 84886688, 0x295036ebdbb866d4),
    ("heat/mpi/face-overlapped", 53078516, 0x295036ebdbb866d4),
    ("heat/mpi/line", 137078504, 0x295036ebdbb866d4),
    ("snap/dv", 114961583, 0x8033bcb2d74383aa),
    ("snap/mpi", 112550812, 0x8033bcb2d74383aa),
    ("vorticity/dv", 226070381, 0xe17a19a9bafa50fb),
    ("vorticity/mpi", 297668788, 0xe17a19a9bafa50fb),
];

/// FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::default();
    words.into_iter().for_each(|w| h.word(w));
    h.finish()
}

fn f64s(fields: &[Vec<f64>]) -> impl Iterator<Item = u64> + '_ {
    fields.iter().flatten().map(|v| v.to_bits())
}

fn c64s(fields: &[Vec<Complex>]) -> impl Iterator<Item = u64> + '_ {
    fields.iter().flatten().flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
}

fn chaos() -> FaultPlan {
    FaultPlan::parse("seed=7,fifodrop=0.02").expect("valid plan")
}

fn actual() -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    let mut row = |name, (elapsed, digest): (u64, u64)| rows.push((name, elapsed, digest));

    let gcfg = GupsConfig { table_per_node: 1 << 10, updates_per_node: 1 << 11, bucket: 512, stream_offset: 0 };
    let gups_row = |r: gups::GupsResult| (r.elapsed, fnv([r.checksum, r.total_updates]));
    row("gups/dv", gups_row(gups::dv::run_spec(gcfg, SimSpec::new(8))));
    row("gups/mpi", gups_row(gups::mpi::run_spec(gcfg, SimSpec::new(8))));
    row("gups/dv/chaos", gups_row(gups::dv::run_spec(gcfg, SimSpec::new(8).faults(chaos()))));

    let bcfg = graph::GraphConfig { scale: 10, edgefactor: 8, seed: 12 };
    let csr = graph::Csr::build(bcfg.vertices(), &graph::kronecker_edges(&bcfg));
    let locals = graph::partition_csr(&csr, graph::VertexPart { nodes: 4 });
    let root = graph::pick_roots(&csr, 1, 3)[0];
    let bfs_row = |r: graph::mpi::BfsRunResult| {
        graph::validate_bfs(&csr, root, &r.parents).expect("valid BFS tree");
        (r.elapsed, fnv(r.parents.iter().map(|&p| p as u64).chain([r.edges_scanned])))
    };
    row("bfs/dv", bfs_row(graph::dv::run_spec(&locals, bcfg.vertices(), root, SimSpec::new(4))));
    row("bfs/mpi", bfs_row(graph::mpi::run_spec(&locals, bcfg.vertices(), root, SimSpec::new(4))));
    row(
        "bfs/dv/chaos",
        bfs_row(graph::dv::run_spec(&locals, bcfg.vertices(), root, SimSpec::new(4).faults(chaos()))),
    );

    // 2^12 splits into a square 64×64 plan, 2^11 into 32×64: the two
    // transposes of the non-square plan have different shapes.
    let fft_row = |r: fft::plan::FftRunResult| {
        assert!(r.max_error < 1e-8, "fft max_error {}", r.max_error);
        (r.elapsed, r.flops)
    };
    row("fft1d/dv/square", fft_row(fft::dv::run_spec(1 << 12, SimSpec::new(4), true)));
    row("fft1d/mpi/square", fft_row(fft::mpi::run_spec(1 << 12, SimSpec::new(4), true)));
    row("fft1d/dv/nonsquare", fft_row(fft::dv::run_spec(1 << 11, SimSpec::new(4), true)));
    row("fft1d/mpi/nonsquare", fft_row(fft::mpi::run_spec(1 << 11, SimSpec::new(4), true)));

    let fft2_row =
        |r: fft::twod::Fft2dResult| (r.elapsed, fnv(c64s(&r.local_out).chain([r.flops])));
    row("fft2d/dv", fft2_row(fft::twod::run_dv(32, SimSpec::new(4))));
    row("fft2d/mpi", fft2_row(fft::twod::run_mpi(32, SimSpec::new(4))));

    // 20 000 words = three pipeline chunks per message.
    let modes = [
        ("pingpong/dv/dwr", SendMode::DirectWrite { cached_headers: false }),
        ("pingpong/dv/dwr-cached", SendMode::DirectWrite { cached_headers: true }),
        ("pingpong/dv/dma", SendMode::Dma { cached_headers: true }),
    ];
    for (name, mode) in modes {
        row(name, (pingpong::dv_pingpong_spec(20_000, 2, mode, SimSpec::new(2)).elapsed, 0));
    }
    row("pingpong/mpi", (pingpong::mpi_pingpong(20_000, 2, SimSpec::new(2)).elapsed, 0));

    for (name, kind) in [
        ("barrier/dv-intrinsic", BarrierKind::DvIntrinsic),
        ("barrier/dv-fast", BarrierKind::DvFast),
        ("barrier/mpi", BarrierKind::Mpi),
    ] {
        row(name, (barrier_latency_spec(kind, SimSpec::new(16), 25), 0));
    }

    let heat_row = |r: heat::mpi::HeatRunResult| {
        (r.elapsed, fnv(f64s(&r.fields).chain([r.last_heat.to_bits()])))
    };
    let hcfg = |halo| HeatConfig { halo, ..HeatConfig::test_small() };
    row("heat/dv", heat_row(heat::dv::run_spec(hcfg(Halo::Line), SimSpec::new(8))));
    for (name, halo) in [
        ("heat/mpi/face", Halo::Face),
        ("heat/mpi/face-overlapped", Halo::FaceOverlapped),
        ("heat/mpi/line", Halo::Line),
    ] {
        row(name, heat_row(heat::mpi::run_spec(hcfg(halo), SimSpec::new(8))));
    }

    let scfg = SnapConfig::test_small();
    let snap_row = |r: snap::mpi::SnapRunResult| (r.elapsed, fnv(f64s(&r.fields)));
    row("snap/dv", snap_row(snap::dv::run_spec(scfg, SimSpec::new(4))));
    row("snap/mpi", snap_row(snap::mpi::run_spec(scfg, SimSpec::new(4))));

    let vcfg = VortConfig::test_small();
    let vort_row =
        |r: vort::VortRunResult| (r.elapsed, fnv(c64s(&r.omega_hat).chain([r.fft2d_count])));
    row("vorticity/dv", vort_row(vort::run_dv(vcfg, SimSpec::new(4))));
    row("vorticity/mpi", vort_row(vort::run_mpi(vcfg, SimSpec::new(4))));

    rows
}

#[test]
fn virtual_time_and_results_match_the_golden_table() {
    let actual = actual();
    if actual != GOLDEN {
        let table: String =
            actual.iter().map(|(n, e, d)| format!("    ({n:?}, {e}, {d:#018x}),\n")).collect();
        let moved: Vec<&str> = actual
            .iter()
            .filter(|row| !GOLDEN.contains(row))
            .map(|row| row.0)
            .collect();
        panic!("rows that differ from GOLDEN: {moved:?}\nactual:\n{table}");
    }
}
