//! Heap allocations per run, pinned exactly: DV and MPI GUPS, DV and MPI
//! BFS at small test sizes, and an MPI FFT whose alltoall blocks take the
//! rendezvous path, counted over the whole process by a global
//! atomic counter — kernel-run calls and delivery events allocate on
//! whichever thread dispatches, so `tests/common`'s per-thread counter
//! would miss them. A binary with `harness = false`: no libtest thread
//! allocates inside a window, and the runs always go in this order, so
//! process-wide first-use allocations land in the same rows (the FFT row
//! is last, so it moves none of the others).
//!
//! The counts are exact, not bounds. Debug builds pin their own column,
//! because the lock-order audit of `dv_core::sync` allocates there. A
//! change that moves a count re-pins it here, downward only; one that
//! raises a count has added allocations to the simulated path and must
//! say why.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use datavortex::core::spec::SimSpec;
use datavortex::kernels::fft;
use datavortex::kernels::graph::{self, GraphConfig, VertexPart};
use datavortex::kernels::gups::{self, GupsConfig};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the System allocator plus one atomic
// increment; all GlobalAlloc contract obligations are System's own.
// `realloc` is the trait's default (alloc + copy + dealloc), so growing a
// vector counts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: layout is forwarded unchanged to the System allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr/layout came from the matching System.alloc above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const NODES: usize = 4;

const GUPS: GupsConfig =
    GupsConfig { table_per_node: 1 << 9, updates_per_node: 1 << 10, bucket: 256, stream_offset: 0 };

const GRAPH: GraphConfig = GraphConfig { scale: 9, edgefactor: 8, seed: 29 };

/// FFT points: at 4 nodes each alltoall block is 2^16 / 16 complex points
/// = 64 KiB, past the 12 KiB eager limit, so every exchange is a
/// rendezvous send (24 per run).
const FFT_POINTS: usize = 1 << 16;

/// `(run, debug build, release build)`: allocations of one run.
const PINS: [(&str, u64, u64); 5] = [
    ("DV GUPS", 363, 358),
    ("MPI GUPS", 468, 464),
    ("DV BFS", 769, 765),
    ("MPI BFS", 509, 505),
    ("MPI FFT", 145, 141),
];

/// Allocations made by every thread of the process inside `window`.
fn allocations_in(window: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    window();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[expect(clippy::print_stdout, reason = "a harness-less test binary reports its table on stdout")]
fn main() -> ExitCode {
    let edges = graph::kronecker_edges(&GRAPH);
    let csr = graph::Csr::build(GRAPH.vertices(), &edges);
    let locals = graph::partition_csr(&csr, VertexPart { nodes: NODES });
    let root = graph::pick_roots(&csr, 1, 3)[0];
    let bfs_ok = |parents: &[i64]| graph::validate_bfs(&csr, root, parents).expect("invalid BFS tree");

    let mut results = Vec::new();
    let mut parents = Vec::new();
    let mut fft_flops = 0;
    let actual = [
        allocations_in(|| results.push(gups::dv::run_spec(GUPS, SimSpec::new(NODES)).checksum)),
        allocations_in(|| results.push(gups::mpi::run_spec(GUPS, SimSpec::new(NODES)).checksum)),
        allocations_in(|| parents.push(graph::dv::run_spec(&locals, GRAPH.vertices(), root, SimSpec::new(NODES)).parents)),
        allocations_in(|| parents.push(graph::mpi::run_spec(&locals, GRAPH.vertices(), root, SimSpec::new(NODES)).parents)),
        allocations_in(|| fft_flops = fft::mpi::run_spec(FFT_POINTS, SimSpec::new(NODES), false).flops),
    ];
    assert_eq!(results[0], results[1], "DV and MPI GUPS disagree");
    parents.iter().for_each(|p| bfs_ok(p));
    assert!(fft_flops > 0, "the FFT ran");

    let debug = cfg!(debug_assertions);
    let mut moved = 0;
    for ((run, in_debug, in_release), got) in PINS.iter().zip(actual) {
        let pin = if debug { *in_debug } else { *in_release };
        let mark = if got == pin { "" } else { "  <- moved" };
        moved += usize::from(got != pin);
        println!("{run:>8}: {got} allocations (pinned {pin}){mark}");
    }
    if moved > 0 {
        println!("{moved} allocation pin(s) moved ({} build)", if debug { "debug" } else { "release" });
        return ExitCode::FAILURE;
    }
    println!("event_alloc: {} pins hold", PINS.len());
    ExitCode::SUCCESS
}
