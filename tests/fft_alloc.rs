//! Row FFTs run through one set of twiddle tables: the tables are the
//! only thing `FftPlan::row_ffts` allocates, however many rows it is
//! handed. A transpose round trip allocates no second payload, and the
//! DV engine's allocations grow with its chunks and peers, not with its
//! columns. The per-thread counting allocator of `tests/common` wraps the
//! system one.

mod common;

use common::{allocations_in, largest_allocation_in};
use datavortex::api::DvCluster;
use datavortex::core::config::ComputeParams;
use datavortex::core::spec::SimSpec;
use datavortex::kernels::fft::plan::FftPlan;
use datavortex::kernels::fft::Complex;
use datavortex::kernels::transpose::{DvTranspose, MpiTranspose, TransposeEngine};
use datavortex::mpi::MpiCluster;
use datavortex::sim::SimCtx;

#[test]
fn row_ffts_allocate_per_call_not_per_row() {
    let len = 256;
    let mut data: Vec<Complex> =
        (0..64 * len).map(|i| Complex::new(i as f64, -(i as f64))).collect();
    let one_row = allocations_in(|| {
        FftPlan::row_ffts(&mut data[..len], len);
    });
    let all_rows = allocations_in(|| {
        FftPlan::row_ffts(&mut data, len);
    });
    assert!((1..=2).contains(&one_row), "one row allocated {one_row} times");
    assert_eq!(all_rows, one_row, "64 rows allocated more than one row does");
}

const M: usize = 128;
const P: usize = 4;

/// What each node's thread allocates in a forth-and-back transpose of an
/// `M`×`M` matrix once its input exists: the largest single allocation in
/// bytes, and how many it makes.
fn round_trip_allocations(dv_engine: bool) -> Vec<(usize, u64)> {
    fn round_trip(eng: &mut impl TransposeEngine, ctx: &SimCtx) -> (usize, u64) {
        let first = eng.node() * M * M / P;
        let input = |i: usize| Complex::new((first + i) as f64, -(i as f64));
        let local: Vec<Complex> = (0..M * M / P).map(input).collect();
        let mut back = Vec::new();
        let mut count = 0;
        let largest = largest_allocation_in(|| {
            count = allocations_in(|| {
                let there = eng.transpose(ctx, local, M, M);
                back = eng.transpose(ctx, there, M, M);
            });
        });
        assert!(back.iter().copied().eq((0..M * M / P).map(input)), "round trip changed the rows");
        (largest, count)
    }
    let compute = ComputeParams::default();
    if dv_engine {
        DvCluster::from_spec(SimSpec::new(P))
            .run(move |dv, ctx| {
                round_trip(&mut DvTranspose::new(dv, ctx, compute.clone(), M * M / P), ctx)
            })
            .result
    } else {
        MpiCluster::from_spec(SimSpec::new(P))
            .run(move |comm, ctx| round_trip(&mut MpiTranspose::new(comm, compute.clone()), ctx))
            .result
    }
}

#[test]
fn a_transpose_round_trip_allocates_no_second_payload() {
    // The transposes consume and return their input: on either engine the
    // largest thing a node allocates is a message block or a column stash
    // (1/P of its rows), never a second copy of them. (The by-reference
    // engines allocated exactly `payload` bytes for their output.) 64 KiB
    // of rows per node: above a 32 KiB `DvMemory` page, which a node's
    // first delivery into a peer does allocate.
    let payload = M * M / P * size_of::<Complex>();
    for dv_engine in [true, false] {
        let largest = round_trip_allocations(dv_engine).into_iter().map(|(l, _)| l).max();
        let largest = largest.expect("P nodes ran");
        assert!(largest < payload, "dv={dv_engine}: {largest} B allocated for {payload} B of rows");
    }
}

#[test]
fn a_dv_round_trip_allocates_per_chunk_and_peer_not_per_column() {
    // `DvTranspose` ships each of its 4 pipeline chunks as one block per
    // peer. Its allocations — those blocks, their batch and delivery
    // bookkeeping, the chunk list and the own-column stash — stay within
    // 6 per transpose, chunk and peer: 144 here (105–120 measured), where
    // one block per column and peer made 277–288.
    const CHUNKS: u64 = 4;
    let bound = 2 * CHUNKS * (P as u64 - 1) * 6;
    for (node, (_, count)) in round_trip_allocations(true).into_iter().enumerate() {
        assert!(count <= bound, "node {node}: {count} allocations in a round trip, bound {bound}");
    }
}
