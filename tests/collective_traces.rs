//! Every mini-mpi collective and blocking point-to-point call, pinned by
//! its trace: `(elapsed, OrderAudit trace hash, FNV-1a of the tracer's
//! spans and messages, FNV-1a of the metrics snapshot)` at 2, 3, 7 and 32
//! ranks, plus a digest of every payload each rank received.
//!
//! The ranks pause for seeded delays between calls, so every call starts
//! skewed, and a seeded half of the calls begin with the rank's waker left
//! in a shared wait set that other ranks fire: a rank parked inside a call
//! is then resumed early and must re-check and re-arm exactly as before.
//! Alltoall runs with empty, ragged eager and rendezvous blocks.
//!
//! The pins were captured before collectives moved into kernel steps; a
//! change to how a call is executed must leave every one of them unedited.

use std::sync::Arc;

use datavortex::core::fnv::Fnv1a;
use datavortex::core::rng::SplitMix64;
use datavortex::core::spec::SimSpec;
use datavortex::core::time::{ns, Time};
use datavortex::core::trace::Tracer;
use datavortex::mpi::{Comm, MpiCluster, Payload, ReduceOp};
use datavortex::sim::{SimCtx, WaitSet};

/// 12 320 bytes: just past the 12 KiB eager limit, so rendezvous.
const RNDV_WORDS: usize = 1540;

fn words(seed: u64, n: usize) -> Payload {
    Payload::U64((0..n as u64).map(|i| seed.wrapping_mul(0x9e37_79b9) ^ i).collect())
}

/// FNV-1a over a payload's kind, length and contents.
fn fold(h: &mut Fnv1a, p: &Payload) {
    match p {
        Payload::Empty => h.word(0),
        Payload::U64(v) => {
            h.word(1);
            h.word(v.len() as u64);
            v.iter().for_each(|&w| h.word(w));
        }
        Payload::F64(v) | Payload::C64(v) => {
            h.word(2);
            h.word(v.len() as u64);
            v.iter().for_each(|w| h.word(w.to_bits()));
        }
    }
}

/// One rank's program; returns a digest of everything it received.
fn program(comm: &Comm, ctx: &SimCtx, signal: &WaitSet) -> u64 {
    let n = comm.size();
    let me = comm.rank();
    let mut rng = SplitMix64::new(0xc011_ec71 ^ me as u64);
    let mut h = Fnv1a::default();
    // Before each call: maybe leave this rank's waker in the wait set, maybe
    // fire everybody's, then pause for a seeded 0, 0.5, 1 or 1.5 µs.
    let mut between = |ctx: &SimCtx| {
        if rng.next_below(2) == 0 {
            signal.register(ctx.waker());
        }
        if rng.next_below(3) == 0 {
            signal.wake_all_ctx(ctx);
        }
        ctx.delay(ns(rng.next_below(4) * 500));
    };

    between(ctx);
    comm.barrier(ctx);

    between(ctx);
    let root = 1 % n;
    let data = (me == root).then(|| words(7, 40));
    fold(&mut h, &comm.bcast(ctx, root, data));

    between(ctx);
    let data = (me == 0).then(|| words(8, RNDV_WORDS));
    fold(&mut h, &comm.bcast(ctx, 0, data));

    between(ctx);
    let reduced = comm.reduce(ctx, n - 1, ReduceOp::Sum, Payload::U64(vec![me as u64, 1]));
    if let Some(p) = &reduced {
        fold(&mut h, p);
    }

    between(ctx);
    let max = comm.allreduce(ctx, ReduceOp::Max, Payload::F64(vec![me as f64, -(me as f64)]));
    fold(&mut h, &max);

    between(ctx);
    if let Some(all) = comm.gather(ctx, 0, words(me as u64, 1 + me % 3)) {
        all.iter().for_each(|p| fold(&mut h, p));
    }

    between(ctx);
    let root = n / 2;
    let data = (me == root).then(|| (0..n).map(|r| words(r as u64, r % 4)).collect());
    fold(&mut h, &comm.scatter(ctx, root, data));

    between(ctx);
    comm.allgather(ctx, words(me as u64, 3)).iter().for_each(|p| fold(&mut h, p));

    between(ctx);
    comm.alltoall(ctx, (0..n).map(|_| Payload::Empty).collect()).iter().for_each(|p| fold(&mut h, p));

    between(ctx);
    let ragged = (0..n).map(|d| words((me * n + d) as u64, (me + d) % 7)).collect();
    comm.alltoall(ctx, ragged).iter().for_each(|p| fold(&mut h, p));

    between(ctx);
    let big = (0..n).map(|d| words((me * n + d) as u64, RNDV_WORDS)).collect();
    comm.alltoall(ctx, big).iter().for_each(|p| fold(&mut h, p));

    between(ctx);
    let (right, left) = ((me + 1) % n, (me + n - 1) % n);
    let env = comm.sendrecv(ctx, right, 3, words(me as u64, 5), left, 3);
    fold(&mut h, &env.payload);

    between(ctx);
    let size = if me.is_multiple_of(2) { RNDV_WORDS } else { 9 };
    let req = comm.isend(ctx, right, 4, words(me as u64, size));
    between(ctx);
    let env = comm.recv(ctx, Some(left), Some(4));
    fold(&mut h, &env.payload);
    between(ctx);
    comm.wait(ctx, req);

    between(ctx);
    comm.barrier(ctx);
    h.finish()
}

/// `(elapsed, trace hash, tracer digest, metrics digest, result digest)`
/// of one run.
fn traces(ranks: usize) -> (Time, u64, u64, u64, u64) {
    let tracer = Arc::new(Tracer::enabled());
    let spec = SimSpec::new(ranks).instrumented().tracer(Arc::clone(&tracer));
    let metrics = Arc::clone(&spec.metrics);
    let signal = WaitSet::new();
    let report = MpiCluster::from_spec(spec).run(move |comm, ctx| program(comm, ctx, &signal));
    assert_eq!(report.result.len(), ranks);
    let mut t = Fnv1a::default();
    t.bytes(tracer.dump().as_bytes());
    let mut r = Fnv1a::default();
    report.result.iter().for_each(|&d| r.word(d));
    (report.elapsed, report.trace_hash, t.finish(), metrics.snapshot().fnv_hash(), r.finish())
}

const RANKS: [usize; 4] = [2, 3, 7, 32];

/// Captured from the thread-run point-to-point and collective code.
const PINS: [(Time, u64, u64, u64, u64); 4] = [
    (0x3124a2d, 0x41aafe5b1df56f37, 0xba41341721691d2a, 0x8a16bebe169c6128, 0xc3bc87288bd0ccf0),
    (0x47f962e, 0xc6c0bdf8b214df61, 0x5bfa84a709e59f11, 0x7a85a7492537cdda, 0xaf366996fba58b57),
    (0x91dc49a, 0xcee1b3f176470d21, 0x4bde3776505d49e5, 0x06ce70cae675b0fb, 0xf579add2ff617bde),
    (0x2159ac31, 0x687b76d8ffe4b229, 0xc902a048b65adf5a, 0x7089d6fcfd65d784, 0xab874df07d4f87b0),
];

#[test]
fn every_collective_keeps_its_pinned_trace() {
    let actual: Vec<_> = RANKS.iter().map(|&n| traces(n)).collect();
    let moved: Vec<usize> =
        RANKS.iter().zip(&actual).zip(&PINS).filter(|((_, a), p)| a != p).map(|((n, _), _)| *n).collect();
    assert!(moved.is_empty(), "traces moved at {moved:?} ranks; actual table:\n{actual:#x?}");
}
