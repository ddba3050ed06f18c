//! The posted-receive path, pinned from outside: what a message costs the
//! scheduler, who gets resumed by an arrival, and *when* every receive
//! variant returns.
//!
//! The virtual times in `TIMES` were captured from the commit before the
//! posted-receive rewrite (drain-and-rescan receive, four resumes per
//! eager message); the rewrite removed resumes, not picoseconds, so they
//! must never move unless the MPI cost model changes on purpose.

use dv_core::spec::{RunReport, SimSpec};
use dv_core::time::{us, Time};
use dv_sim::SimCtx;
use mini_mpi::{Comm, MpiCluster, Payload};

/// 512 KiB: far above the eager limit, so it takes the rendezvous path.
const RNDV_WORDS: usize = 64 * 1024;

fn run<T: Send + 'static>(
    nodes: usize,
    body: impl Fn(&Comm, &SimCtx) -> T + Send + Sync + 'static,
) -> RunReport<Vec<T>> {
    MpiCluster::from_spec(SimSpec::new(nodes).instrumented()).run(body)
}

fn words(n: usize) -> Payload {
    Payload::U64((0..n as u64).collect())
}

/// `(sim.sched.resumes, mpi.msgs)` of one instrumented run.
fn resumes_and_msgs<T>(r: &RunReport<T>) -> (u64, u64) {
    (r.snapshot.counter_total("sim.sched.resumes"), r.snapshot.counter_total("mpi.msgs"))
}

/// `(resumes, messages)` a longer run adds to a shorter one, so start-up
/// resumes cancel (the benchmark's `events_per_msg`, in miniature).
fn added(lo: (u64, u64), hi: (u64, u64)) -> (u64, u64) {
    (hi.0 - lo.0, hi.1 - lo.1)
}

#[test]
fn alltoall_commits_two_resumes_per_message() {
    let alltoalls = |calls: usize| {
        resumes_and_msgs(&run(32, move |comm, ctx| {
            for _ in 0..calls {
                let blocks = (0..comm.size()).map(|_| words(128)).collect();
                comm.alltoall(ctx, blocks);
            }
        }))
    };
    let (resumes, msgs) = added(alltoalls(1), alltoalls(3));
    assert_eq!(msgs, 2 * 32 * 31);
    // One for the sender (overhead + bounce copy, fused by a hop), one for
    // the receiver (arrival + receive overhead, fused by a hop).
    assert_eq!(resumes, 2 * msgs);
}

/// The resumes above mostly run as kernel steps: a collective hands each
/// rank's thread the run token at most once, however many peers it
/// exchanges with. Counted with the host-side `thread_resumes`, which no
/// artifact publishes; the per-peer handoffs of a thread-run alltoall
/// (two per message) fail this test.
#[test]
fn an_alltoall_hands_each_rank_thread_the_token_once() {
    let thread_resumes = |calls: usize| {
        let r = run(32, move |comm, ctx| {
            for _ in 0..calls {
                let blocks = (0..comm.size()).map(|_| words(128)).collect();
                comm.alltoall(ctx, blocks);
            }
            // Each rank reads last thing; the last reader sees every rank's
            // final resume.
            ctx.with_kernel(|k| k.sched_stats().thread_resumes)
        });
        r.result.into_iter().max().expect("32 ranks")
    };
    let added = thread_resumes(3) - thread_resumes(1);
    assert!(added <= 2 * 32, "{added} thread resumes for 2 x 32 rank-collectives");
}

#[test]
fn rendezvous_commits_three_resumes_per_message() {
    let pingpongs = |rounds: usize| {
        resumes_and_msgs(&run(2, move |comm, ctx| {
            let peer = 1 - comm.rank();
            for _ in 0..rounds {
                if comm.rank() == 0 {
                    comm.send(ctx, peer, 1, words(RNDV_WORDS));
                    comm.recv_from(ctx, peer, 1);
                } else {
                    comm.recv_from(ctx, peer, 1);
                    comm.send(ctx, peer, 1, words(RNDV_WORDS));
                }
            }
        }))
    };
    let (resumes, msgs) = added(pingpongs(1), pingpongs(4));
    assert_eq!(msgs, 6);
    // Sender: send overhead, then the completion wake-up. Receiver: one
    // resume when the data has landed — the RTS and the CTS are kernel work.
    assert_eq!(resumes, 3 * msgs);
}

#[test]
fn non_matching_arrivals_do_not_resume_a_parked_receiver() {
    const STRAY_TAG: u64 = 5;
    const WANTED_TAG: u64 = 99;
    let r = run(6, |comm, ctx| match comm.rank() {
        0 => {
            // Parked on (1, WANTED_TAG) while four strays arrive.
            let wanted = comm.recv_from(ctx, 1, WANTED_TAG);
            assert_eq!(wanted.src, 1);
            // The strays waited in the unexpected queue, in arrival order.
            (0..4).map(|_| comm.recv(ctx, None, Some(STRAY_TAG)).src).collect()
        }
        1 => {
            ctx.delay(us(100));
            comm.send(ctx, 0, WANTED_TAG, words(4));
            Vec::new()
        }
        // Ranks 5, 4, 3, 2 send at 10, 20, 30, 40 µs.
        rank => {
            ctx.delay(us(10 * (6 - rank) as u64));
            comm.send(ctx, 0, STRAY_TAG, words(4));
            Vec::new()
        }
    });
    assert_eq!(r.result[0], vec![5, 4, 3, 2]);
    // 6 process starts; 5 senders x (delay + send); rank 0: one resume for
    // the parked receive, one per stray taken from the unexpected queue.
    // Not one resume for the four arrivals it was not waiting for.
    assert_eq!(resumes_and_msgs(&r), (6 + 5 * 2 + 1 + 4, 5));
}

/// A posted receive re-checks like every blocking primitive: a waker the
/// process left in a wait set may fire before the arrival, or between the
/// arrival and the end of the receive overhead, and the receive still
/// returns when it would have (scenario "eager, recv before message").
#[test]
fn a_posted_receive_tolerates_spurious_wakeups() {
    const UNDISTURBED: Time = 6_742_457;
    for early in [us(2), 200_000] {
        let signal = dv_sim::WaitSet::new();
        let r = run(3, move |comm, ctx| {
            match comm.rank() {
                0 => {
                    ctx.delay(us(5));
                    comm.send(ctx, 1, 7, words(16));
                }
                1 => {
                    signal.register(ctx.waker());
                    assert_eq!(comm.recv_from(ctx, 0, 7).payload, words(16));
                }
                _ => {
                    ctx.delay(UNDISTURBED - early);
                    signal.wake_all_ctx(ctx);
                }
            }
            ctx.now()
        });
        assert_eq!(r.result[1], UNDISTURBED, "woken {early} ps early");
    }
}

/// Per-rank `ctx.now()` at the end of each scenario, in picoseconds.
type Scenario = (&'static str, fn() -> Vec<Time>);

const SCENARIOS: &[Scenario] = &[
    ("eager, message before recv", || {
        run(2, |comm, ctx| {
            if comm.rank() == 0 {
                comm.send(ctx, 1, 7, words(16));
            } else {
                ctx.delay(us(50));
                assert_eq!(comm.recv_from(ctx, 0, 7).payload, words(16));
            }
            ctx.now()
        })
        .result
    }),
    ("eager, recv before message", || {
        run(2, |comm, ctx| {
            if comm.rank() == 0 {
                ctx.delay(us(5));
                comm.send(ctx, 1, 7, words(16));
            } else {
                assert_eq!(comm.recv_from(ctx, 0, 7).payload, words(16));
            }
            ctx.now()
        })
        .result
    }),
    ("wildcard gather", || {
        run(5, |comm, ctx| {
            ctx.delay(us(comm.rank() as u64));
            let got = comm.gather(ctx, 0, words(comm.rank() + 1));
            if let Some(blocks) = got {
                assert!(blocks.iter().enumerate().all(|(r, b)| *b == words(r + 1)));
            }
            ctx.now()
        })
        .result
    }),
    ("rendezvous, RTS arrives while parked", || {
        run(2, |comm, ctx| {
            if comm.rank() == 0 {
                ctx.delay(us(5));
                comm.send(ctx, 1, 7, words(RNDV_WORDS));
            } else {
                assert_eq!(comm.recv_from(ctx, 0, 7).payload, words(RNDV_WORDS));
            }
            ctx.now()
        })
        .result
    }),
    ("rendezvous, RTS found unexpected", || {
        run(2, |comm, ctx| {
            if comm.rank() == 0 {
                comm.send(ctx, 1, 7, words(RNDV_WORDS));
            } else {
                ctx.delay(us(50));
                assert_eq!(comm.recv(ctx, None, None).payload, words(RNDV_WORDS));
            }
            ctx.now()
        })
        .result
    }),
    ("try_recv: miss, skip an RTS, hit", || {
        run(3, |comm, ctx| {
            match comm.rank() {
                0 => comm.send(ctx, 2, 7, words(16)),
                1 => {
                    let req = comm.isend(ctx, 2, 7, words(RNDV_WORDS));
                    ctx.delay(us(60));
                    assert!(!req.is_done(ctx), "nobody received the rendezvous message yet");
                    let late = ctx.now();
                    comm.wait(ctx, req);
                    assert!(ctx.now() > late);
                }
                _ => {
                    assert!(comm.try_recv(ctx, None, Some(7)).is_none(), "nothing arrived yet");
                    assert_eq!(ctx.now(), 0, "a miss costs no virtual time");
                    ctx.delay(us(50));
                    // Rank 1's RTS is there too, but try_recv is eager-only.
                    assert!(comm.try_recv(ctx, Some(1), Some(7)).is_none());
                    assert_eq!(comm.try_recv(ctx, None, Some(7)).map(|e| e.src), Some(0));
                    assert!(comm.try_recv(ctx, None, Some(7)).is_none());
                    ctx.delay(us(50));
                    assert_eq!(comm.recv_from(ctx, 1, 7).payload, words(RNDV_WORDS));
                }
            }
            ctx.now()
        })
        .result
    }),
];

/// Captured from the parent commit (see the module docs).
const TIMES: &[&[Time]] = &[
    &[564_222, 50_450_000],
    &[5_564_222, 6_742_457],
    &[5_719_738, 1_551_778, 2_552_667, 3_553_556, 4_554_444],
    &[113_762_909, 114_212_909],
    &[157_503_497, 157_953_497],
    &[564_222, 207_953_497, 208_403_497],
];

#[test]
fn every_receive_variant_returns_when_it_did_before_the_rewrite() {
    let actual: Vec<Vec<Time>> = SCENARIOS.iter().map(|(_, run)| run()).collect();
    let moved: Vec<&str> = SCENARIOS
        .iter()
        .zip(&actual)
        .zip(TIMES)
        .filter(|((_, got), want)| got.as_slice() != **want)
        .map(|(((name, _), _), _)| *name)
        .collect();
    assert!(
        moved.is_empty() && actual.len() == TIMES.len(),
        "virtual time moved in {moved:?}; actual table:\n{actual:#?}"
    );
}
