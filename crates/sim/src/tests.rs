//! Engine tests that need the kernel's commit log: the hop and kernel-run
//! call order-exactness properties. Tests of the public API are in `tests/`.

use std::sync::Arc;

use dv_core::sync::Mutex;

use dv_core::time::ns;

use crate::{JoinSlot, Port, Proc, Sim, WaitSet};

/// One step of a random SPMD program (see `hops_are_order_exact`).
#[derive(Clone, Copy)]
enum Op {
    Delay(u64),
    /// `delay(a); delay(b)` in the split run, `delay2(a, b)` in the fused.
    Pair(u64, u64),
    Send { dst: usize, after: u64, word: u64 },
    RecvDeadline(u64),
    Signal,
    /// Register with the shared wait set, arm a timeout, park.
    TimedWait(u64),
}

type Commits = Vec<(u64, u64, u8)>;

/// What a process saw after a step: `now()`, the word it received (if the
/// step was a receive), and its ticket from a global counter — the order in
/// which the processes got to run, which is what same-time ties decide.
type Seen = (u64, u64, u64);

/// How `run_programs` executes each program.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Mode {
    /// On the process's thread, `Pair` as two `delay`s.
    Split,
    /// On the process's thread, `Pair` as one `delay2`.
    Fused,
    /// As one kernel-run call ([`kernel_script`]), `Pair` as `delay2`'s
    /// delay.
    Kernel,
    /// [`kernel_script`] run on the process's thread by
    /// [`SimCtx::block_on`](crate::SimCtx::block_on).
    BlockOn,
}

/// What a run of `run_programs` returns: what every process saw after each
/// step, the kernel's commit log, the trace hash and the scheduler stats.
type Run = (Vec<Vec<Seen>>, Commits, u64, crate::SchedStats);

/// Run `programs` (one per process) in `mode`.
fn run_programs(programs: &[Vec<Op>], mode: Mode) -> Run {
    let sim = Sim::new();
    let shared = Arc::clone(&sim.shared);
    let ports: Vec<Port<u64>> = programs.iter().map(|_| Port::new()).collect();
    let signal = WaitSet::new();
    let tickets = Arc::new(Mutex::new(0u64));
    let seen: Vec<JoinSlot<Vec<Seen>>> = programs.iter().map(|_| JoinSlot::new()).collect();
    for (me, program) in programs.iter().enumerate() {
        let (program, ports, signal, tickets, out) =
            (program.clone(), ports.clone(), signal.clone(), tickets.clone(), seen[me].clone());
        sim.spawn(format!("p{me}"), move |ctx| {
            let script =
                || kernel_script(ctx.proc(), me, program.clone(), ports.clone(), signal.clone(), tickets.clone());
            match mode {
                Mode::Kernel => return out.put(ctx.wait_in_kernel(script())),
                Mode::BlockOn => return out.put(ctx.block_on(script())),
                Mode::Split | Mode::Fused => {}
            }
            let mut log = Vec::new();
            for op in program {
                let mut word = 0;
                match op {
                    Op::Delay(d) => ctx.delay(d),
                    Op::Pair(a, b) if mode == Mode::Fused => ctx.delay2(a, b),
                    Op::Pair(a, b) => {
                        ctx.delay(a);
                        ctx.delay(b);
                    }
                    Op::Send { dst, after, word } => ports[dst].send_delayed(ctx, after, word),
                    Op::RecvDeadline(d) => {
                        let deadline = ctx.now() + d;
                        word = ports[me].recv_deadline(ctx, deadline).map_or(u64::MAX, |m| m.1);
                    }
                    Op::Signal => signal.wake_all_ctx(ctx),
                    Op::TimedWait(d) => {
                        signal.register(ctx.waker());
                        ctx.with_kernel(|k| {
                            let w = k.waker_for(ctx.pid());
                            k.wake_at(k.now() + d, w);
                        });
                        ctx.park();
                    }
                }
                let mut next = tickets.lock();
                *next += 1;
                log.push((ctx.now(), word, *next));
            }
            out.put(log);
        });
    }
    let (_, hash) = sim.run_hashed();
    let (commits, stats) = {
        let k = shared.kernel.lock();
        (k.commits.clone(), k.sched_stats())
    };
    (seen.iter().map(|s| s.take().expect("process finished")).collect(), commits, hash, stats)
}

/// A program run as one blocking call, in the kernel or on the thread:
/// between two resumes it does what the `Fused` thread run does between
/// the same two parks.
async fn kernel_script(
    p: Proc,
    me: usize,
    program: Vec<Op>,
    ports: Vec<Port<u64>>,
    signal: WaitSet,
    tickets: Arc<Mutex<u64>>,
) -> Vec<Seen> {
    let mut log = Vec::new();
    for op in program {
        let word = match op {
            Op::Delay(d) => {
                p.delay2(d, 0).await;
                0
            }
            Op::Pair(a, b) => {
                p.delay2(a, b).await;
                0
            }
            Op::Send { dst, after, word } => {
                p.with(|k| {
                    let at = k.now() + after;
                    ports[dst].deliver_at(k, at, word);
                });
                0
            }
            Op::RecvDeadline(d) => {
                let (deadline, port) = (p.now() + d, &ports[me]);
                let got = p.turn(Some(deadline), || port.try_recv(), |w| port.register(w)).await;
                got.map_or(u64::MAX, |(_, word)| word)
            }
            Op::Signal => {
                p.with(|k| signal.wake_all(k));
                0
            }
            // The thread's bare register-arm-park, not a turn: a zero
            // timeout still parks.
            Op::TimedWait(d) => {
                p.with(|k| {
                    let w = k.waker_for(p.pid());
                    signal.register(w);
                    k.wake_at(k.now() + d, w);
                });
                p.resumed().await;
                0
            }
        };
        let now = p.now();
        let mut next = tickets.lock();
        *next += 1;
        log.push((now, word, *next));
    }
    log
}

/// Seeded random programs for the order-exactness tests: delays drawn from
/// four values, so same-picosecond ties are the norm.
fn random_programs(seed: u64) -> Vec<Vec<Op>> {
    let mut rng = dv_core::rng::SplitMix64::new(0x686f70 ^ seed);
    let procs = 2 + (seed % 5) as usize;
    let mut tick = || ns(10 * rng.next_below(4));
    let mut pick = dv_core::rng::SplitMix64::new(seed);
    (0..procs)
        .map(|_| {
            (0..40)
                .map(|i| match pick.next_below(8) {
                    0 => Op::Delay(tick()),
                    1..=3 => Op::Pair(tick(), tick()),
                    4 => Op::Send { dst: pick.next_below(procs as u64) as usize, after: tick(), word: i },
                    5 => Op::RecvDeadline(tick()),
                    6 => Op::Signal,
                    _ => Op::TimedWait(tick()),
                })
                .collect()
        })
        .collect()
}

/// The hop contract: `delay2(a, b)` is `delay(a); delay(b)` minus one
/// resume and *nothing else*. Over seeded random programs whose delays are
/// drawn from four values (so same-picosecond ties are the norm), both
/// variants give every process the same `now()` after every step and the
/// same turn among the processes running at that instant, and the kernel
/// commits the same `(time, seq)` list — the hop sits exactly where
/// the intermediate resume sat, so every other event keeps its sequence
/// number. The fused runs, all 24 seeds folded into one digest, are pinned
/// to what the frozen reference scheduler committed.
#[test]
fn hops_are_order_exact() {
    let mut digest = dv_core::fnv::Fnv1a::default();
    for seed in 0..24u64 {
        let programs = random_programs(seed);
        let hops = programs
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Pair(a, b) if *a > 0 && *b > 0))
            .count();

        let (split_seen, split, ..) = run_programs(&programs, Mode::Split);
        let (fused_seen, fused, ..) = run_programs(&programs, Mode::Fused);
        assert_eq!(fused_seen, split_seen, "seed {seed}: a process saw a different clock or turn");
        assert_eq!(fused.len(), split.len(), "seed {seed}");
        for (f, s) in fused.iter().zip(&split) {
            assert_eq!((f.0, f.1), (s.0, s.1), "seed {seed}: (time, seq) moved");
            // A hop replaces a resume; every other event keeps its kind.
            assert!(f.2 == s.2 || (f.2, s.2) == (b'h', b'r'), "seed {seed}: {f:?} vs {s:?}");
        }
        assert_eq!(fused.iter().filter(|c| c.2 == b'h').count(), hops, "seed {seed}");
        assert!(split.iter().all(|c| c.2 != b'h'));

        for log in &fused_seen {
            digest.word(log.len() as u64);
            log.iter()
                .flat_map(|&(now, word, ticket)| [now, word, ticket])
                .for_each(|w| digest.word(w));
        }
        digest.word(fused.len() as u64);
        fused.iter().flat_map(|&(t, seq, kind)| [t, seq, kind.into()]).for_each(|w| digest.word(w));
    }
    assert_eq!(digest.finish(), 0xfefb_6e1d_a700_aae9, "actual: {:#018x}", digest.finish());
}

/// The kernel-step contract: a wait that a process leaves to
/// [`SimCtx::wait_in_kernel`](crate::SimCtx::wait_in_kernel) commits
/// exactly what the same wait run on its thread commits. Over the seeded
/// programs of `hops_are_order_exact`, each process run as one kernel-run
/// call sees the same clock and the same turn after every step, and the
/// kernel commits the same `(time, seq, kind)` list with the same trace
/// hash and the same resume counts, as the thread run — while each thread
/// runs at most twice (its start, and the call's end). The same future
/// run on the thread by [`SimCtx::block_on`](crate::SimCtx::block_on)
/// commits the same too, with every resume reaching the thread.
#[test]
fn kernel_steps_are_order_exact() {
    let counts = |s: crate::SchedStats| (s.resumes, s.calls, s.stale_wakeups, s.processes);
    for seed in 0..24u64 {
        let programs = random_programs(seed);
        let procs = programs.len() as u64;
        let (thread_seen, thread, thread_hash, thread_stats) = run_programs(&programs, Mode::Fused);
        assert_eq!(thread_stats.thread_resumes, thread_stats.resumes, "seed {seed}");
        for mode in [Mode::Kernel, Mode::BlockOn] {
            let (seen, commits, hash, stats) = run_programs(&programs, mode);
            assert_eq!(seen, thread_seen, "seed {seed}, {mode:?}: a process saw a different clock or turn");
            assert_eq!(commits, thread, "seed {seed}, {mode:?}: the commit log moved");
            assert_eq!(hash, thread_hash, "seed {seed}, {mode:?}");
            assert_eq!(counts(stats), counts(thread_stats), "seed {seed}, {mode:?}");
            if mode == Mode::Kernel {
                assert!(stats.thread_resumes <= 2 * procs, "seed {seed}: {stats:?}");
            } else {
                assert_eq!(stats.thread_resumes, stats.resumes, "seed {seed}: {stats:?}");
            }
        }
    }
}

