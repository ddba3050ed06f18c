//! Engine tests that need the kernel's commit log: the hop and kernel-step
//! order-exactness properties. Tests of the public API are in `tests/`.

use std::sync::Arc;

use dv_core::sync::Mutex;

use dv_core::time::ns;

use crate::{Call, JoinSlot, Kernel, Pid, Port, Sim, WaitSet};

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
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// On the process's thread, `Pair` as two `delay`s.
    Split,
    /// On the process's thread, `Pair` as one `delay2`.
    Fused,
    /// As one kernel step ([`KernelScript`]), `Pair` as `delay2`'s delay.
    Kernel,
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
            if mode == Mode::Kernel {
                let script =
                    KernelScript { me, program, pc: 0, ports, signal, tickets, log: Vec::new(), blocked: None };
                out.put(ctx.wait_in_kernel(script).0.log);
                return;
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

/// What a [`KernelScript`] waits for; each is one wait of the thread run.
enum Blocked {
    /// The end of a `delay` / `delay2`: re-armed when woken early.
    Until(u64),
    /// `recv_deadline`: a message, or the deadline.
    Recv(u64),
    /// `TimedWait`: any one resume.
    Parked,
}

/// A program run as one kernel step: between two resumes it does what the
/// `Fused` thread run does between the same two parks.
struct KernelScript {
    me: usize,
    program: Vec<Op>,
    pc: usize,
    ports: Vec<Port<u64>>,
    signal: WaitSet,
    tickets: Arc<Mutex<u64>>,
    log: Vec<Seen>,
    blocked: Option<Blocked>,
}

impl Call for KernelScript {
    type Out = ();

    fn step(&mut self, k: &mut Kernel, pid: Pid) -> Option<()> {
        if let Some(blocked) = self.blocked.take() {
            let word = self.wait(k, pid, blocked)?;
            self.logged(k, word);
        }
        while let Some(&op) = self.program.get(self.pc) {
            self.pc += 1;
            let word = match op {
                Op::Delay(d) => self.delay(k, pid, d, 0),
                Op::Pair(a, b) => self.delay(k, pid, a, b),
                Op::Send { dst, after, word } => {
                    let at = k.now() + after;
                    self.ports[dst].deliver_at(k, at, word);
                    Some(0)
                }
                Op::RecvDeadline(d) => {
                    let deadline = k.now() + d;
                    self.wait(k, pid, Blocked::Recv(deadline))
                }
                Op::Signal => {
                    self.signal.wake_all(k);
                    Some(0)
                }
                // The thread's bare register-arm-park, not a turn: a zero
                // timeout still parks.
                Op::TimedWait(d) => {
                    let w = k.waker_for(pid);
                    self.signal.register(w);
                    k.wake_at(k.now() + d, w);
                    self.blocked = Some(Blocked::Parked);
                    None
                }
            }?;
            self.logged(k, word);
        }
        Some(())
    }
}

impl KernelScript {
    /// `delay2(d1, d2)` up to its park (`None`), or `Some(0)` for a zero
    /// delay.
    fn delay(&mut self, k: &mut Kernel, pid: Pid, d1: u64, d2: u64) -> Option<u64> {
        let Some(until) = k.arm_delay(pid, d1, d2) else { return Some(0) };
        self.blocked = Some(Blocked::Until(until));
        None
    }

    /// One turn of the wait `blocked`: the word it ends with (`u64::MAX`
    /// for a receive at its deadline, 0 for the others), or `None` with
    /// `blocked` kept for the next resume.
    fn wait(&mut self, k: &mut Kernel, pid: Pid, blocked: Blocked) -> Option<u64> {
        let port = &self.ports[self.me];
        let word = match blocked {
            Blocked::Until(t) => k.until(pid, t).then_some(0),
            Blocked::Recv(deadline) => k
                .turn(pid, Some(deadline), || port.try_recv(), |w| port.register(w))
                .map(|got| got.map_or(u64::MAX, |(_, word)| word)),
            Blocked::Parked => Some(0),
        };
        if word.is_none() {
            self.blocked = Some(blocked);
        }
        word
    }

    fn logged(&mut self, k: &Kernel, word: u64) {
        let mut next = self.tickets.lock();
        *next += 1;
        self.log.push((k.now(), word, *next));
    }
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
/// programs of `hops_are_order_exact`, each process run as one kernel step
/// sees the same clock and the same turn after every step, and the kernel
/// commits the same `(time, seq, kind)` list with the same trace hash and
/// the same resume counts, as the thread run — while each thread runs at
/// most twice (its start, and the step's end).
#[test]
fn kernel_steps_are_order_exact() {
    for seed in 0..24u64 {
        let programs = random_programs(seed);
        let (thread_seen, thread, thread_hash, thread_stats) = run_programs(&programs, Mode::Fused);
        let (kernel_seen, kernel, kernel_hash, kernel_stats) = run_programs(&programs, Mode::Kernel);
        assert_eq!(kernel_seen, thread_seen, "seed {seed}: a process saw a different clock or turn");
        assert_eq!(kernel, thread, "seed {seed}: the commit log moved");
        assert_eq!(kernel_hash, thread_hash, "seed {seed}");
        let counts = |s: crate::SchedStats| (s.resumes, s.calls, s.stale_wakeups, s.processes);
        assert_eq!(counts(kernel_stats), counts(thread_stats), "seed {seed}");
        let procs = programs.len() as u64;
        assert_eq!(thread_stats.thread_resumes, thread_stats.resumes, "seed {seed}");
        assert!(kernel_stats.thread_resumes <= 2 * procs, "seed {seed}: {kernel_stats:?}");
    }
}

