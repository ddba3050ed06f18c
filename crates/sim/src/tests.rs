//! Engine-level tests: determinism, ordering, blocking semantics.

use std::sync::Arc;

use dv_core::sync::Mutex;

use dv_core::time::{ns, us};

use crate::{JoinSlot, Pipe, Port, Sim, WaitSet};

#[test]
fn single_process_advances_time() {
    let sim = Sim::new();
    let out = JoinSlot::new();
    let out2 = out.clone();
    sim.spawn("p", move |ctx| {
        assert_eq!(ctx.now(), 0);
        ctx.delay(us(5));
        assert_eq!(ctx.now(), us(5));
        ctx.wait_until(us(3)); // already past: no-op
        assert_eq!(ctx.now(), us(5));
        out2.put(ctx.now());
    });
    let end = sim.run();
    assert_eq!(end, us(5));
    assert_eq!(out.take(), Some(us(5)));
}

#[test]
fn processes_interleave_by_virtual_time() {
    let sim = Sim::new();
    let log: Arc<Mutex<Vec<(u64, &str)>>> = Arc::new(Mutex::new(Vec::new()));
    for (name, step) in [("a", us(3)), ("b", us(2))] {
        let log = log.clone();
        sim.spawn(name, move |ctx| {
            for _ in 0..3 {
                ctx.delay(step);
                log.lock().push((ctx.now(), name));
            }
        });
    }
    sim.run();
    // a: 3,6,9  b: 2,4,6 -> merged by time, b's 6 after a's 6 (a spawned first, same timestamp resolves by event order).
    let times: Vec<u64> = log.lock().iter().map(|(t, _)| *t).collect();
    let mut sorted = times.clone();
    sorted.sort_unstable();
    assert_eq!(times, sorted, "events must be observed in time order: {:?}", log.lock());
    assert_eq!(times, vec![us(2), us(3), us(4), us(6), us(6), us(9)]);
}

#[test]
fn port_blocks_until_delivery() {
    let sim = Sim::new();
    let port: Port<u32> = Port::new();
    let p2 = port.clone();
    let got = JoinSlot::new();
    let got2 = got.clone();
    sim.spawn("recv", move |ctx| {
        let (at, msg) = p2.recv(ctx);
        got2.put((at, msg, ctx.now()));
    });
    let p3 = port.clone();
    sim.spawn("send", move |ctx| {
        ctx.delay(us(1));
        p3.send_delayed(ctx, ns(500), 42);
    });
    sim.run();
    let (at, msg, woke) = got.take().unwrap();
    assert_eq!(msg, 42);
    assert_eq!(at, us(1) + ns(500));
    assert_eq!(woke, at);
}

#[test]
fn port_deadline_times_out() {
    let sim = Sim::new();
    let port: Port<u32> = Port::new();
    let got = JoinSlot::new();
    let (p2, g2) = (port.clone(), got.clone());
    sim.spawn("recv", move |ctx| {
        let r = p2.recv_deadline(ctx, us(2));
        g2.put((r.is_none(), ctx.now()));
    });
    sim.run();
    let (timed_out, at) = got.take().unwrap();
    assert!(timed_out);
    assert_eq!(at, us(2));
}

#[test]
fn port_deadline_returns_early_message() {
    let sim = Sim::new();
    let port: Port<u32> = Port::new();
    let got = JoinSlot::new();
    let (p2, g2) = (port.clone(), got.clone());
    sim.spawn("recv", move |ctx| {
        g2.put(p2.recv_deadline(ctx, us(10)));
    });
    let p3 = port.clone();
    sim.spawn("send", move |ctx| p3.send_delayed(ctx, us(1), 7));
    sim.run();
    assert_eq!(got.take().unwrap(), Some((us(1), 7)));
}

#[test]
fn messages_arrive_in_delivery_time_order() {
    let sim = Sim::new();
    let port: Port<u32> = Port::new();
    let got = JoinSlot::new();
    let (p2, g2) = (port.clone(), got.clone());
    sim.spawn("recv", move |ctx| {
        let mut v = Vec::new();
        for _ in 0..3 {
            v.push(p2.recv(ctx).1);
        }
        g2.put(v);
    });
    let p3 = port.clone();
    sim.spawn("send", move |ctx| {
        // Sent in one order, delivered in delay order.
        p3.send_delayed(ctx, us(3), 1);
        p3.send_delayed(ctx, us(1), 2);
        p3.send_delayed(ctx, us(2), 3);
    });
    sim.run();
    assert_eq!(got.take().unwrap(), vec![2, 3, 1]);
}

#[test]
fn waitset_wakes_all_waiters() {
    let sim = Sim::new();
    let ws = WaitSet::new();
    let flag = Arc::new(Mutex::new(false));
    let done = Arc::new(Mutex::new(0usize));
    for i in 0..4 {
        let (ws, flag, done) = (ws.clone(), flag.clone(), done.clone());
        sim.spawn(format!("w{i}"), move |ctx| {
            ctx.wait_for(None, || flag.lock().then_some(()), |w| ws.register(w));
            *done.lock() += 1;
        });
    }
    let (ws2, flag2) = (ws.clone(), flag.clone());
    sim.spawn("setter", move |ctx| {
        ctx.delay(us(7));
        *flag2.lock() = true;
        ws2.wake_all_ctx(ctx);
    });
    let end = sim.run();
    assert_eq!(*done.lock(), 4);
    assert_eq!(end, us(7));
}

#[test]
fn pipe_serializes_transfers() {
    let pipe = Pipe::new(1.0); // 1 GB/s => 1000 bytes take 1000 ns
    let (s1, e1) = pipe.reserve(0, 1000);
    assert_eq!((s1, e1), (0, ns(1000)));
    // Second transfer queued behind the first even though requested at t=0.
    let (s2, e2) = pipe.reserve(0, 500);
    assert_eq!((s2, e2), (ns(1000), ns(1500)));
    // A transfer requested after the pipe is free starts immediately.
    let (s3, _e3) = pipe.reserve(ns(5000), 100);
    assert_eq!(s3, ns(5000));
    assert_eq!(pipe.busy_time(), ns(1600));
}

/// Both engines diagnose a drained queue with a process still parked, and
/// name that process (not the one that finished).
#[test]
fn deadlock_is_reported() {
    for engine in [crate::Engine::Cooperative, crate::Engine::Reference] {
        let sim = Sim::with_engine(engine);
        let port: Port<u32> = Port::new();
        sim.spawn("stuck", move |ctx| {
            let _ = port.recv(ctx);
        });
        sim.spawn("done", |ctx| ctx.delay(us(1)));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("deadlock must be detected");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        let named = msg.ends_with(r#"1 process(es) still parked: ["stuck"]"#);
        assert!(msg.contains("deadlock") && named, "{engine:?}: {msg}");
    }
}

#[test]
#[should_panic(expected = "boom")]
fn process_panics_propagate() {
    let sim = Sim::new();
    sim.spawn("bad", |ctx| {
        ctx.delay(us(1));
        panic!("boom");
    });
    sim.run();
}

/// The determinism guarantee everything else relies on: identical programs
/// produce identical event traces.
#[test]
fn simulation_is_deterministic() {
    fn run_once(seed: u64) -> Vec<(u64, usize, u64)> {
        let sim = Sim::new();
        let log: Arc<Mutex<Vec<(u64, usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let ports: Vec<Port<u64>> = (0..4).map(|_| Port::new()).collect();
        for me in 0..4usize {
            let log = log.clone();
            let ports = ports.clone();
            sim.spawn(format!("n{me}"), move |ctx| {
                let mut rng = dv_core::rng::SplitMix64::new(seed ^ me as u64);
                for round in 0..20 {
                    let dst = rng.next_below(4) as usize;
                    let delay = ns(1 + rng.next_below(1000));
                    ports[dst].send_delayed(ctx, delay, (me as u64) << 32 | round);
                    ctx.delay(ns(1 + rng.next_below(200)));
                    while let Some((at, msg)) = ports[me].try_recv() {
                        log.lock().push((at, me, msg));
                    }
                }
                // Drain what's left with a deadline.
                while let Some((at, msg)) = ports[me].recv_deadline(ctx, ctx.now() + us(10)) {
                    log.lock().push((at, me, msg));
                }
            });
        }
        sim.run();
        let v = log.lock().clone();
        assert_eq!(v.len(), 80, "every message must be received exactly once");
        v
    }
    let a = run_once(1234);
    let b = run_once(1234);
    assert_eq!(a, b);
    let c = run_once(99);
    assert_ne!(a, c, "different seeds should change the trace");
}

/// Two shapes hold the cooperative engine to the reference scheduler.
/// Every message of a lockstep *ring* is a real cross-thread handoff — the
/// path on which `drive()` grants the next process's parker after dropping
/// its registry guard. Staggered self-delivery *pumps* are the opposite
/// path: each process talks to its own port inside a virtual-time window
/// no other process touches, so every commit's next event belongs to the
/// process that just parked (`Driven::RunSelf`, no handoff at all).
#[test]
fn lockstep_ring_handoffs_match_the_reference_engine() {
    const NODES: usize = 32;
    const MSGS: u64 = 100;
    /// `window` 0 is the ring; otherwise process `me` pumps its own port
    /// from `me × window` on.
    fn run(engine: crate::Engine, window: u64) -> (u64, u64) {
        let sim = Sim::with_engine(engine);
        let ports: Arc<Vec<Port<u64>>> = Arc::new((0..NODES).map(|_| Port::new()).collect());
        for me in 0..NODES {
            let ports = Arc::clone(&ports);
            sim.spawn(format!("p{me}"), move |ctx| {
                let start = me as u64 * window;
                let to = if window == 0 { (me + 1) % NODES } else { me };
                ctx.wait_until(start);
                for round in 0..MSGS {
                    ports[to].send_delayed(ctx, us(1), round);
                    assert_eq!(ports[me].recv(ctx), (start + (round + 1) * us(1), round));
                }
            });
        }
        sim.run_hashed()
    }
    let pump = us(MSGS + 16);
    for (window, elapsed) in [(0, us(MSGS)), (pump, (NODES as u64 - 1) * pump + us(MSGS))] {
        let cooperative = run(crate::Engine::Cooperative, window);
        assert_eq!(cooperative.0, elapsed);
        assert_eq!(cooperative, run(crate::Engine::Reference, window));
    }
}

#[test]
fn delay2_lands_where_two_delays_do() {
    let sim = Sim::new();
    let seen = JoinSlot::new();
    let seen2 = seen.clone();
    sim.spawn("p", move |ctx| {
        let mut at = Vec::new();
        for (a, b) in [(us(2), us(3)), (0, us(1)), (us(1), 0), (0, 0)] {
            ctx.delay2(a, b);
            at.push(ctx.now());
        }
        seen2.put(at);
    });
    assert_eq!(sim.run(), us(7));
    assert_eq!(seen.take().unwrap(), vec![us(5), us(6), us(7), us(7)]);
}

#[test]
fn port_handler_consumes_or_passes_on() {
    let sim = Sim::new();
    let consumed = Arc::new(Mutex::new(Vec::new()));
    let sink = consumed.clone();
    // Evens are consumed in the kernel; odds become visible as usual.
    let port: Port<u32> = Port::with_handler(move |_k, at, n| {
        if n % 2 == 0 {
            sink.lock().push((at, n));
            None
        } else {
            Some(n)
        }
    });
    let got = JoinSlot::new();
    let got2 = got.clone();
    sim.spawn("p", move |ctx| {
        for n in 1..=5 {
            port.send_delayed(ctx, us(n as u64), n);
        }
        let first = port.recv(ctx);
        ctx.delay(us(10));
        // Selective receive skips the earlier 3 and leaves it in place.
        let five = port.take_first(|&n| n == 5);
        got2.put((first, five, port.try_recv(), port.is_empty()));
    });
    sim.run();
    assert_eq!(*consumed.lock(), vec![(us(2), 2), (us(4), 4)]);
    assert_eq!(got.take().unwrap(), ((us(1), 1), Some((us(5), 5)), Some((us(3), 3)), true));
}

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

/// Run `programs` (one per process); returns what every process saw after
/// each step and the kernel's commit log.
fn run_programs(
    programs: &[Vec<Op>],
    fused: bool,
    engine: crate::Engine,
) -> (Vec<Vec<Seen>>, Commits) {
    let sim = Sim::with_engine(engine);
    let shared = Arc::clone(&sim.shared);
    let ports: Vec<Port<u64>> = programs.iter().map(|_| Port::new()).collect();
    let signal = WaitSet::new();
    let tickets = Arc::new(Mutex::new(0u64));
    let seen: Vec<JoinSlot<Vec<Seen>>> = programs.iter().map(|_| JoinSlot::new()).collect();
    for (me, program) in programs.iter().enumerate() {
        let (program, ports, signal, tickets, out) =
            (program.clone(), ports.clone(), signal.clone(), tickets.clone(), seen[me].clone());
        sim.spawn(format!("p{me}"), move |ctx| {
            let mut log = Vec::new();
            for op in program {
                let mut word = 0;
                match op {
                    Op::Delay(d) => ctx.delay(d),
                    Op::Pair(a, b) if fused => ctx.delay2(a, b),
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
    sim.run();
    let commits = shared.kernel.lock().commits.clone();
    (seen.iter().map(|s| s.take().expect("process finished")).collect(), commits)
}

/// The hop contract: `delay2(a, b)` is `delay(a); delay(b)` minus one
/// resume and *nothing else*. Over seeded random programs whose delays are
/// drawn from four values (so same-picosecond ties are the norm), both
/// variants give every process the same `now()` after every step and the
/// same turn among the processes running at that instant, and the kernel
/// commits the same `(time, seq)` list — the hop sits exactly where
/// the intermediate resume sat, so every other event keeps its sequence
/// number. The fused run is the same on both engines.
#[test]
fn hops_are_order_exact() {
    use crate::Engine::{Cooperative, Reference};
    for seed in 0..24u64 {
        let mut rng = dv_core::rng::SplitMix64::new(0x686f70 ^ seed);
        let procs = 2 + (seed % 5) as usize;
        let mut tick = || ns(10 * rng.next_below(4));
        let mut pick = dv_core::rng::SplitMix64::new(seed);
        let programs: Vec<Vec<Op>> = (0..procs)
            .map(|_| {
                (0..40)
                    .map(|i| match pick.next_below(8) {
                        0 => Op::Delay(tick()),
                        1..=3 => Op::Pair(tick(), tick()),
                        4 => Op::Send {
                            dst: pick.next_below(procs as u64) as usize,
                            after: tick(),
                            word: i,
                        },
                        5 => Op::RecvDeadline(tick()),
                        6 => Op::Signal,
                        _ => Op::TimedWait(tick()),
                    })
                    .collect()
            })
            .collect();
        let hops = programs
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Pair(a, b) if *a > 0 && *b > 0))
            .count();

        let (split_seen, split) = run_programs(&programs, false, Cooperative);
        let (fused_seen, fused) = run_programs(&programs, true, Cooperative);
        assert_eq!(fused_seen, split_seen, "seed {seed}: a process saw a different clock or turn");
        assert_eq!(fused.len(), split.len(), "seed {seed}");
        for (f, s) in fused.iter().zip(&split) {
            assert_eq!((f.0, f.1), (s.0, s.1), "seed {seed}: (time, seq) moved");
            // A hop replaces a resume; every other event keeps its kind.
            assert!(f.2 == s.2 || (f.2, s.2) == (b'h', b'r'), "seed {seed}: {f:?} vs {s:?}");
        }
        assert_eq!(fused.iter().filter(|c| c.2 == b'h').count(), hops, "seed {seed}");
        assert!(split.iter().all(|c| c.2 != b'h'));

        let (seen, commits) = run_programs(&programs, true, Reference);
        assert_eq!(seen, fused_seen, "seed {seed} on the reference engine");
        assert_eq!(commits, fused, "seed {seed} on the reference engine");
    }
}
