//! Engine tests through the public API: determinism, ordering, blocking
//! semantics, deadlock and panic reports.

use std::sync::Arc;

use dv_core::sync::Mutex;

use dv_core::time::{ns, us};
use dv_sim::{JoinSlot, Kernel, KernelState, Pipe, Port, Proc, Sim, WaitSet};

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
    let mut pipe = Pipe::new(1.0); // 1 GB/s => 1000 bytes take 1000 ns
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

/// A drained queue with a process still parked is diagnosed, naming that
/// process (not the one that finished).
#[test]
fn deadlock_is_reported() {
    let sim = Sim::new();
    let port: Port<u32> = Port::new();
    sim.spawn("stuck", move |ctx| {
        let _ = port.recv(ctx);
    });
    sim.spawn("done", |ctx| ctx.delay(us(1)));
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
        .expect_err("deadlock must be detected");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    let named = msg.ends_with(r#"1 process(es) still parked: ["stuck"]"#);
    assert!(msg.contains("deadlock") && named, "{msg}");
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

/// Two shapes pinned to the `(elapsed, trace hash)` the frozen reference
/// scheduler returned for them. Every message of a lockstep *ring* is a
/// real cross-thread handoff — the path on which `drive()` grants the next
/// process's parker after dropping its registry guard. Staggered
/// self-delivery *pumps* are the opposite path: each process talks to its
/// own port inside a virtual-time window no other process touches, so
/// every commit's next event belongs to the process that just parked
/// (`Driven::RunSelf`, no handoff at all).
#[test]
fn lockstep_ring_and_pump_match_their_pinned_hashes() {
    const NODES: usize = 32;
    const MSGS: u64 = 100;
    /// `window` 0 is the ring; otherwise process `me` pumps its own port
    /// from `me × window` on.
    fn run(window: u64) -> (u64, u64) {
        let sim = Sim::new();
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
    let ring = (us(MSGS), 0x47be_46bf_53b1_8765);
    let pumps = ((NODES as u64 - 1) * pump + us(MSGS), 0x1b98_9783_ac55_6b68);
    assert_eq!(run(0), ring);
    assert_eq!(run(pump), pumps);
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
fn selective_receive_leaves_skipped_messages_in_place() {
    let sim = Sim::new();
    let port: Port<u32> = Port::new();
    let got = JoinSlot::new();
    let got2 = got.clone();
    sim.spawn("p", move |ctx| {
        for n in 1..=5 {
            port.send_delayed(ctx, us(n as u64), n);
        }
        let first = port.recv(ctx);
        ctx.delay(us(10));
        // Selective receive skips 2 to 4 and leaves them in place.
        let five = port.take_first(|&n| n == 5);
        let rest: Vec<_> = std::iter::from_fn(|| port.try_recv()).collect();
        got2.put((first, five, rest, port.is_empty()));
    });
    sim.run();
    let rest = vec![(us(2), 2), (us(3), 3), (us(4), 4)];
    assert_eq!(got.take().unwrap(), ((us(1), 1), Some((us(5), 5)), rest, true));
}

/// A call that waits on `signal` and panics when resumed.
async fn blows_up_when_resumed(p: Proc, signal: WaitSet) {
    p.with(|k| signal.register(k.waker_for(p.pid())));
    p.resumed().await;
    panic!("step blew up");
}

/// A process parked in a kernel-run call that never finishes is named by the
/// deadlock report like any parked process.
#[test]
fn a_step_that_never_finishes_is_named_in_the_deadlock_report() {
    let sim = Sim::new();
    sim.spawn("stepping", |ctx| {
        // A call that never completes.
        ctx.wait_in_kernel(std::future::pending::<()>());
    });
    sim.spawn("done", |ctx| ctx.delay(us(1)));
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
        .expect_err("deadlock must be detected");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.ends_with(r#"1 process(es) still parked: ["stepping"]"#), "{msg}");
}

/// Run `sim` to its panic and return the reported message.
fn panic_report(sim: Sim) -> String {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
        .expect_err("the run must fail");
    err.downcast_ref::<String>().cloned().unwrap_or_default()
}

/// A step that panics while another process's thread is dispatching is
/// reported as its owner's panic, not the dispatcher's.
#[test]
fn a_step_panic_is_blamed_on_the_steps_owner() {
    let sim = Sim::new();
    let signal = WaitSet::new();
    let ws = signal.clone();
    sim.spawn("owner", move |ctx| {
        ctx.wait_in_kernel(blows_up_when_resumed(ctx.proc(), ws));
    });
    sim.spawn("driver", move |ctx| {
        ctx.delay(us(1));
        signal.wake_all_ctx(ctx);
        // Parking makes this thread the dispatcher of the owner's resume.
        ctx.delay(us(1));
    });
    assert_eq!(panic_report(sim), "simulated process 'owner' panicked: step blew up");
}

/// A call ready at its first poll returns at once: it parks nothing, and
/// the run commits exactly what it commits without the call.
#[test]
fn a_call_ready_at_its_first_poll_returns_without_parking() {
    let run = |with_call: bool| {
        let sim = Sim::new();
        let stats = JoinSlot::new();
        let out = stats.clone();
        sim.spawn("caller", move |ctx| {
            ctx.delay(us(1));
            if with_call {
                let p = ctx.proc();
                assert_eq!(ctx.wait_in_kernel(async move { p.now() }), us(1));
            }
            ctx.delay(us(1));
            out.put(ctx.with_kernel(|k| k.sched_stats()));
        });
        let (end, hash) = sim.run_hashed();
        let s = stats.take().expect("the caller finished");
        (end, hash, s.resumes, s.thread_resumes)
    };
    let without = run(false);
    assert_eq!(run(true), without);
    assert_eq!(without.2, without.3, "every resume reached the thread");
}

/// A state whose events refuse their token.
struct Refuses;

impl KernelState for Refuses {
    fn fire(&mut self, _kernel: &mut Kernel, token: u32) {
        panic!("state refused {token}");
    }
}

/// A panicking `call_at` closure or state event belongs to no
/// process: it is reported as a kernel event at its virtual time, not as a
/// panic of the process whose thread was dispatching.
#[test]
fn kernel_event_panics_are_reported_as_kernel_events() {
    let sim = Sim::new();
    sim.spawn("bystander", |ctx| {
        ctx.with_kernel(|k| k.call_at(us(3), |_| panic!("call failed")));
        ctx.delay(us(5));
    });
    assert_eq!(panic_report(sim), "kernel event at 3000000 ps panicked: call failed");

    let sim = Sim::new();
    sim.with_kernel(|k| k.install(Refuses));
    sim.spawn("bystander", |ctx| {
        ctx.with_kernel(|k| k.state_at::<Refuses>(us(4), 9));
        ctx.delay(us(5));
    });
    assert_eq!(panic_report(sim), "kernel event at 4000000 ps panicked: state refused 9");
}
