//! The cooperative engine's steady-state hot loop must be allocation-free:
//! a warmed `Port` send/recv cycle runs entirely on plain state events of
//! the kernel's port table, the warmed event heap, and the self-resume
//! fast path (parking *is* dispatching — no scheduler thread, no context
//! switch).
//! The per-thread counting allocator of `tests/common` wraps the system
//! one; a measured window of thousands of deliveries must leave the
//! counter untouched. So must a window of hops (`delay2`, `wake_after`):
//! a hop is a plain copyable event, and the resume it pushes at commit
//! reuses the event heap.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};

use common::allocations_in;
use datavortex::core::time::us;
use datavortex::sim::{Port, Sim};

#[test]
fn steady_state_dispatch_never_allocates() {
    let sim = Sim::new();
    let measured = std::sync::Arc::new(AtomicU64::new(0));
    let measured_in = std::sync::Arc::clone(&measured);

    sim.spawn("pump", move |ctx| {
        let port: Port<u64> = Port::new();

        // Warm-up: the first send enters the port in the kernel's port
        // table and sizes the staging heap / mailbox; a few hundred cycles also warm the
        // event heap past its high-water mark.
        for i in 0..512u64 {
            port.send_delayed(ctx, us(1), i);
            let (_, got) = port.recv(ctx);
            assert_eq!(got, i);
        }

        // Measured window: every cycle is a state-event commit riding the
        // self-resume fast path. Nothing may allocate.
        let start = ctx.now();
        let allocated = allocations_in(|| {
            for i in 0..4096u64 {
                port.send_delayed(ctx, us(1), i);
                let (at, got) = port.recv(ctx);
                assert_eq!(got, i);
                assert!(at > start);
            }
        });
        measured_in.store(allocated, Ordering::Relaxed);

        // The window did real virtual-time work.
        assert!(ctx.now() >= start + us(4096), "virtual clock must advance");
        assert!(port.is_empty(), "every message was consumed");
    });

    let elapsed = sim.run();
    assert!(elapsed >= us(4608), "run covers warm-up plus window");
    assert_eq!(
        measured.load(Ordering::Relaxed),
        0,
        "dispatch allocated inside the steady-state window"
    );
}

#[test]
fn steady_state_hops_never_allocate() {
    let sim = Sim::new();
    let measured = std::sync::Arc::new(AtomicU64::new(u64::MAX));
    let measured_in = std::sync::Arc::clone(&measured);

    sim.spawn("hopper", move |ctx| {
        let cycle = || {
            ctx.delay2(us(1), us(2));
            ctx.with_kernel(|k| {
                let w = k.waker_for(ctx.pid());
                k.wake_after(k.now() + us(1), w, us(1));
            });
            ctx.park();
        };
        // Warm the event heap past its high-water mark.
        for _ in 0..512 {
            cycle();
        }
        let start = ctx.now();
        let allocated = allocations_in(|| {
            for _ in 0..4096 {
                cycle();
            }
        });
        measured_in.store(allocated, Ordering::Relaxed);
        assert_eq!(ctx.now(), start + us(5 * 4096), "each cycle is 3 + 2 virtual microseconds");
    });

    assert_eq!(sim.run(), us(5 * 4608));
    assert_eq!(measured.load(Ordering::Relaxed), 0, "a hop allocated in steady state");
}
