//! The sharded engine's steady-state hot loop must be allocation-free:
//! a warmed `Port` send/recv cycle runs entirely on the pooled per-port
//! timer, the preallocated shard heaps, and the self-resume fast path
//! (parking *is* dispatching — no scheduler thread, no context switch).
//! The per-thread counting allocator of `tests/common` wraps the system
//! one; a measured window of thousands of deliveries must leave the
//! counter untouched.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};

use common::allocations_in;
use datavortex::core::time::us;
use datavortex::sim::{Engine, Port, Sim};

#[test]
fn steady_state_dispatch_never_allocates() {
    let sim = Sim::with_engine(Engine::Sharded, 4);
    let measured = std::sync::Arc::new(AtomicU64::new(0));
    let measured_in = std::sync::Arc::clone(&measured);

    sim.spawn("pump", move |ctx| {
        let port: Port<u64> = Port::new();

        // Warm-up: the first send registers the pooled timer and sizes the
        // staging heap / mailbox; a few hundred cycles also warm the shard
        // event heaps past their high-water mark.
        for i in 0..512u64 {
            port.send_delayed(ctx, us(1), i);
            let (_, got) = port.recv(ctx);
            assert_eq!(got, i);
        }

        // Measured window: every cycle is a pooled timer commit riding the
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
        "sharded dispatch allocated inside the steady-state window"
    );
}
