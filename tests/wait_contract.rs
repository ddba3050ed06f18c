//! The contract every blocking wait shares (`Kernel::turn`, which
//! `SimCtx::wait_for` and every kernel step run): a
//! condition already met wins even past the deadline, and a wait whose
//! deadline has passed fails at once, registering no waker and pushing no
//! event. A stale waker or timer left there would still draw a sequence
//! number, and every later event's trace hash depends on those.

use datavortex::api::{DvCluster, SendMode};
use datavortex::core::packet::SCRATCH_GC;
use datavortex::core::spec::SimSpec;
use datavortex::core::time::us;
use datavortex::sim::{Port, SimCtx};

/// A group counter no other part of the API touches.
const GC: u8 = 5;

/// Events committed and stale wakeups dropped so far.
fn trace(ctx: &SimCtx) -> (u64, u64) {
    ctx.with_kernel(|k| (k.trace_events(), k.sched_stats().stale_wakeups))
}

#[test]
fn a_wait_past_its_deadline_succeeds_when_ready_and_otherwise_leaves_no_trace() {
    DvCluster::from_spec(SimSpec::new(1)).run(|dv, ctx| {
        let me = dv.node();
        let port = Port::new();

        // Met: the counter is at zero, a word sits in the FIFO, a message
        // on the port.
        dv.send_fifo(ctx, me, &[42], SCRATCH_GC, SendMode::DirectWrite { cached_headers: false });
        port.send_delayed(ctx, 0, 7u64);
        ctx.delay(us(50));
        let past = ctx.now() - 1;
        assert!(dv.gc_wait_zero(ctx, GC, Some(past)));
        assert_eq!(dv.fifo_recv_deadline(ctx, Some(past)), Some(42));
        assert_eq!(port.recv_deadline(ctx, past).map(|(_, m)| m), Some(7));
        // The turn they share, called directly.
        let turn = ctx.with_kernel(|k| k.turn(ctx.pid(), Some(past), || Some(9), |_| panic!("a met turn registered")));
        assert_eq!(turn, Some(Some(9)));

        // Not met: the counter is armed, the FIFO and the port are empty.
        dv.gc_set_local(ctx, GC, 1);
        let before = trace(ctx);
        let now = ctx.now();
        let past = now - 1;
        assert!(!dv.gc_wait_zero(ctx, GC, Some(past)));
        assert_eq!(dv.fifo_recv_deadline(ctx, Some(past)), None);
        assert_eq!(port.recv_deadline(ctx, past), None);
        let turn =
            ctx.with_kernel(|k| k.turn(ctx.pid(), Some(past), || None::<()>, |_| panic!("an expired turn registered")));
        assert_eq!(turn, Some(None), "an unmet turn past its deadline expires");
        assert_eq!(ctx.now(), now, "an expired wait takes no virtual time");
        assert_eq!(trace(ctx), before, "an expired wait commits nothing");
        dv.with_vic(ctx, |vic| {
            assert!(vic.counter(GC).waiters().is_empty(), "counter waker registered");
            assert!(vic.fifo.waiters().is_empty(), "FIFO waker registered");
        });
        // Nor did it queue anything: the next commit is this delay's resume.
        ctx.delay(us(1));
        assert_eq!(trace(ctx), (before.0 + 1, before.1));
    });
}
