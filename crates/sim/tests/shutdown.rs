//! Tearing down a run unwinds every parked process thread without a panic
//! report: an aborted run prints the reason it failed, not one
//! `thread 'sim-…' panicked` line per process it had to stop. A binary of
//! its own, because the panic hook it counts with is process-global.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};

use dv_core::time::us;
use dv_sim::{Call, Kernel, Pid, Port, Sim};

/// Panic-hook runs on the simulator's process threads.
static PROCESS_PANICS: AtomicUsize = AtomicUsize::new(0);

/// A call that never returns.
struct Never;

impl Call for Never {
    type Out = ();

    fn step(&mut self, _: &mut Kernel, _: Pid) -> Option<()> {
        None
    }
}

#[test]
fn an_aborted_run_stops_its_parked_processes_without_panic_reports() {
    panic::set_hook(Box::new(|_| {
        if std::thread::current().name().is_some_and(|n| n.starts_with("sim-")) {
            PROCESS_PANICS.fetch_add(1, Ordering::SeqCst);
        }
    }));
    let sim = Sim::new();
    let port: Port<u32> = Port::new();
    sim.spawn("on-thread", move |ctx| {
        let _ = port.recv(ctx);
    });
    sim.spawn("in-kernel", |ctx| {
        ctx.wait_in_kernel(Never);
    });
    sim.spawn("done", |ctx| ctx.delay(us(1)));
    let err = panic::catch_unwind(panic::AssertUnwindSafe(|| sim.run())).expect_err("the run deadlocks");
    let _ = panic::take_hook();
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.ends_with(r#"2 process(es) still parked: ["on-thread", "in-kernel"]"#), "{msg}");
    assert_eq!(PROCESS_PANICS.load(Ordering::SeqCst), 0, "a parked thread's teardown ran the panic hook");
}
