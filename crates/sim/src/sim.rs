//! The simulator driver: process threads, cooperative dispatch, `SimCtx`.
//!
//! A [`Sim`] runs a fixed set of processes: every one is spawned before
//! [`Sim::run`], each on its own OS thread, and the run ends when the last
//! of them finishes. The metrics registry is fixed when the `Sim` is built.
//!
//! ## The cooperative engine
//!
//! The engine keeps the one-process-at-a-time execution model (that is what
//! makes the simulation deterministic) but eliminates the central scheduler
//! thread of the original design. There is a single *run token*; whoever
//! holds it is the **driver** and commits events from the kernel queue in
//! `(time, seq)` order:
//!
//! * When a process parks, *its own thread* becomes the driver: it commits
//!   `Call`/`Timer` events inline (zero context switches), and on a `Resume`
//!   either keeps running (the resume targets itself — zero switches) or
//!   grants the target's [`Parker`] and goes passive (one futex wake and
//!   one futex wait, versus the original central scheduler's two context
//!   switches and two allocating channel sends per event). The wake is
//!   issued with no lock held — neither `sim.kernel` nor `sim.registry`
//!   nor a world lock — so the woken thread never queues behind the
//!   thread that woke it.
//! * A resume of a process that waits in a kernel step
//!   ([`SimCtx::wait_in_kernel`]) does not grant anything: the driver runs
//!   the step inline, under the kernel lock, and keeps driving. Only the
//!   resume on which the step finishes grants the process's thread (or
//!   returns `RunSelf` to it). Such a resume is popped, audited,
//!   generation-bumped and counted like any other, so steps change which
//!   thread does the work, never what is committed.
//! * The host thread drives until the first handoff, then sleeps until a
//!   driver reports the run's outcome (every process finished, deadlock,
//!   or a panic — a process's, or a kernel event's: kernel-context work
//!   runs under `catch_unwind` and is blamed on its owner, never on the
//!   thread that happened to be driving).
//!
//! Nothing here looks at the host: the same code runs on one core and on
//! many.
//!
//! The engine commits events in exactly the order the original central
//! scheduler did: the root `tests/shard_invariance.rs` pins [`OrderAudit`]
//! hashes, results, metrics and telemetry streams that scheduler returned.
//!
//! [`OrderAudit`]: crate::audit::OrderAudit

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;

use dv_core::metrics::MetricsRegistry;
use dv_core::sync::Mutex;

use dv_core::time::Time;

use crate::kernel::{Call, EventKind, Kernel, Pid, Waker};
use crate::parker::Parker;

/// Sentinel panic payload used to unwind parked processes at shutdown.
struct Shutdown;

struct ProcSlot {
    /// The process takes the run token through a direct grant here.
    parker: Arc<Parker>,
    handle: Option<JoinHandle<()>>,
    finished: bool,
}

struct Registry {
    slots: Vec<ProcSlot>,
    /// Processes spawned and not yet finished.
    live: usize,
}

impl Registry {
    /// Mark `pid` finished; returns how many processes are still live.
    fn finish(&mut self, pid: Pid) -> usize {
        self.slots[pid].finished = true;
        self.live -= 1;
        self.live
    }
}

/// The deadlock report for a drained queue: `None` when every process
/// finished, else a message naming the unfinished ones.
/// Takes the pids under the registry lock alone, then resolves names under
/// the kernel lock alone — holding both invites lock-order trouble
/// (DV-W012) for no benefit on this cold error path.
fn deadlock_message(shared: &Shared) -> Option<String> {
    let pids: Vec<Pid> = {
        let reg = shared.registry.lock();
        if reg.live == 0 {
            return None;
        }
        reg.slots.iter().enumerate().filter(|(_, s)| !s.finished).map(|(pid, _)| pid).collect()
    };
    let kernel = shared.kernel.lock();
    let parked: Vec<&str> = pids.iter().map(|&pid| kernel.proc_names[pid].as_str()).collect();
    Some(format!(
        "simulation deadlock: no pending events but {} process(es) still parked: {parked:?}",
        parked.len()
    ))
}

/// Terminal state of a run, reported by whichever thread discovers it.
#[derive(Clone)]
enum Outcome {
    /// Every process finished.
    Done,
    /// Deadlock or simulated-process panic; the message is pre-formatted
    /// and re-panicked on the host thread.
    Abort(String),
}

/// The host's own lock, under [`OutcomeCell`] only.
#[expect(
    clippy::disallowed_types,
    reason = "Condvar::wait takes std's guard; the host thread, not a simulated process, waits here"
)]
type StdMutex<T> = std::sync::Mutex<T>;

/// One-shot outcome cell the host sleeps on while processes drive.
struct OutcomeCell {
    state: StdMutex<Option<Outcome>>,
    cv: Condvar,
}

impl OutcomeCell {
    fn new() -> Self {
        Self { state: StdMutex::new(None), cv: Condvar::new() }
    }

    /// First writer wins; later reports of secondary failures are dropped.
    fn set(&self, outcome: Outcome) {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if s.is_none() {
            *s = Some(outcome);
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> Outcome {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(o) = s.as_ref() {
                return o.clone();
            }
            s = self.cv.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }
}

pub(crate) struct Shared {
    pub(crate) kernel: Mutex<Kernel>,
    registry: Mutex<Registry>,
    /// Fixed when the `Sim` is built; scheduler counters land here.
    metrics: Arc<MetricsRegistry>,
    /// Terminal state; the host sleeps on it.
    outcome: OutcomeCell,
}

/// A discrete-event simulation: spawn processes, then [`Sim::run`] to
/// completion.
///
/// ```
/// use dv_sim::{Sim, Port};
/// use dv_core::time::us;
///
/// let sim = Sim::new();
/// let port: Port<&str> = Port::new();
/// let rx = port.clone();
/// sim.spawn("consumer", move |ctx| {
///     let (arrived_at, msg) = rx.recv(ctx);
///     assert_eq!(msg, "hello");
///     assert_eq!(arrived_at, us(3));
/// });
/// sim.spawn("producer", move |ctx| {
///     ctx.delay(us(1));                 // compute for 1 µs of virtual time
///     port.send_delayed(ctx, us(2), "hello"); // 2 µs of link latency
/// });
/// let end = sim.run();
/// assert_eq!(end, us(3));
/// ```
pub struct Sim {
    pub(crate) shared: Arc<Shared>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Fresh simulation at virtual time zero.
    pub fn new() -> Self {
        Self::build(MetricsRegistry::disabled_shared())
    }

    /// A fresh simulation whose scheduler counters are published into
    /// `metrics` as `sim.sched.*` at the end of [`Sim::run_hashed`].
    pub(crate) fn build(metrics: Arc<MetricsRegistry>) -> Self {
        let shared = Arc::new(Shared {
            kernel: Mutex::new_named("sim.kernel", Kernel::new()),
            registry: Mutex::new_named("sim.registry", Registry { slots: Vec::new(), live: 0 }),
            metrics,
            outcome: OutcomeCell::new(),
        });
        Self { shared }
    }

    /// Spawn a process. Every process is spawned before [`Sim::run`], and
    /// the simulation runs until each one has finished.
    pub fn spawn(&self, name: impl Into<String>, body: impl FnOnce(&SimCtx) + Send + 'static) -> Pid {
        spawn_inner(&self.shared, name.into(), body)
    }

    /// Access the kernel before/after the run (e.g. to pre-schedule events).
    pub fn with_kernel<R>(&self, f: impl FnOnce(&mut Kernel) -> R) -> R {
        f(&mut self.shared.kernel.lock())
    }

    /// Run the simulation to completion and return the final virtual time.
    ///
    /// # Panics
    ///
    /// * If a simulated process panics (the panic message is propagated).
    /// * If all events drain while a process is still parked —
    ///   a deadlock in the simulated program; the panic message names the
    ///   parked processes.
    pub fn run(self) -> Time {
        self.run_hashed().0
    }

    /// [`Sim::run`], additionally returning the [`OrderAudit`] trace hash
    /// (see [`crate::audit`]): identical workloads must return identical
    /// hashes, regardless of host scheduling or thread count.
    ///
    /// [`OrderAudit`]: crate::audit::OrderAudit
    pub fn run_hashed(self) -> (Time, u64) {
        // Drive until the first handoff (or straight to the end for runs
        // with no resumable process), then sleep until a driver reports.
        let _ = drive(&self.shared, None);
        let outcome = self.shared.outcome.wait();
        match outcome {
            Outcome::Done => {
                let (now, hash) = publish_and_hash(&self.shared);
                self.shutdown();
                (now, hash)
            }
            Outcome::Abort(msg) => {
                self.shutdown();
                panic!("{msg}");
            }
        }
    }

    /// Unblock every parked thread (their `park()` unwinds with a private
    /// sentinel) and join them. Idempotent.
    fn shutdown(&self) {
        let mut handles = Vec::new();
        {
            let mut reg = self.shared.registry.lock();
            for slot in reg.slots.iter_mut() {
                slot.parker.shutdown();
                if let Some(h) = slot.handle.take() {
                    handles.push(h);
                }
            }
        }
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // A Sim dropped without running (or mid-panic) must still release
        // its process threads; shutdown is idempotent, so the normal path
        // pays only a second walk over empty slots.
        self.shutdown();
    }
}

/// End-of-run metrics publication + final clock/hash read.
fn publish_and_hash(shared: &Shared) -> (Time, u64) {
    let metrics = &shared.metrics;
    let k = shared.kernel.lock();
    if metrics.is_enabled() {
        let s = k.sched_stats();
        metrics.incr("sim.sched.resumes", s.resumes);
        metrics.incr("sim.sched.calls", s.calls);
        metrics.incr("sim.sched.stale_wakeups", s.stale_wakeups);
        metrics.incr("sim.sched.processes", s.processes);
        metrics.incr("sim.sched.trace_events", k.trace_events());
        metrics.incr("sim.clock.end_ps", k.now());
    }
    (k.now(), k.trace_hash())
}

/// What the dispatch stint told the calling thread to do next.
enum Driven {
    /// The next event resumes the caller itself: keep running.
    RunSelf,
    /// The run token was granted to another process; go passive.
    HandedOff,
    /// The run reached a terminal state (drained queue); the outcome cell
    /// is set and the caller must not dispatch again.
    Ended,
}

/// One dispatch stint: commit events in `(time, seq)` order until a
/// resume hands the token to a process (or the queue drains). Exactly one
/// thread runs this at a time — the token holder — which is what keeps the
/// commit order, and therefore the audit hash, deterministic. A resume of
/// a process that waits in a kernel step runs the step here, inline, and
/// reaches the process's thread only when the step has finished.
///
/// Kernel-context work runs under `catch_unwind`: a panic in a `call_at`
/// closure or a timer hook is reported as that kernel event's, and one in
/// a step as its owner's, never as a panic of whichever process thread
/// happened to be driving.
fn drive(shared: &Shared, self_pid: Option<Pid>) -> Driven {
    loop {
        let next = shared.kernel.lock().pop_valid();
        // Virtual-time telemetry sampling: advance the registry's sampler
        // to the event we are about to dispatch, so a sample at boundary
        // `b` captures exactly the events committed before the first
        // dispatch at or after `b`. Deterministic by construction (keyed
        // to the event sequence, never the host clock); one relaxed
        // atomic load when no series is attached.
        if let Some((t, _)) = &next {
            shared.metrics.tick(*t);
        }
        let pid = match next {
            None => {
                shared.outcome.set(deadlock_message(shared).map_or(Outcome::Done, Outcome::Abort));
                return Driven::Ended;
            }
            Some((t, EventKind::Call(f))) => {
                if !kernel_event(shared, t, || f(&mut shared.kernel.lock())) {
                    return Driven::Ended;
                }
                continue;
            }
            Some((t, EventKind::Timer(id))) => {
                let fired = kernel_event(shared, t, || {
                    let mut k = shared.kernel.lock();
                    if let Some(mut hook) = k.take_timer_hook(id) {
                        hook(&mut k);
                        k.put_timer_hook(id, hook);
                    }
                });
                if !fired {
                    return Driven::Ended;
                }
                continue;
            }
            Some((_t, EventKind::Hop(..))) => unreachable!("pop_valid consumes hops"),
            Some((_t, EventKind::Step(pid))) => {
                match panic::catch_unwind(AssertUnwindSafe(|| shared.kernel.lock().run_step(pid))) {
                    Ok(false) => continue,
                    Ok(true) => pid,
                    Err(payload) => {
                        process_panicked(shared, pid, payload.as_ref());
                        return Driven::Ended;
                    }
                }
            }
            Some((_t, EventKind::Resume(w))) => w.pid(),
        };
        // Take the target's parker and drop the registry guard first:
        // the wake is issued with no lock held, or the woken thread
        // queues behind a granter that is no longer running.
        let target = {
            let reg = shared.registry.lock();
            let slot = &reg.slots[pid];
            if slot.finished {
                // The resume was committed (audit + stats), then skipped.
                continue;
            }
            if self_pid == Some(pid) {
                return Driven::RunSelf;
            }
            Arc::clone(&slot.parker)
        };
        target.grant();
        return Driven::HandedOff;
    }
}

/// Run a committed `Call` or timer event; `false` if it panicked, after
/// reporting the panic as the kernel event's, at its virtual time `t`.
fn kernel_event(shared: &Shared, t: Time, run: impl FnOnce()) -> bool {
    match panic::catch_unwind(AssertUnwindSafe(run)) {
        Ok(()) => true,
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            shared.outcome.set(Outcome::Abort(format!("kernel event at {t} ps panicked: {msg}")));
            false
        }
    }
}

/// The text of a panic payload (`panic!` with a literal or a format).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".into())
}

fn spawn_inner(
    shared: &Arc<Shared>,
    name: String,
    body: impl FnOnce(&SimCtx) + Send + 'static,
) -> Pid {
    let pid = {
        let mut kernel = shared.kernel.lock();
        let pid = kernel.register_process(name.clone());
        // First resume: start the process at the current virtual time.
        let waker = kernel.waker_for(pid);
        kernel.wake(waker);
        pid
    };
    let parker = Arc::new(Parker::new());
    let thread_parker = Arc::clone(&parker);
    let thread_shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("sim-{name}"))
        .spawn(move || {
            // Wait for the initial resume before touching anything.
            if thread_parker.wait().is_err() {
                return; // simulation torn down before we started
            }
            let ctx = SimCtx { pid, shared: thread_shared, parker: thread_parker };
            let result = panic::catch_unwind(AssertUnwindSafe(|| body(&ctx)));
            match result {
                Ok(()) => on_finished(&ctx),
                Err(payload) => {
                    if payload.downcast_ref::<Shutdown>().is_some() {
                        // Normal teardown of a parked process.
                        return;
                    }
                    process_panicked(&ctx.shared, ctx.pid, payload.as_ref());
                }
            }
        })
        .expect("failed to spawn simulation thread");

    let mut reg = shared.registry.lock();
    debug_assert_eq!(reg.slots.len(), pid);
    reg.slots.push(ProcSlot { parker, handle: Some(handle), finished: false });
    reg.live += 1;
    pid
}

/// A process body returned normally.
fn on_finished(ctx: &SimCtx) {
    let live = ctx.shared.registry.lock().finish(ctx.pid);
    if live == 0 {
        // All work done; events still queued are never committed.
        ctx.shared.outcome.set(Outcome::Done);
    } else {
        // This thread holds the run token: keep driving until the token
        // moves on, then let the thread exit.
        let _ = drive(&ctx.shared, None);
    }
}

/// Process `pid` panicked (with a non-shutdown payload), on its thread or
/// in its kernel step.
fn process_panicked(shared: &Shared, pid: Pid, payload: &(dyn Any + Send)) {
    let name = shared.kernel.lock().proc_names[pid].clone();
    let msg = panic_message(payload);
    shared.outcome.set(Outcome::Abort(format!("simulated process '{name}' panicked: {msg}")));
}

/// Per-process capability: the handle a simulated process uses to read the
/// clock, advance time, park, and schedule events. One per process; not
/// shareable across processes.
pub struct SimCtx {
    pid: Pid,
    shared: Arc<Shared>,
    parker: Arc<Parker>,
}

impl SimCtx {
    /// This process's id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.shared.kernel.lock().now()
    }

    /// Run a closure with the kernel locked (schedule events, fire wakers).
    pub fn with_kernel<R>(&self, f: impl FnOnce(&mut Kernel) -> R) -> R {
        f(&mut self.shared.kernel.lock())
    }

    /// A waker for this process's *current* park generation (what
    /// [`SimCtx::wait_for`] hands its `register`).
    pub fn waker(&self) -> Waker {
        let k = self.shared.kernel.lock();
        k.waker_for(self.pid)
    }

    /// Park until any waker for the current generation fires. Spurious
    /// wakeups are possible when several wakers were registered; callers
    /// must re-check their condition in a loop.
    ///
    /// Parking *is* dispatching: the calling thread drives the kernel until
    /// the run token moves to another process (or comes straight back —
    /// the self-resume fast path, zero context switches).
    pub fn park(&self) {
        match drive(&self.shared, Some(self.pid)) {
            Driven::RunSelf => {}
            Driven::HandedOff | Driven::Ended => {
                if self.parker.wait().is_err() {
                    // Simulation is shutting down: unwind this thread,
                    // past the panic hook (this is no failure to report).
                    panic::resume_unwind(Box::new(Shutdown));
                }
            }
        }
    }

    /// The one check-and-park loop under every blocking wait: a
    /// [`Kernel::turn`] (see there for the order it keeps), then a park,
    /// until the turn returns. `ready` and `register` run with the kernel
    /// locked.
    pub fn wait_for<R>(
        &self,
        deadline: Option<Time>,
        mut ready: impl FnMut() -> Option<R>,
        mut register: impl FnMut(Waker),
    ) -> Option<R> {
        loop {
            if let Some(r) = self.with_kernel(|k| k.turn(self.pid, deadline, &mut ready, &mut register)) {
                return r;
            }
            self.park();
        }
    }

    /// Finish a blocking call in the kernel instead of on this thread.
    /// [`Call::step`] runs now, inline, and then at every later resume of
    /// this process — each time with the kernel locked, in whichever thread
    /// is dispatching — until it returns the call's output; only then does
    /// this thread run again, and it gets the call back with the output. A
    /// `None` from the first step parks the process, the call boxed once.
    ///
    /// A resume that runs the step is popped, audited, generation-bumped
    /// and counted exactly like one that grants the thread, so a step that
    /// does what the thread would have done between the same two parks —
    /// one [`Kernel::turn`] per blocked state, re-run after an early
    /// wake-up — commits the same events in the same order, and saves one
    /// thread handoff per resume. Like every kernel closure, a step must
    /// not block. A panic in it is reported as this process's.
    pub fn wait_in_kernel<C: Call>(&self, mut call: C) -> (C, C::Out) {
        {
            let mut k = self.shared.kernel.lock();
            if let Some(out) = call.step(&mut k, self.pid) {
                return (call, out);
            }
            k.set_step(self.pid, Box::new((call, None::<C::Out>)));
        }
        self.park();
        let finished = self.shared.kernel.lock().take_finished_step(self.pid);
        let (call, out) = *finished.downcast::<(C, Option<C::Out>)>().expect("a process's own call comes back");
        (call, out.expect("a finished call holds its output"))
    }

    /// Block until virtual time `t` (no-op if already past): a wait for a
    /// condition that never holds.
    pub fn wait_until(&self, t: Time) {
        self.wait_for(Some(t), || None::<()>, |_| {});
    }

    /// Advance virtual time by `d` — the standard way to charge compute
    /// cost for work the process just (really) performed.
    pub fn delay(&self, d: Time) {
        self.delay2(d, 0);
    }

    /// `delay(d1); delay(d2)` for a process that does nothing in between,
    /// at one resume instead of two: the first leg is a kernel-side hop
    /// (see [`Kernel::wake_after`]), so every other process observes the
    /// same event order, to the sequence number, as with the two calls.
    pub fn delay2(&self, d1: Time, d2: Time) {
        let Some(target) = self.with_kernel(|k| k.arm_delay(self.pid, d1, d2)) else { return };
        self.park();
        // Re-check, as every blocking primitive does: a waker this process
        // left in some wait queue before calling may have fired first.
        self.wait_until(target);
    }
}
