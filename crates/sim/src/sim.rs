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
//! * A process blocks in [`SimCtx::block_on`] (every thread-side wait is
//!   one: a future over the process's [`Proc`], polled, then parked on
//!   while pending) or in [`SimCtx::wait_in_kernel`]; those two are the
//!   only callers of [`SimCtx::park`].
//! * When a process parks, *its own thread* becomes the driver: it commits
//!   `Call` and state events inline (zero context switches, in
//!   the lock each was popped with), and on a `Resume`
//!   either keeps running (the resume targets itself — zero switches) or
//!   grants the target's [`Parker`] and goes passive (one futex wake and
//!   one futex wait, versus the original central scheduler's two context
//!   switches and two allocating channel sends per event). The wake is
//!   issued with no lock held — neither `sim.kernel` nor `sim.registry`
//!   nor a world lock — so the woken thread never queues behind the
//!   thread that woke it.
//! * A resume of a process whose blocking call is parked in the kernel
//!   ([`SimCtx::wait_in_kernel`]) does not grant anything: the
//!   dispatching thread takes the call's future out in the lock it pops
//!   with, polls it with no lock held, and keeps driving. Only the resume
//!   on which the future completes grants the process's thread (or
//!   returns `RunSelf` to it). Such a resume is popped, audited,
//!   generation-bumped and counted like any other, so a parked call
//!   changes which thread does the work, never what is committed.
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
use std::future::{poll_fn, Future};
use std::panic::{self, AssertUnwindSafe};
use std::pin::{pin, Pin};
use std::sync::{Arc, Condvar};
use std::task::{Context, Poll};
use std::thread::JoinHandle;

use dv_core::metrics::MetricsRegistry;
use dv_core::sync::Mutex;

use dv_core::time::Time;

use crate::kernel::{EventKind, Kernel, KernelState, ParkedCall, Pid, Waker};
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
        self.run_to_end()
    }

    /// [`Sim::run_hashed`], keeping the kernel and the state it owns for
    /// [`Sim::with_kernel`].
    pub(crate) fn run_to_end(&self) -> (Time, u64) {
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
        // A call still parked (a deadlocked run) holds the simulation
        // alive through its process handle: drop it, outside the lock.
        let calls = self.shared.kernel.lock().take_calls();
        drop(calls);
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
/// a process whose blocking call is parked polls the call here, inline,
/// and reaches the process's thread only when the call has completed.
///
/// Kernel-context work runs under `catch_unwind`: a panic in a `call_at`
/// closure or a state event is reported as that kernel
/// event's, and one in a parked call as its owner's, never as a panic of
/// whichever process thread happened to be driving.
fn drive(shared: &Shared, self_pid: Option<Pid>) -> Driven {
    // A call whose poll left it pending, parked again in the next lock.
    let mut pending: Option<(Pid, ParkedCall)> = None;
    loop {
        let mut k = shared.kernel.lock();
        if let Some((pid, call)) = pending.take() {
            k.repark_call(pid, call);
        }
        let Some((t, kind)) = k.pop_valid() else {
            drop(k);
            shared.outcome.set(deadlock_message(shared).map_or(Outcome::Done, Outcome::Abort));
            return Driven::Ended;
        };
        // Virtual-time telemetry sampling: advance the registry's sampler
        // to the event we are about to dispatch, so a sample at boundary
        // `b` captures exactly the events committed before the first
        // dispatch at or after `b`; the kernel's states flush into the
        // registry first. Deterministic by construction (keyed to the
        // event sequence, never the host clock); one relaxed atomic load
        // when no sample is due, and then the kernel-side work below runs
        // in the lock it was popped with.
        if shared.metrics.sample_due(t) {
            k.flush_states(&shared.metrics);
            drop(k);
            shared.metrics.tick(t);
            k = shared.kernel.lock();
        }
        let pid = match kind {
            EventKind::Step(pid, mut call) => {
                drop(k);
                match panic::catch_unwind(AssertUnwindSafe(|| poll(call.as_mut()))) {
                    Ok(Poll::Pending) => {
                        pending = Some((pid, call));
                        continue;
                    }
                    Ok(Poll::Ready(())) => pid,
                    Err(payload) => {
                        process_panicked(shared, pid, payload.as_ref());
                        return Driven::Ended;
                    }
                }
            }
            EventKind::Resume(w) => {
                drop(k);
                w.pid()
            }
            work => {
                if !kernel_event(shared, t, || k.run(work)) {
                    return Driven::Ended;
                }
                continue;
            }
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

/// Poll a blocking call's future. The no-op waker is enough: the call's
/// wake is one of dv-sim's own wakers, which it left in the kernel (a
/// [`Kernel::turn`] or an armed delay) before it returned `Pending`.
fn poll<F: Future + ?Sized>(call: Pin<&mut F>) -> Poll<F::Output> {
    call.poll(&mut Context::from_waker(std::task::Waker::noop()))
}

/// Run a committed `Call` or state event; `false` if it panicked, after
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
            let ctx = SimCtx { proc: Proc { pid, shared: thread_shared }, parker: thread_parker };
            let result = panic::catch_unwind(AssertUnwindSafe(|| body(&ctx)));
            match result {
                Ok(()) => on_finished(&ctx),
                Err(payload) => {
                    if payload.downcast_ref::<Shutdown>().is_some() {
                        // Normal teardown of a parked process.
                        return;
                    }
                    process_panicked(&ctx.proc.shared, ctx.pid(), payload.as_ref());
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
    let shared = &ctx.proc.shared;
    let live = shared.registry.lock().finish(ctx.pid());
    if live == 0 {
        // All work done; events still queued are never committed.
        shared.outcome.set(Outcome::Done);
    } else {
        // This thread holds the run token: keep driving until the token
        // moves on, then let the thread exit.
        let _ = drive(shared, None);
    }
}

/// Process `pid` panicked (with a non-shutdown payload), on its thread or
/// in its parked call.
fn process_panicked(shared: &Shared, pid: Pid, payload: &(dyn Any + Send)) {
    let name = shared.kernel.lock().proc_names[pid].clone();
    let msg = panic_message(payload);
    shared.outcome.set(Outcome::Abort(format!("simulated process '{name}' panicked: {msg}")));
}

/// Per-process capability: the handle a simulated process uses to read the
/// clock, advance time, park, and schedule events. One per process; not
/// shareable across processes.
pub struct SimCtx {
    proc: Proc,
    parker: Arc<Parker>,
}

impl SimCtx {
    /// This process's id.
    pub fn pid(&self) -> Pid {
        self.proc.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.proc.now()
    }

    /// Run a closure with the kernel locked (schedule events, fire wakers).
    pub fn with_kernel<R>(&self, f: impl FnOnce(&mut Kernel) -> R) -> R {
        self.proc.with(f)
    }

    /// A waker for this process's *current* park generation (what
    /// [`SimCtx::wait_for`] hands its `register`).
    pub fn waker(&self) -> Waker {
        self.proc.with(|k| k.waker_for(self.pid()))
    }

    /// Park until any waker for the current generation fires. Spurious
    /// wakeups are possible when several wakers were registered; callers
    /// must re-check their condition in a loop.
    ///
    /// Parking *is* dispatching: the calling thread drives the kernel until
    /// the run token moves to another process (or comes straight back —
    /// the self-resume fast path, zero context switches).
    pub fn park(&self) {
        match drive(&self.proc.shared, Some(self.pid())) {
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

    /// Run a blocking call on this thread: `call` is polled now, and again
    /// after each park, until it completes. It is the thread-run twin of
    /// [`SimCtx::wait_in_kernel`] over the same future: each of its waits
    /// is a [`Proc`] wait, which returns `Pending` only once a dv-sim
    /// waker for this process is armed, so a park always has a resume to
    /// return from. The future is pinned on this stack; nothing is boxed.
    pub fn block_on<F: Future>(&self, call: F) -> F::Output {
        let mut call = pin!(call);
        loop {
            if let Poll::Ready(out) = poll(call.as_mut()) {
                return out;
            }
            self.park();
        }
    }

    /// The one check-and-park wait under every condition a thread blocks
    /// on: [`Proc::turn`] run by [`SimCtx::block_on`], a [`Kernel::turn`]
    /// (see there for the order it keeps) per park. `ready` and `register`
    /// run with the kernel locked.
    pub fn wait_for<R>(
        &self,
        deadline: Option<Time>,
        ready: impl FnMut() -> Option<R>,
        register: impl FnMut(Waker),
    ) -> Option<R> {
        self.block_on(self.proc.turn(deadline, ready, register))
    }

    /// This process's handle for the futures it runs, on its thread
    /// ([`SimCtx::block_on`]) or in the kernel.
    pub fn proc(&self) -> Proc {
        self.proc.clone()
    }

    /// Run a blocking call in the kernel instead of on this thread: `call`
    /// is polled now, and then at every later resume of this process — in
    /// whichever thread is dispatching, with no lock held — until it
    /// completes; only then does this thread run again, with the output.
    /// The call is boxed once, pinned, before its first poll; one ready at
    /// that poll returns without parking.
    ///
    /// `call` reaches the kernel through a [`Proc`]: each operation takes
    /// the kernel lock for itself, and each wait is one of its waits,
    /// which return `Pending` only once a dv-sim waker is armed for the
    /// resume that polls the call again. A resume that polls the
    /// call is popped, audited, generation-bumped and counted exactly like
    /// one that grants the thread, so the same future commits the same
    /// events in the same order here as under [`SimCtx::block_on`], and
    /// saves one thread handoff per resume. Like every kernel closure, a
    /// call must not block. A panic in it is reported as this process's.
    pub fn wait_in_kernel<F>(&self, call: F) -> F::Output
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let p = self.proc();
        let mut call: ParkedCall = Box::pin(async move {
            let out = call.await;
            p.with(|k| k.put_output(p.pid, out));
        });
        if poll(call.as_mut()).is_pending() {
            self.with_kernel(|k| k.park_call(self.pid(), call));
            self.park();
        }
        self.with_kernel(|k| k.take_output(self.pid()))
    }

    /// Block until virtual time `t` (no-op if already past): [`Proc::until`]
    /// run by [`SimCtx::block_on`].
    pub fn wait_until(&self, t: Time) {
        self.block_on(self.proc.until(t));
    }

    /// Advance virtual time by `d` — the standard way to charge compute
    /// cost for work the process just (really) performed.
    pub fn delay(&self, d: Time) {
        self.block_on(self.proc.delay(d));
    }

    /// `delay(d1); delay(d2)` for a process that does nothing in between,
    /// at one resume instead of two: the first leg is a kernel-side hop
    /// (see [`Kernel::wake_after`]), so every other process observes the
    /// same event order, to the sequence number, as with the two calls.
    pub fn delay2(&self, d1: Time, d2: Time) {
        self.block_on(self.proc.delay2(d1, d2));
    }
}

/// A process inside a blocking call, run on its thread
/// ([`SimCtx::block_on`]) or in the kernel ([`SimCtx::wait_in_kernel`]):
/// what the call's future reaches the kernel through. Each method takes
/// the kernel lock for itself (the run token keeps the running thread
/// exclusive between two of them), so a call puts what it does at one
/// instant into one [`Proc::with`] or [`Proc::until_then`] where it can.
/// The waits return `Pending` only once a dv-sim waker for the process is
/// armed, and run their turn again at each poll.
#[derive(Clone)]
pub struct Proc {
    pid: Pid,
    shared: Arc<Shared>,
}

impl Proc {
    /// This process's id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.shared.kernel.lock().now()
    }

    /// Run a closure with the kernel locked (schedule events, fire wakers).
    pub fn with<R>(&self, f: impl FnOnce(&mut Kernel) -> R) -> R {
        f(&mut self.shared.kernel.lock())
    }

    /// Wait until the next resume of this process, whatever woke it: one
    /// [`SimCtx::park`]. The caller armed that resume.
    pub async fn resumed(&self) {
        let mut parked = false;
        poll_fn(|_| if std::mem::replace(&mut parked, true) { Poll::Ready(()) } else { Poll::Pending }).await;
    }

    /// Wait until virtual time `t`: one [`Kernel::until`] per poll.
    pub async fn until(&self, t: Time) {
        self.until_then(t, |_| ()).await;
    }

    /// [`Proc::until`], then `then` in the lock of the turn that ended the
    /// wait: what the call does at `t`, without a lock of its own.
    pub async fn until_then<R>(&self, t: Time, then: impl FnOnce(&mut Kernel) -> R) -> R {
        let mut then = Some(then);
        poll_fn(|_| {
            self.with(|k| match k.until(self.pid, t) {
                true => Poll::Ready(then.take().expect("a ready wait is not polled again")(k)),
                false => Poll::Pending,
            })
        })
        .await
    }

    /// Wait for a condition: one [`Kernel::turn`] per poll, `ready` and
    /// `register` run with the kernel locked.
    pub async fn turn<R>(
        &self,
        deadline: Option<Time>,
        mut ready: impl FnMut() -> Option<R>,
        mut register: impl FnMut(Waker),
    ) -> Option<R> {
        poll_fn(|_| match self.with(|k| k.turn(self.pid, deadline, &mut ready, &mut register)) {
            Some(r) => Poll::Ready(r),
            None => Poll::Pending,
        })
        .await
    }

    /// [`Proc::turn`] on the kernel-owned `S`: one [`Kernel::turn`] per
    /// poll, `ready` and `register` given the state (taken out as by
    /// [`Kernel::with_state`]).
    pub async fn turn_in<S: KernelState, R>(
        &self,
        deadline: Option<Time>,
        mut ready: impl FnMut(&mut S) -> Option<R>,
        mut register: impl FnMut(&mut S, Waker),
    ) -> Option<R> {
        let mut turn = |s: &mut S, k: &mut Kernel| k.turn_on(s, self.pid, deadline, &mut ready, &mut register);
        poll_fn(|_| match self.with(|k| k.with_state(&mut turn)) {
            Some(r) => Poll::Ready(r),
            None => Poll::Pending,
        })
        .await
    }

    /// Advance virtual time by `d`; returns the time it ended.
    pub async fn delay(&self, d: Time) -> Time {
        self.delay2(d, 0).await
    }

    /// [`SimCtx::delay2`]: the hop armed now, then a wait until the delay
    /// ends (re-checked: a waker the process left in some wait set may
    /// resume it first); returns that time.
    pub async fn delay2(&self, d1: Time, d2: Time) -> Time {
        let (now, target) = self.with(|k| (k.now(), k.arm_delay(self.pid, d1, d2)));
        let Some(target) = target else { return now };
        self.resumed().await;
        self.until_then(target, |k| k.now()).await
    }
}
