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
//!   one futex wait, versus the old engine's two context switches and two
//!   allocating channel sends per event). The wake is issued with no lock
//!   held — neither `sim.kernel` nor `sim.registry` nor a world lock — so
//!   the woken thread never queues behind the thread that woke it.
//! * The host thread drives until the first handoff, then sleeps until a
//!   driver reports the run's outcome (every process finished, deadlock,
//!   or a process panic).
//!
//! Nothing here looks at the host: the same code runs on one core and on
//! many.
//!
//! The frozen pre-sharding scheduler is kept verbatim behind
//! [`Engine::Reference`] (see [`crate::reference`]) as the determinism
//! oracle: both engines must produce bit-identical [`OrderAudit`] traces.
//!
//! [`OrderAudit`]: crate::audit::OrderAudit

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::sync::{Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;

use std::sync::mpsc::{channel, Receiver, Sender};

use dv_core::metrics::MetricsRegistry;
use dv_core::spec::Engine;
use dv_core::sync::Mutex;

use dv_core::time::Time;

use crate::kernel::{EventKind, Kernel, Pid, Waker};
use crate::parker::Parker;

/// Sentinel panic payload used to unwind parked processes at shutdown.
pub(crate) struct Shutdown;

pub(crate) enum Report {
    /// The resumed process parked again (the scheduler resumes one
    /// process at a time, so which one is implicit).
    Parked,
    Finished(Pid),
    Panicked(Pid, String),
}

/// How the engine hands a process the run token.
pub(crate) enum SlotWake {
    /// Cooperative engine: direct grant on the process's parker.
    Parker(Arc<Parker>),
    /// Reference engine: the historical `Sender<()>` resume handshake.
    Channel(Sender<()>),
}

pub(crate) struct ProcSlot {
    pub(crate) wake: SlotWake,
    pub(crate) handle: Option<JoinHandle<()>>,
    pub(crate) finished: bool,
}

pub(crate) struct Registry {
    pub(crate) slots: Vec<ProcSlot>,
    /// Processes spawned and not yet finished.
    live: usize,
}

impl Registry {
    /// Mark `pid` finished; returns how many processes are still live.
    pub(crate) fn finish(&mut self, pid: Pid) -> usize {
        self.slots[pid].finished = true;
        self.live -= 1;
        self.live
    }
}

/// The deadlock report for a drained queue: `None` when every process
/// finished, else a message naming the unfinished ones (both engines).
/// Takes the pids under the registry lock alone, then resolves names under
/// the kernel lock alone — holding both invites lock-order trouble
/// (DV-W012) for no benefit on this cold error path.
pub(crate) fn deadlock_message(shared: &Shared) -> Option<String> {
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

/// Terminal state of a cooperative-engine run, reported by whichever thread
/// discovers it.
#[derive(Clone)]
enum Outcome {
    /// Every process finished.
    Done,
    /// Deadlock or simulated-process panic; the message is pre-formatted
    /// and re-panicked on the host thread.
    Abort(String),
}

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
    pub(crate) engine: Engine,
    pub(crate) kernel: Mutex<Kernel>,
    pub(crate) registry: Mutex<Registry>,
    /// Fixed when the `Sim` is built; scheduler counters land here.
    pub(crate) metrics: Arc<MetricsRegistry>,
    /// Reference engine only: park/finish/panic reports to the scheduler.
    pub(crate) report_tx: Sender<Report>,
    /// Cooperative engine only: terminal state, host sleeps on it.
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
    pub(crate) report_rx: Receiver<Report>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Fresh simulation at virtual time zero on the cooperative engine.
    pub fn new() -> Self {
        Self::with_engine(Engine::Cooperative)
    }

    /// Fresh simulation on a specific engine. The choice never changes
    /// results — only the trace hash proves it, and the root invariance
    /// tests hold that proof.
    pub fn with_engine(engine: Engine) -> Self {
        Self::build(engine, MetricsRegistry::disabled_shared())
    }

    /// A fresh simulation whose scheduler counters are published into
    /// `metrics` as `sim.sched.*` at the end of [`Sim::run_hashed`].
    pub(crate) fn build(engine: Engine, metrics: Arc<MetricsRegistry>) -> Self {
        let (report_tx, report_rx) = channel();
        let shared = Arc::new(Shared {
            engine,
            kernel: Mutex::new_named("sim.kernel", Kernel::new()),
            registry: Mutex::new_named("sim.registry", Registry { slots: Vec::new(), live: 0 }),
            metrics,
            report_tx,
            outcome: OutcomeCell::new(),
        });
        Self { shared, report_rx }
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
    /// hashes, regardless of host scheduling, thread count, or engine
    /// choice.
    ///
    /// [`OrderAudit`]: crate::audit::OrderAudit
    pub fn run_hashed(self) -> (Time, u64) {
        if matches!(self.shared.engine, Engine::Reference) {
            return self.run_reference();
        }
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
    pub(crate) fn shutdown(&self) {
        let mut handles = Vec::new();
        {
            let mut reg = self.shared.registry.lock();
            for slot in reg.slots.iter_mut() {
                match &mut slot.wake {
                    SlotWake::Parker(p) => p.shutdown(),
                    SlotWake::Channel(tx) => {
                        // Dropping the sender makes the thread's recv()
                        // fail, which park() turns into a Shutdown unwind.
                        let (dead_tx, _) = channel();
                        *tx = dead_tx;
                    }
                }
                if let Some(h) = slot.handle.take() {
                    handles.push(h);
                }
            }
        }
        for h in handles {
            let _ = h.join();
        }
        // Drain any reports raced in during shutdown.
        while self.report_rx.try_recv().is_ok() {}
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

/// End-of-run metrics publication + final clock/hash read (both engines).
pub(crate) fn publish_and_hash(shared: &Shared) -> (Time, u64) {
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
/// commit order, and therefore the audit hash, deterministic.
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
        match next {
            None => {
                shared.outcome.set(deadlock_message(shared).map_or(Outcome::Done, Outcome::Abort));
                return Driven::Ended;
            }
            Some((_t, EventKind::Call(f))) => {
                f(&mut shared.kernel.lock());
            }
            Some((_t, EventKind::Timer(id))) => {
                let mut k = shared.kernel.lock();
                if let Some(mut hook) = k.take_timer_hook(id) {
                    hook(&mut k);
                    k.put_timer_hook(id, hook);
                }
            }
            Some((_t, EventKind::Hop(..))) => unreachable!("pop_valid consumes hops"),
            Some((_t, EventKind::Resume(w))) => {
                // Take the target's parker and drop the registry guard first:
                // the wake is issued with no lock held, or the woken thread
                // queues behind a granter that is no longer running.
                let target = {
                    let reg = shared.registry.lock();
                    let slot = &reg.slots[w.pid()];
                    if slot.finished {
                        // The resume was committed (audit + stats) exactly as
                        // the reference engine commits it, then skipped.
                        continue;
                    }
                    if self_pid == Some(w.pid()) {
                        return Driven::RunSelf;
                    }
                    let SlotWake::Parker(p) = &slot.wake else {
                        unreachable!("reference slots cannot appear in the cooperative dispatcher")
                    };
                    Arc::clone(p)
                };
                target.grant();
                return Driven::HandedOff;
            }
        }
    }
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
    let (wake, wait) = match shared.engine {
        Engine::Cooperative => {
            let parker = Arc::new(Parker::new());
            (SlotWake::Parker(Arc::clone(&parker)), CtxWait::Parker(parker))
        }
        Engine::Reference => {
            let (resume_tx, resume_rx) = channel::<()>();
            (SlotWake::Channel(resume_tx), CtxWait::Channel(resume_rx))
        }
    };
    let thread_shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("sim-{name}"))
        .spawn(move || {
            // Wait for the initial resume before touching anything.
            let started = match &wait {
                CtxWait::Parker(p) => p.wait().is_ok(),
                CtxWait::Channel(rx) => rx.recv().is_ok(),
            };
            if !started {
                return; // simulation torn down before we started
            }
            let ctx = SimCtx { pid, shared: thread_shared, wait };
            let result = panic::catch_unwind(AssertUnwindSafe(|| body(&ctx)));
            match result {
                Ok(()) => on_finished(&ctx),
                Err(payload) => {
                    if payload.downcast_ref::<Shutdown>().is_some() {
                        // Normal teardown of a parked process.
                        return;
                    }
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "<non-string panic payload>".into());
                    on_panicked(&ctx, msg);
                }
            }
        })
        .expect("failed to spawn simulation thread");

    let mut reg = shared.registry.lock();
    debug_assert_eq!(reg.slots.len(), pid);
    reg.slots.push(ProcSlot { wake, handle: Some(handle), finished: false });
    reg.live += 1;
    pid
}

/// A process body returned normally.
fn on_finished(ctx: &SimCtx) {
    match ctx.wait {
        CtxWait::Channel(_) => {
            let _ = ctx.shared.report_tx.send(Report::Finished(ctx.pid));
        }
        CtxWait::Parker(_) => {
            let live = ctx.shared.registry.lock().finish(ctx.pid);
            if live == 0 {
                // All work done; events still queued are never committed
                // (same cut as the reference engine's scheduler loop).
                ctx.shared.outcome.set(Outcome::Done);
            } else {
                // This thread holds the run token: keep driving until the
                // token moves on, then let the thread exit.
                let _ = drive(&ctx.shared, None);
            }
        }
    }
}

/// A process body panicked (with a non-shutdown payload).
fn on_panicked(ctx: &SimCtx, msg: String) {
    match ctx.wait {
        CtxWait::Channel(_) => {
            let _ = ctx.shared.report_tx.send(Report::Panicked(ctx.pid, msg));
        }
        CtxWait::Parker(_) => {
            let name = ctx.shared.kernel.lock().proc_names[ctx.pid].clone();
            ctx.shared
                .outcome
                .set(Outcome::Abort(format!("simulated process '{name}' panicked: {msg}")));
        }
    }
}

/// How a process waits for its resume — the per-engine half of
/// [`SlotWake`].
enum CtxWait {
    Parker(Arc<Parker>),
    Channel(Receiver<()>),
}

/// Per-process capability: the handle a simulated process uses to read the
/// clock, advance time, park, and schedule events. One per process; not
/// shareable across processes.
pub struct SimCtx {
    pid: Pid,
    shared: Arc<Shared>,
    wait: CtxWait,
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
    /// On the cooperative engine, parking *is* dispatching: the calling thread
    /// drives the kernel until the run token moves to another process (or
    /// comes straight back — the self-resume fast path, zero context
    /// switches).
    pub fn park(&self) {
        match &self.wait {
            CtxWait::Parker(p) => match drive(&self.shared, Some(self.pid)) {
                Driven::RunSelf => {}
                Driven::HandedOff | Driven::Ended => {
                    if p.wait().is_err() {
                        // Simulation is shutting down: unwind this thread.
                        panic::panic_any(Shutdown);
                    }
                }
            },
            CtxWait::Channel(rx) => {
                let _ = self.shared.report_tx.send(Report::Parked);
                if rx.recv().is_err() {
                    // Simulation is shutting down: unwind this thread.
                    panic::panic_any(Shutdown);
                }
            }
        }
    }

    /// The one check-and-park loop under every blocking wait. Each turn:
    /// `ready()` first (a condition met at the deadline wins); then, past
    /// `deadline`, `None` with no waker registered and no event pushed (a
    /// stale wake would still draw a sequence number the trace hashes);
    /// else the current waker goes to `register`, the deadline is armed,
    /// and the process parks.
    pub fn wait_for<R>(
        &self,
        deadline: Option<Time>,
        mut ready: impl FnMut() -> Option<R>,
        mut register: impl FnMut(Waker),
    ) -> Option<R> {
        loop {
            if let Some(r) = ready() {
                return Some(r);
            }
            let (now, waker) = self.with_kernel(|k| (k.now(), k.waker_for(self.pid)));
            if deadline.is_some_and(|d| now >= d) {
                return None;
            }
            register(waker);
            if let Some(d) = deadline {
                self.with_kernel(|k| k.wake_at(d, waker));
            }
            self.park();
        }
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
        if d1 + d2 == 0 {
            return;
        }
        let target = {
            let mut k = self.shared.kernel.lock();
            let now = k.now();
            let w = k.waker_for(self.pid);
            if d1 == 0 || d2 == 0 {
                k.wake_at(now + d1 + d2, w);
            } else {
                k.wake_after(now + d1, w, d2);
            }
            now + d1 + d2
        };
        self.park();
        // Re-check, as every blocking primitive does: a waker this process
        // left in some wait queue before calling may have fired first.
        self.wait_until(target);
    }
}
