//! The event kernel: virtual clock, event queue, wakers, timers, and the
//! simulation state the layers above own through it.
//!
//! Pending events live in one binary heap keyed by `(time, seq)`, where
//! `seq` is the insertion sequence number. The earliest key commits next,
//! so the committed order — and therefore the [`OrderAudit`] trace hash —
//! is a pure function of the order in which events were scheduled.
//!
//! Besides resumes, the kernel commits three kinds of kernel-side work,
//! which hash and count alike: a boxed closure ([`Kernel::call_at`]), a
//! pooled timer hook (`timer_at`), and a *state event*
//! ([`Kernel::state_at`]) — a plain `(state, token)` pair that calls
//! [`KernelState::fire`] on an installed state. A layer with a steady
//! stream of kernel-side work (a cluster's packet deliveries) keeps what
//! each event needs in its own state, keyed by the token, and schedules
//! state events: nothing is boxed per event.

use std::any::{type_name, Any, TypeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;

use dv_core::metrics::MetricsRegistry;
use dv_core::time::Time;

use crate::audit::OrderAudit;

/// Identifier of a simulated process.
pub type Pid = usize;

/// A one-shot handle to wake a parked process.
///
/// A waker is stamped with the *park generation* of the process at the time
/// it was created; if the process has been woken since (its generation
/// advanced), firing the waker is a silent no-op. This makes it safe to
/// leave stale wakers behind in wait queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waker {
    pub(crate) pid: Pid,
    pub(crate) generation: u64,
}

impl Waker {
    /// The process this waker targets.
    pub fn pid(&self) -> Pid {
        self.pid
    }
}

/// Handle to a pooled timer hook (see [`Kernel::register_timer`]).
///
/// A timer is the allocation-free sibling of [`Kernel::call_at`]: the hook
/// closure is boxed **once** at registration, and each [`Kernel::timer_at`]
/// schedules a plain copyable event that re-runs it. Components with a
/// steady stream of deliveries (ports, NIC engines) register one hook and
/// stage their payloads in their own pooled buffers, so the per-message
/// steady state allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TimerId(u32);

type TimerHook = Box<dyn FnMut(&mut Kernel) + Send>;

/// Simulation state the kernel owns for a layer above dv-sim: a cluster's
/// VICs, pipes and barrier, an MPI world's receive slots and requests.
/// The layer installs one value per type ([`Kernel::install`]) and reaches
/// it only with `&mut Kernel` — inside [`Proc::with`](crate::Proc::with),
/// a [`Kernel::turn`], or a kernel event — through
/// [`Kernel::with_state`]. One process runs at a time, so the state needs
/// no lock of its own.
///
/// A state may also schedule its own kernel events: [`Kernel::state_at`]
/// queues a `token`, and when that event commits the kernel hands the
/// token back to [`KernelState::fire`], with the state taken out as by
/// [`Kernel::with_state`]. What the event is to do lives in the state,
/// keyed by the token, so a state event boxes nothing.
pub trait KernelState: Any + Send {
    /// Fold what the state accumulated since its last flush into
    /// `metrics`: run just before each interval sample of an attached
    /// series, never otherwise. Nothing, by default.
    fn flush(&mut self, _metrics: &MetricsRegistry) {}

    /// Run the state event `token` that [`Kernel::state_at`] scheduled,
    /// at its commit. Like a [`Kernel::call_at`] closure, it may schedule
    /// events and fire wakers but must not block.
    ///
    /// # Panics
    /// By default: a state that schedules no state events gets none.
    fn fire(&mut self, _kernel: &mut Kernel, token: u32) {
        panic!("{} schedules no state events, yet event {token} fired", type_name::<Self>());
    }
}

/// One entry of the kernel's typed-state table.
struct Slot {
    ty: TypeId,
    /// `None` while a [`Kernel::with_state`] closure has the state out.
    state: Option<Box<dyn KernelState>>,
}

/// Where kernel-run calls leave their output for their process's thread:
/// one per output type, indexed by pid, kept for every later call that
/// returns a `T`.
struct Outputs<T>(Vec<Option<T>>);

impl<T: Send + 'static> KernelState for Outputs<T> {}

/// A blocking call's future, parked in the kernel while its process
/// waits (see [`SimCtx::wait_in_kernel`](crate::SimCtx::wait_in_kernel)).
pub(crate) type ParkedCall = Pin<Box<dyn Future<Output = ()> + Send>>;

pub(crate) enum EventKind {
    Resume(Waker),
    /// A valid resume of a process whose blocking call is parked in the
    /// kernel, with the call taken out for the dispatcher to poll:
    /// returned by `pop_valid` in place of its `Resume`, never queued.
    Step(Pid, ParkedCall),
    Call(Box<dyn FnOnce(&mut Kernel) + Send>),
    Timer(TimerId),
    /// A state event (see [`Kernel::state_at`]): the typed-state slot
    /// and the token its [`KernelState::fire`] gets.
    State(u32, u32),
    /// A *hop* (see [`Kernel::wake_after`]): committing it schedules
    /// `Resume(waker)` this much later. Consumed inside `pop_valid`; the
    /// dispatchers never see one.
    Hop(Waker, Time),
}

struct Event {
    time: Time,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. Sequence numbers break ties deterministically (FIFO).
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Scheduler activity counters, kept as plain integers so the hot
/// `pop_valid` loop pays no metrics overhead; `dv-sim` publishes them
/// into a `MetricsRegistry` once at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Committed `Resume` events (process wakeups that actually ran).
    pub resumes: u64,
    /// Committed `Call`, `Timer`, state and hop events (kernel-side
    /// work).
    pub calls: u64,
    /// Resume and hop events discarded because their waker generation was
    /// stale.
    pub stale_wakeups: u64,
    /// Processes registered with the kernel.
    pub processes: u64,
    /// Committed resumes that ran a process's thread — a grant, or the
    /// self-resume fast path — rather than only a poll of its parked call.
    /// Host-side evidence of thread handoffs: never published, so no
    /// `sim.sched.*` artifact depends on how a wait is executed.
    pub thread_resumes: u64,
}

/// The discrete-event kernel: the virtual clock, the pending-event queue,
/// and the simulation state it owns ([`KernelState`]). Shared behind a
/// mutex; only one simulated process commits events at a time, so the lock
/// is uncontended in steady state.
pub struct Kernel {
    now: Time,
    seq: u64,
    queue: BinaryHeap<Event>,
    /// Park generation per process; a `Resume` event only fires if its
    /// waker's generation matches.
    pub(crate) park_generation: Vec<u64>,
    pub(crate) proc_names: Vec<String>,
    timer_hooks: Vec<Option<TimerHook>>,
    /// Each process's parked blocking call, if any.
    calls: Vec<Option<ParkedCall>>,
    /// The typed-state table: every [`KernelState`], the calls' output
    /// tables among them, in install order.
    states: Vec<Slot>,
    /// Rolling hash of every committed event (see [`OrderAudit`]).
    audit: OrderAudit,
    stats: SchedStats,
    /// Every commit as `(time, seq, kind)`, kind one of `b"rch"` (resume,
    /// call/timer/state event, hop) — the evidence the hop-exactness property test
    /// compares.
    #[cfg(test)]
    pub(crate) commits: Vec<(Time, u64, u8)>,
}

impl Kernel {
    pub(crate) fn new() -> Self {
        Self {
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            park_generation: Vec::new(),
            proc_names: Vec::new(),
            timer_hooks: Vec::new(),
            calls: Vec::new(),
            states: Vec::new(),
            audit: OrderAudit::new(),
            stats: SchedStats::default(),
            #[cfg(test)]
            commits: Vec::new(),
        }
    }

    /// Scheduler activity counters accumulated so far.
    pub fn sched_stats(&self) -> SchedStats {
        self.stats
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// FNV hash of the event trace committed so far. Identical workloads
    /// must yield identical hashes — the runtime determinism check.
    pub fn trace_hash(&self) -> u64 {
        self.audit.hash()
    }

    /// Number of events committed to the trace so far.
    pub fn trace_events(&self) -> u64 {
        self.audit.events()
    }

    fn push(&mut self, time: Time, kind: EventKind) {
        let time = time.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { time, seq, kind });
    }

    /// Schedule a closure to run inside the kernel at virtual time `at`
    /// (clamped to `now`). Closures run with the kernel locked: they may
    /// mutate shared state and fire wakers but must not block.
    pub fn call_at(&mut self, at: Time, f: impl FnOnce(&mut Kernel) + Send + 'static) {
        self.push(at, EventKind::Call(Box::new(f)));
    }

    /// Schedule a state event of the installed `S` at virtual time `at`
    /// (clamped to `now`): when it commits, [`KernelState::fire`] runs on
    /// that state with `token`. It commits exactly like a
    /// [`Kernel::call_at`] closure — same audit record, same `calls`
    /// counter, a panic reported as a kernel event's — but allocates
    /// nothing. `S` may be out in a [`Kernel::with_state`] closure (the
    /// usual caller) when this is called.
    ///
    /// # Panics
    /// If no `S` is installed.
    pub fn state_at<S: KernelState>(&mut self, at: Time, token: u32) {
        let i = self.slot::<S>().unwrap_or_else(|| panic!("no {} is installed in this kernel", type_name::<S>()));
        self.push(at, EventKind::State(i as u32, token));
    }

    /// Run committed kernel-side work that [`Kernel::pop_valid`] handed
    /// out: a closure, a timer's hook, or a state event's
    /// [`KernelState::fire`] on its state, taken out for the call as by
    /// [`Kernel::with_state`].
    pub(crate) fn run(&mut self, work: EventKind) {
        match work {
            EventKind::Call(f) => f(self),
            EventKind::Timer(id) => {
                if let Some(mut hook) = self.timer_hooks[id.0 as usize].take() {
                    hook(self);
                    self.timer_hooks[id.0 as usize] = Some(hook);
                }
            }
            EventKind::State(i, token) => {
                let i = i as usize;
                let mut state = self.states[i].state.take().expect("no state is out between events");
                state.fire(self, token);
                self.states[i].state = Some(state);
            }
            EventKind::Resume(_) | EventKind::Step(..) | EventKind::Hop(..) => {
                unreachable!("resumes, steps and hops are no kernel-side work")
            }
        }
    }

    /// Register a pooled timer hook; returns its [`TimerId`]. The hook is
    /// re-run (with the kernel locked) each time a [`Kernel::timer_at`]
    /// event for this id commits. It must not block, and it observes the
    /// same ordering guarantees as [`Kernel::call_at`] closures.
    pub(crate) fn register_timer(&mut self, hook: Box<dyn FnMut(&mut Kernel) + Send>) -> TimerId {
        let id = TimerId(self.timer_hooks.len() as u32);
        self.timer_hooks.push(Some(hook));
        id
    }

    /// Schedule a firing of a registered timer at virtual time `at`
    /// (clamped to `now`). Commits exactly like a [`Kernel::call_at`]
    /// closure — same audit record, same `calls` counter — but allocates
    /// nothing.
    pub(crate) fn timer_at(&mut self, at: Time, id: TimerId) {
        self.push(at, EventKind::Timer(id));
    }

    /// Fire a waker at virtual time `at` (clamped to `now`).
    pub fn wake_at(&mut self, at: Time, waker: Waker) {
        self.push(at, EventKind::Resume(waker));
    }

    /// Fire a waker at the current virtual time.
    pub fn wake(&mut self, waker: Waker) {
        self.wake_at(self.now, waker);
    }

    /// Fire a waker at `at + then`, by way of a *hop* at `at` — the exact
    /// kernel-side replacement for a process that is woken at `at` only to
    /// call [`SimCtx::delay`](crate::SimCtx::delay)`(then)` straight away.
    ///
    /// The hop is an event of its own: it commits at `at` in the queue
    /// position the intermediate resume would have had, and that commit
    /// pushes the final resume — so the final resume gets the sequence
    /// number the process's own `wake_at` would have drawn, and every
    /// same-picosecond tie resolves as it did with the process in the
    /// loop. (A plain `wake_at(at + then)` issued up front draws an earlier
    /// sequence number and reorders those ties.) A hop hashes and counts
    /// like a [`Kernel::call_at`] closure, allocates nothing, and runs on no
    /// thread; a hop whose waker went stale is dropped like a stale resume.
    pub fn wake_after(&mut self, at: Time, waker: Waker, then: Time) {
        self.push(at, EventKind::Hop(waker, then));
    }

    /// Schedule `pid`'s resume for [`SimCtx::delay2`](crate::SimCtx::delay2)`(d1, d2)`
    /// — a hop at `now + d1` when both legs are non-zero, else a plain
    /// wake-up — and return when the delay ends: the time the process,
    /// once parked and resumed, waits until (it re-checks; an earlier
    /// wake-up left in some wait set may resume it first). `None`, with
    /// nothing scheduled, for a zero delay.
    pub fn arm_delay(&mut self, pid: Pid, d1: Time, d2: Time) -> Option<Time> {
        if d1 + d2 == 0 {
            return None;
        }
        let w = self.waker_for(pid);
        if d1 == 0 || d2 == 0 {
            self.wake_at(self.now + d1 + d2, w);
        } else {
            self.wake_after(self.now + d1, w, d2);
        }
        Some(self.now + d1 + d2)
    }

    /// Current waker for a process (see [`Waker`] for staleness rules).
    pub fn waker_for(&self, pid: Pid) -> Waker {
        Waker { pid, generation: self.park_generation[pid] }
    }

    /// One turn of a blocking wait of process `pid` — the one place that
    /// holds the order every wait depends on. `ready()` first: a condition
    /// met at or past the deadline wins, `Some(Some(r))`. Then, past
    /// `deadline`, `Some(None)` with no waker registered and no event
    /// pushed (a stale wake would still draw a sequence number the trace
    /// hashes). Else the current waker goes to `register`, the deadline is
    /// armed, and `None` says the process is to park; it re-runs the turn
    /// at its next resume, which may be an early one. `ready` and
    /// `register` run with the kernel locked: they must not call back into
    /// it.
    pub fn turn<R>(
        &mut self,
        pid: Pid,
        deadline: Option<Time>,
        ready: impl FnOnce() -> Option<R>,
        register: impl FnOnce(Waker),
    ) -> Option<Option<R>> {
        self.turn_on(&mut (), pid, deadline, |_| ready(), |_, w| register(w))
    }

    /// The turn itself, with `ready` and `register` sharing `cx`.
    pub(crate) fn turn_on<C, R>(
        &mut self,
        cx: &mut C,
        pid: Pid,
        deadline: Option<Time>,
        ready: impl FnOnce(&mut C) -> Option<R>,
        register: impl FnOnce(&mut C, Waker),
    ) -> Option<Option<R>> {
        if let Some(r) = ready(cx) {
            return Some(Some(r));
        }
        if deadline.is_some_and(|d| self.now >= d) {
            return Some(None);
        }
        let w = self.waker_for(pid);
        register(cx, w);
        if let Some(d) = deadline {
            self.wake_at(d, w);
        }
        None
    }

    /// One turn of a wait of `pid` until virtual time `t`: `true` once `t`
    /// has come, else its resume at `t` is armed (again, after an early
    /// wake-up).
    pub fn until(&mut self, pid: Pid, t: Time) -> bool {
        self.turn(pid, Some(t), || None::<()>, |_| {}).is_some()
    }

    /// Park `pid`'s blocking call: each later resume of `pid` hands it to
    /// the dispatcher to poll.
    pub(crate) fn park_call(&mut self, pid: Pid, call: ParkedCall) {
        debug_assert!(self.calls[pid].is_none(), "one parked call at a time");
        self.calls[pid] = Some(call);
    }

    /// Park `pid`'s call again after a poll at its resume left it pending:
    /// that resume did not reach the process's thread after all.
    pub(crate) fn repark_call(&mut self, pid: Pid, call: ParkedCall) {
        self.stats.thread_resumes -= 1;
        self.park_call(pid, call);
    }

    fn slot<S: 'static>(&self) -> Option<usize> {
        self.states.iter().position(|slot| slot.ty == TypeId::of::<S>())
    }

    /// Install `state`, the kernel's one value of its type, for
    /// [`Kernel::with_state`] to reach.
    ///
    /// # Panics
    /// If a state of this type is installed already.
    pub fn install<S: KernelState>(&mut self, state: S) {
        assert!(self.slot::<S>().is_none(), "a {} is installed in this kernel already", type_name::<S>());
        self.states.push(Slot { ty: TypeId::of::<S>(), state: Some(Box::new(state)) });
    }

    /// Whether a state of type `S` is installed.
    pub fn has_state<S: KernelState>(&self) -> bool {
        self.slot::<S>().is_some()
    }

    /// Run `f` on the installed state of type `S`. The state is taken out
    /// for the call and put back after it, so `f` gets the kernel too and
    /// may schedule events and fire wakers.
    ///
    /// # Panics
    /// If no `S` is installed, or if `f` (or something it calls) reaches
    /// for the same `S` again.
    pub fn with_state<S: KernelState, R>(&mut self, f: impl FnOnce(&mut S, &mut Kernel) -> R) -> R {
        let i = self.slot::<S>().unwrap_or_else(|| panic!("no {} is installed in this kernel", type_name::<S>()));
        let mut state =
            self.states[i].state.take().unwrap_or_else(|| panic!("{} re-entered its own with_state", type_name::<S>()));
        let out = f((state.as_mut() as &mut dyn Any).downcast_mut().expect("a slot holds its own type"), self);
        self.states[i].state = Some(state);
        out
    }

    /// Flush every installed state into `metrics`, in install order
    /// ([`KernelState::flush`]).
    pub(crate) fn flush_states(&mut self, metrics: &MetricsRegistry) {
        for slot in &mut self.states {
            slot.state.as_mut().expect("no state is out between events").flush(metrics);
        }
    }

    /// The output table of type `T`, installed by the first call that
    /// returns one.
    fn outputs_of<T: Send + 'static>(&mut self) -> &mut Vec<Option<T>> {
        let i = self.slot::<Outputs<T>>().unwrap_or_else(|| {
            let procs = self.calls.len();
            self.install(Outputs::<T>((0..procs).map(|_| None).collect()));
            self.states.len() - 1
        });
        let state = self.states[i].state.as_mut().expect("an output table is never taken out");
        let outputs: &mut Outputs<T> = (state.as_mut() as &mut dyn Any).downcast_mut().expect("a slot holds its own type");
        &mut outputs.0
    }

    /// Leave the output of `pid`'s completed call for its thread.
    pub(crate) fn put_output<T: Send + 'static>(&mut self, pid: Pid, value: T) {
        self.outputs_of()[pid] = Some(value);
    }

    /// Take the output of `pid`'s completed call.
    pub(crate) fn take_output<T: Send + 'static>(&mut self, pid: Pid) -> T {
        self.outputs_of()[pid].take().expect("a completed call left its output")
    }

    /// Take every parked call out, for a torn-down run to drop: their
    /// futures hold the simulation alive.
    pub(crate) fn take_calls(&mut self) -> Vec<Option<ParkedCall>> {
        std::mem::take(&mut self.calls)
    }

    pub(crate) fn register_process(&mut self, name: String) -> Pid {
        let pid = self.park_generation.len();
        self.park_generation.push(0);
        self.proc_names.push(name);
        self.calls.push(None);
        self.stats.processes += 1;
        pid
    }

    /// Pop the next *valid* event, advancing the clock. Stale resumes are
    /// discarded. For a valid resume, the target's park generation is
    /// advanced so any duplicate wakeups for the same park become stale;
    /// it comes back as [`EventKind::Step`], its call taken out, when the
    /// target's blocking call is parked here. Hops are committed here and
    /// never returned: a valid one pushes its resume and the loop moves on.
    pub(crate) fn pop_valid(&mut self) -> Option<(Time, EventKind)> {
        while let Some(ev) = self.queue.pop() {
            debug_assert!(ev.time >= self.now, "time went backwards");
            match ev.kind {
                EventKind::Resume(w) => {
                    if self.park_generation[w.pid] == w.generation {
                        self.park_generation[w.pid] = w.generation.wrapping_add(1);
                        self.now = ev.time;
                        self.audit.record_resume(ev.time, w.pid, w.generation);
                        self.stats.resumes += 1;
                        #[cfg(test)]
                        self.commits.push((ev.time, ev.seq, b'r'));
                        // Counted as reaching the thread until a poll of
                        // the call says otherwise (`repark_call`).
                        self.stats.thread_resumes += 1;
                        if let Some(call) = self.calls[w.pid].take() {
                            return Some((ev.time, EventKind::Step(w.pid, call)));
                        }
                        return Some((ev.time, EventKind::Resume(w)));
                    }
                    // Stale wakeup: drop silently (but count it).
                    self.stats.stale_wakeups += 1;
                }
                EventKind::Hop(w, then) => {
                    if self.park_generation[w.pid] == w.generation {
                        self.now = ev.time;
                        self.audit.record_call(ev.time, ev.seq);
                        self.stats.calls += 1;
                        #[cfg(test)]
                        self.commits.push((ev.time, ev.seq, b'h'));
                        self.push(ev.time + then, EventKind::Resume(w));
                    } else {
                        self.stats.stale_wakeups += 1;
                    }
                }
                EventKind::Step(..) => unreachable!("steps are never queued"),
                kind @ (EventKind::Call(_) | EventKind::Timer(_) | EventKind::State(..)) => {
                    self.now = ev.time;
                    self.audit.record_call(ev.time, ev.seq);
                    self.stats.calls += 1;
                    #[cfg(test)]
                    self.commits.push((ev.time, ev.seq, b'c'));
                    return Some((ev.time, kind));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_then_fifo_order() {
        let mut k = Kernel::new();
        let order = std::sync::Arc::new(dv_core::sync::Mutex::new(Vec::new()));
        for (tag, t) in [(0u32, 50u64), (1, 10), (2, 10), (3, 30)] {
            let order = order.clone();
            k.call_at(t, move |_| order.lock().push(tag));
        }
        while let Some((_, work)) = k.pop_valid() {
            k.run(work);
        }
        // t=10 events in insertion order (1 before 2), then 30, then 50.
        assert_eq!(*order.lock(), vec![1, 2, 3, 0]);
        assert_eq!(k.now(), 50);
    }

    #[test]
    fn clock_clamps_past_times_to_now() {
        let mut k = Kernel::new();
        k.call_at(100, |_| {});
        let _ = k.pop_valid();
        assert_eq!(k.now(), 100);
        // Scheduling "in the past" lands at now.
        k.call_at(5, |_| {});
        let (t, _) = k.pop_valid().unwrap();
        assert_eq!(t, 100);
    }

    #[test]
    fn stale_wakers_are_dropped() {
        let mut k = Kernel::new();
        let pid = k.register_process("p".into());
        let w = k.waker_for(pid);
        k.wake_at(10, w);
        k.wake_at(20, w); // duplicate for the same park
        let (t, kind) = k.pop_valid().unwrap();
        assert_eq!(t, 10);
        assert!(matches!(kind, EventKind::Resume(_)));
        // The duplicate is now stale.
        assert!(k.pop_valid().is_none());
        assert_eq!(k.now(), 10, "stale events should not advance the clock past valid ones");
    }

    /// A hop whose process was already resumed by another waker of the same
    /// park is dropped and counted, never a second resume.
    #[test]
    fn stale_hops_are_dropped_and_counted() {
        let mut k = Kernel::new();
        let pid = k.register_process("p".into());
        let w = k.waker_for(pid);
        k.wake_after(10, w, 5);
        k.wake_at(7, w);
        assert!(matches!(k.pop_valid(), Some((7, EventKind::Resume(_)))));
        assert!(k.pop_valid().is_none(), "the hop must not resume the process again");
        assert_eq!(k.now(), 7, "a stale hop does not advance the clock");
        let stats = k.sched_stats();
        assert_eq!((stats.resumes, stats.calls, stats.stale_wakeups), (1, 0, 1));

        // The other way round: the hop commits, then a duplicate wake-up
        // pre-empts its resume, which goes stale in turn.
        let w = k.waker_for(pid);
        k.wake_after(20, w, 5);
        k.wake_at(22, w);
        assert!(matches!(k.pop_valid(), Some((22, EventKind::Resume(_)))));
        assert!(k.pop_valid().is_none());
        let stats = k.sched_stats();
        assert_eq!((stats.resumes, stats.calls, stats.stale_wakeups), (2, 1, 2));
    }

    #[test]
    fn hops_commit_like_calls_and_push_the_resume() {
        let mut k = Kernel::new();
        let pid = k.register_process("p".into());
        let w = k.waker_for(pid);
        k.wake_after(10, w, 5);
        k.call_at(12, |_| {});
        // The hop at 10 is consumed inside pop_valid; the call at 12 is the
        // first event handed out, the hop's resume at 15 the second.
        assert!(matches!(k.pop_valid(), Some((12, EventKind::Call(_)))));
        assert_eq!(k.sched_stats().calls, 2, "a hop counts as a call");
        assert_eq!(k.trace_events(), 2);
        assert!(matches!(k.pop_valid(), Some((15, EventKind::Resume(_)))));
        assert_eq!(k.sched_stats().resumes, 1);
    }

    #[test]
    fn wakers_for_new_generation_fire() {
        let mut k = Kernel::new();
        let pid = k.register_process("p".into());
        let w0 = k.waker_for(pid);
        k.wake_at(10, w0);
        let _ = k.pop_valid().unwrap(); // generation now 1
        let w1 = k.waker_for(pid);
        assert_ne!(w0, w1);
        k.wake_at(30, w1);
        assert!(matches!(k.pop_valid(), Some((30, EventKind::Resume(_)))));
    }

    #[test]
    fn timers_commit_like_calls() {
        let mut k = Kernel::new();
        let fired = std::sync::Arc::new(dv_core::sync::Mutex::new(0u32));
        let f2 = fired.clone();
        let id = k.register_timer(Box::new(move |_| *f2.lock() += 1));
        k.timer_at(10, id);
        k.timer_at(30, id);
        for _ in 0..2 {
            match k.pop_valid() {
                Some((_, timer @ EventKind::Timer(_))) => k.run(timer),
                other => panic!("expected timer, got {:?}", other.map(|(t, _)| t)),
            }
        }
        assert_eq!(*fired.lock(), 2);
        assert_eq!(k.sched_stats().calls, 2, "timers count as calls");
        assert_eq!(k.now(), 30);
    }

    /// A seeded script of pushes and interleaved commits, with stale wakers
    /// and same-time ties, pinned to what the kernel of PR 16 (ad04f41)
    /// committed for it. That kernel split its queue over up to seven heaps
    /// and merged their heads; one heap commits the same `(time, seq)` order.
    #[test]
    fn commit_order_matches_the_pinned_script() {
        assert_eq!(pinned_script(|k, at| k.call_at(at, |_| {})), (0x9761_1c30_69b8_5c41, 61));
    }

    /// The pinned script with its closures replaced by state events: a
    /// state event commits exactly like a closure.
    #[test]
    fn state_events_commit_like_the_pinned_script_calls() {
        assert_eq!(pinned_script(|k, at| k.state_at::<Fired>(at, at as u32)), (0x9761_1c30_69b8_5c41, 61));
    }

    /// A state that records the tokens of its events.
    #[derive(Default)]
    struct Fired(Vec<(Time, u32)>);

    impl KernelState for Fired {
        fn fire(&mut self, kernel: &mut Kernel, token: u32) {
            self.0.push((kernel.now(), token));
        }
    }

    #[test]
    fn state_events_fire_their_state_with_their_token() {
        let mut k = Kernel::new();
        k.install(Fired::default());
        k.state_at::<Fired>(30, 7);
        k.state_at::<Fired>(10, 8);
        k.call_at(10, |_| {});
        let mut kinds = Vec::new();
        while let Some((_, work)) = k.pop_valid() {
            kinds.push(if matches!(work, EventKind::State(..)) { 's' } else { 'c' });
            k.run(work);
        }
        assert_eq!(kinds, ['s', 'c', 's']);
        assert_eq!(k.with_state(|f: &mut Fired, _| std::mem::take(&mut f.0)), [(10, 8), (30, 7)]);
        assert_eq!(k.sched_stats().calls, 3, "state events count as calls");
    }

    #[test]
    #[should_panic(expected = "no dv_sim::kernel::tests::Fired is installed in this kernel")]
    fn a_state_event_for_an_uninstalled_state_panics_naming_it() {
        Kernel::new().state_at::<Fired>(10, 0);
    }

    /// A seeded script of pushes and interleaved commits, `call` scheduling
    /// the kernel-side events; returns the trace hash and how many events
    /// the final drain committed.
    fn pinned_script(call: impl Fn(&mut Kernel, Time)) -> (u64, usize) {
        let mut k = Kernel::new();
        k.install(Fired::default());
        let pids: Vec<Pid> = (0..8).map(|i| k.register_process(format!("p{i}"))).collect();
        let mut rng = dv_core::rng::SplitMix64::new(42);
        for step in 0..200u64 {
            let pid = pids[rng.next_below(8) as usize];
            let at = rng.next_below(1000);
            if step % 3 == 0 {
                call(&mut k, at);
            } else {
                let w = k.waker_for(pid);
                k.wake_at(at, w);
            }
            // Commit a couple of events between pushes so generations
            // advance and some wakers go stale.
            if step % 5 == 0 {
                let _ = k.pop_valid();
            }
        }
        let mut drained = 0;
        while k.pop_valid().is_some() {
            drained += 1;
        }
        (k.trace_hash(), drained)
    }
}
