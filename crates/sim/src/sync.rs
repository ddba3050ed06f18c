//! Virtual-time synchronization and queueing primitives.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use dv_core::sync::Mutex;

use dv_core::time::{self, Time};

use crate::kernel::{Kernel, TimerId, Waker};
use crate::sim::SimCtx;

/// A virtual-time condition variable: a [`SimCtx::wait_for`] registers its
/// waker here; anyone (a process or a kernel closure) can wake all
/// registered waiters. Stale wakers are harmless, so waiters simply
/// re-register on every turn of the re-check loop.
#[derive(Clone, Default)]
pub struct WaitSet {
    waiters: Arc<Mutex<Vec<Waker>>>,
}

impl WaitSet {
    /// Empty wait set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a waker (the one [`SimCtx::wait_for`] hands its
    /// `register`).
    pub fn register(&self, waker: Waker) {
        self.waiters.lock().push(waker);
    }

    /// Wake every registered waiter at the kernel's current time.
    pub fn wake_all(&self, kernel: &mut Kernel) {
        for w in self.waiters.lock().drain(..) {
            kernel.wake(w);
        }
    }

    /// Wake every registered waiter, from process context.
    pub fn wake_all_ctx(&self, ctx: &SimCtx) {
        ctx.with_kernel(|k| self.wake_all(k));
    }

    /// Number of currently registered wakers (stale ones included).
    pub fn len(&self) -> usize {
        self.waiters.lock().len()
    }

    /// True if nobody is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A message staged for future delivery: invisible to receivers until its
/// pooled timer event commits.
struct Staged<T> {
    /// Delivery time, already clamped to the kernel clock at staging time —
    /// the same clamp the kernel applies when it enqueues the timer event,
    /// so heap order here matches commit order there exactly.
    at: Time,
    /// Per-port staging sequence; breaks delivery-time ties in send order,
    /// mirroring the kernel's global insertion sequence.
    seq: u64,
    msg: T,
}

impl<T> PartialEq for Staged<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<T> Eq for Staged<T> {}
impl<T> PartialOrd for Staged<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Staged<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop the earliest delivery.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// See [`Port::with_handler`].
type ArrivalHandler<T> = Box<dyn FnMut(&mut Kernel, Time, T) -> Option<T> + Send>;

struct PortState<T> {
    queue: VecDeque<(Time, T)>,
    waiters: Vec<Waker>,
    handler: Option<ArrivalHandler<T>>,
    /// Messages in flight, ordered by `(at, seq)`.
    staged: BinaryHeap<Staged<T>>,
    stage_seq: u64,
    /// The port's pooled delivery timer, registered on first send. Every
    /// delivery reuses it, so steady-state sends allocate nothing.
    timer: Option<TimerId>,
}

/// A typed message queue in virtual time.
///
/// Senders deliver messages *at a future virtual time* (modeling link
/// latency); receivers block until a message is visible. Messages become
/// visible in delivery-time order (ties: send order), which the network
/// models above this layer use to implement both in-order (MPI) and
/// deliberately reordered (Data Vortex) delivery.
pub struct Port<T> {
    state: Arc<Mutex<PortState<T>>>,
}

impl<T> Clone for Port<T> {
    fn clone(&self) -> Self {
        Self { state: Arc::clone(&self.state) }
    }
}

impl<T: Send + 'static> Default for Port<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + 'static> Port<T> {
    /// New empty port.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// A port whose arrivals pass through `handler` first. It runs in
    /// kernel context at the delivery commit, with the arrival time and the
    /// message: `None` means it consumed the message (handed it to a posted
    /// receive, say, and scheduled the wake-up itself); `Some(msg)` makes
    /// `msg` visible in the queue as on a plain port. The port is locked
    /// while the handler runs, so it must not call back into this port.
    pub fn with_handler(
        handler: impl FnMut(&mut Kernel, Time, T) -> Option<T> + Send + 'static,
    ) -> Self {
        Self::build(Some(Box::new(handler)))
    }

    fn build(handler: Option<ArrivalHandler<T>>) -> Self {
        Self {
            state: Arc::new(Mutex::new(PortState {
                queue: VecDeque::new(),
                waiters: Vec::new(),
                handler,
                staged: BinaryHeap::new(),
                stage_seq: 0,
                timer: None,
            })),
        }
    }

    /// Deliver `msg` at virtual time `at` (kernel context).
    ///
    /// The message is *staged* (invisible) and a pooled per-port timer
    /// event commits it at `at` — one copyable kernel event per message
    /// instead of the boxed closure the engine used historically. The
    /// timer commit hashes and counts exactly like the closure did, and
    /// each firing makes exactly one staged message visible, so receiver
    /// visibility between commits is unchanged.
    pub fn deliver_at(&self, kernel: &mut Kernel, at: Time, msg: T) {
        // Clamp before staging with the same rule the kernel applies on
        // push, so the staged heap and the kernel queue agree on order.
        let at = at.max(kernel.now());
        let timer = {
            let mut s = self.state.lock();
            let seq = s.stage_seq;
            s.stage_seq += 1;
            s.staged.push(Staged { at, seq, msg });
            s.timer
        };
        let id = match timer {
            Some(id) => id,
            None => {
                let state = Arc::clone(&self.state);
                let id = kernel.register_timer(Box::new(move |k: &mut Kernel| {
                    let mut s = state.lock();
                    let Some(staged) = s.staged.pop() else { return };
                    let arrived = k.now();
                    let msg = match s.handler.as_mut() {
                        Some(handler) => handler(k, arrived, staged.msg),
                        None => Some(staged.msg),
                    };
                    if let Some(msg) = msg {
                        s.queue.push_back((arrived, msg));
                        for w in s.waiters.drain(..) {
                            k.wake(w);
                        }
                    }
                }));
                self.state.lock().timer = Some(id);
                id
            }
        };
        kernel.timer_at(at, id);
    }

    /// Deliver `msg` after `delay`, from process context.
    pub fn send_delayed(&self, ctx: &SimCtx, delay: Time, msg: T) {
        ctx.with_kernel(|k| {
            let at = k.now() + delay;
            self.deliver_at(k, at, msg);
        });
    }

    /// Non-blocking receive; returns the message and its arrival time.
    pub fn try_recv(&self) -> Option<(Time, T)> {
        self.state.lock().queue.pop_front()
    }

    /// Non-blocking selective receive: the earliest-arrived visible message
    /// `pred` accepts, with its arrival time.
    pub fn take_first(&self, mut pred: impl FnMut(&T) -> bool) -> Option<(Time, T)> {
        let mut s = self.state.lock();
        let i = s.queue.iter().position(|(_, m)| pred(m))?;
        s.queue.remove(i)
    }

    /// Blocking receive.
    pub fn recv(&self, ctx: &SimCtx) -> (Time, T) {
        self.recv_by(ctx, None).expect("a receive without a deadline only returns a message")
    }

    /// Blocking receive with a deadline; `None` if virtual time reaches
    /// `deadline` first.
    pub fn recv_deadline(&self, ctx: &SimCtx, deadline: Time) -> Option<(Time, T)> {
        self.recv_by(ctx, Some(deadline))
    }

    fn recv_by(&self, ctx: &SimCtx, deadline: Option<Time>) -> Option<(Time, T)> {
        ctx.wait_for(deadline, || self.try_recv(), |w| self.register(w))
    }

    /// Leave `waker` for the next message to become visible.
    pub(crate) fn register(&self, waker: Waker) {
        self.state.lock().waiters.push(waker);
    }

    /// Messages currently visible.
    pub fn len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// True if no message is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A FIFO bandwidth server: a link (PCIe bus, NIC port, switch
/// injection port) that serializes transfers at a fixed byte rate.
///
/// `reserve` returns when the transfer *occupies* the link: callers decide
/// whether to wait for the start (cut-through) or the end (store-and-
/// forward) of their occupancy. A plain value: the state that holds it is
/// kernel-owned ([`KernelState`](crate::KernelState)), so a reservation is
/// a `&mut` call with no lock.
pub struct Pipe {
    free_at: Time,
    gbps: f64,
    busy: Time,
}

impl Pipe {
    /// A pipe streaming at `gbps` gigabytes per second.
    pub fn new(gbps: f64) -> Self {
        assert!(gbps > 0.0);
        Self { free_at: 0, gbps, busy: 0 }
    }

    /// Reserve the pipe for `bytes` starting no earlier than `now`;
    /// returns `(start, end)` of the occupancy in virtual time.
    pub fn reserve(&mut self, now: Time, bytes: u64) -> (Time, Time) {
        self.reserve_duration(now, time::transfer_time(bytes, self.gbps))
    }

    /// Reserve with an explicit duration instead of a byte count.
    pub fn reserve_duration(&mut self, now: Time, duration: Time) -> (Time, Time) {
        let start = self.free_at.max(now);
        let end = start + duration;
        self.free_at = end;
        self.busy += duration;
        (start, end)
    }

    /// Total busy time accumulated (for utilization reporting).
    pub fn busy_time(&self) -> Time {
        self.busy
    }
}

/// A slot for collecting one value out of a finished process.
pub struct JoinSlot<T> {
    value: Arc<Mutex<Option<T>>>,
}

impl<T> Clone for JoinSlot<T> {
    fn clone(&self) -> Self {
        Self { value: Arc::clone(&self.value) }
    }
}

impl<T: Send + 'static> Default for JoinSlot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + 'static> JoinSlot<T> {
    /// Empty slot.
    pub fn new() -> Self {
        Self { value: Arc::new(Mutex::new(None)) }
    }

    /// Store the result (typically the last statement of a process body).
    pub fn put(&self, value: T) {
        *self.value.lock() = Some(value);
    }

    /// Take the result after `Sim::run` returned.
    pub fn take(&self) -> Option<T> {
        self.value.lock().take()
    }
}
