//! Virtual-time synchronization and queueing primitives.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use dv_core::sync::Mutex;

use dv_core::time::{self, Time};

use crate::kernel::{Kernel, KernelState, Waker};
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
/// delivery event commits.
struct Staged<T> {
    /// Delivery time, already clamped to the kernel clock at staging time —
    /// the same clamp the kernel applies when it enqueues the delivery event,
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

struct PortState<T> {
    queue: VecDeque<(Time, T)>,
    waiters: Vec<Waker>,
    /// Messages in flight, ordered by `(at, seq)`.
    staged: BinaryHeap<Staged<T>>,
    stage_seq: u64,
    /// The port's entry in its kernel's [`Ports`], made at its first send:
    /// the token of each of its delivery events.
    entry: Option<u32>,
}

/// The kernel-side half of every port that has sent: one entry per port,
/// whose deliveries are state events of this state, keyed by the entry.
#[derive(Default)]
struct Ports(Vec<Arc<dyn Deliver>>);

impl KernelState for Ports {
    fn fire(&mut self, kernel: &mut Kernel, token: u32) {
        self.0[token as usize].deliver(kernel);
    }
}

/// A port's delivery commit, whatever its message type.
trait Deliver: Send + Sync {
    /// Make the earliest staged message visible and wake the waiters.
    fn deliver(&self, kernel: &mut Kernel);
}

impl<T: Send> Deliver for Mutex<PortState<T>> {
    fn deliver(&self, kernel: &mut Kernel) {
        let mut s = self.lock();
        let Some(staged) = s.staged.pop() else { return };
        s.queue.push_back((kernel.now(), staged.msg));
        for w in s.waiters.drain(..) {
            kernel.wake(w);
        }
    }
}

/// A typed message queue in virtual time, shared by every clone.
///
/// Senders deliver messages *at a future virtual time* (modeling link
/// latency); receivers block until a message is visible. Messages become
/// visible in delivery-time order (ties: send order). The cluster models
/// above keep their messages in their own [`KernelState`] instead; ports
/// serve tests and the benchmark harness's probes.
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
        Self {
            state: Arc::new(Mutex::new(PortState {
                queue: VecDeque::new(),
                waiters: Vec::new(),
                staged: BinaryHeap::new(),
                stage_seq: 0,
                entry: None,
            })),
        }
    }

    /// Deliver `msg` at virtual time `at` (kernel context).
    ///
    /// The message is *staged* (invisible) and a state event of the
    /// kernel's port table commits it at `at` — one plain kernel event per
    /// message, which hashes and counts like a [`Kernel::call_at`]
    /// closure. Each commit makes the port's earliest staged message
    /// visible: its events commit in the staged heap's `(at, send order)`,
    /// so that is the message this event was pushed for.
    pub fn deliver_at(&self, kernel: &mut Kernel, at: Time, msg: T) {
        // Clamp before staging with the same rule the kernel applies on
        // push, so the staged heap and the kernel queue agree on order.
        let at = at.max(kernel.now());
        let entry = {
            let mut s = self.state.lock();
            let seq = s.stage_seq;
            s.stage_seq += 1;
            s.staged.push(Staged { at, seq, msg });
            s.entry
        };
        let entry = entry.unwrap_or_else(|| {
            if !kernel.has_state::<Ports>() {
                kernel.install(Ports::default());
            }
            let port: Arc<dyn Deliver> = self.state.clone();
            let entry = kernel.with_state(|ports: &mut Ports, _| {
                ports.0.push(port);
                u32::try_from(ports.0.len() - 1).expect("fewer than 2^32 ports per kernel")
            });
            self.state.lock().entry = Some(entry);
            entry
        });
        kernel.state_at::<Ports>(at, entry);
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
