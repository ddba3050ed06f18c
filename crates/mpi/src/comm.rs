//! Two-sided point-to-point messaging with tag matching.
//!
//! The protocol split mirrors openmpi-1.8 over InfiniBand verbs:
//!
//! * **Eager** (≤ `MpiParams::eager_limit`): the sender copies through a
//!   bounce buffer, fires the message, and completes immediately; the
//!   payload travels with the envelope and waits in the receiver's
//!   unexpected queue if no recv is posted.
//! * **Rendezvous** (> limit): the sender publishes an RTS control
//!   message; the matching recv answers CTS; the data then streams in
//!   registered chunks, each paying a per-chunk overhead — which is why
//!   large-message efficiency tops out near 72 % of the link peak, as the
//!   paper's Figure 3 shows for MPI ping-pong.
//!
//! Matching is `(source, tag)` with wildcard support, serviced in arrival
//! order from the unexpected queue (per-pair ordering is preserved by the
//! FIFO fabric pipes).
//!
//! As in a real MPI library, matching happens where the message arrives,
//! not in the receiving process: each rank has one *posted-receive* slot
//! next to its unexpected queue, and the port's arrival hook (kernel
//! context) hands a matching message straight to it. The receiver is
//! resumed once per message, `overhead_recv` after the arrival; an arrival
//! nobody posted for waits in the unexpected queue and wakes nobody.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use dv_core::sync::Mutex;

use dv_core::config::MpiParams;
use dv_core::metrics::MetricsRegistry;
use dv_core::time::{self, Time};
use dv_core::trace::{State, Tracer};
use dv_sim::{Kernel, Port, SimCtx, Waker};

use crate::fabric::IbFabric;
use crate::payload::Payload;
use crate::Tag;

/// A received message.
#[derive(Debug)]
pub struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: Tag,
    /// The data.
    pub payload: Payload,
    /// Virtual time the send was initiated.
    pub sent_at: Time,
}

enum Wire {
    Eager(Envelope),
    Rts { src: usize, tag: Tag, msg_id: u64 },
    /// The payload of a rendezvous transfer; `done` is the sender's request.
    Data { msg_id: u64, env: Envelope, done: Arc<Mutex<ReqState>> },
}

impl Wire {
    /// Whether a receive posted for `(src, tag)` takes this message. Data
    /// is never matched by envelope: it answers one specific CTS.
    fn matches(&self, src: Option<usize>, tag: Option<Tag>) -> bool {
        let (from, tagged) = match self {
            Wire::Eager(env) => (env.src, env.tag),
            Wire::Rts { src, tag, .. } => (*src, *tag),
            Wire::Data { .. } => return false,
        };
        src.is_none_or(|s| s == from) && tag.is_none_or(|t| t == tagged)
    }
}

/// What a rank's blocked `recv` is waiting for.
enum Posted {
    /// The first eager message or RTS from `(src, tag)`.
    Match { src: Option<usize>, tag: Option<Tag> },
    /// The data of the rendezvous transfer it already answered.
    Data(u64),
}

/// One rank's posted-receive slot: written by its `recv` when it blocks,
/// filled by the arrival hook. The unexpected queue beside it is the
/// rank's `Port` queue.
#[derive(Default)]
struct RecvSlot {
    posted: Option<(Posted, Waker)>,
    /// The matched message and when its receive completes.
    delivered: Option<(Time, Envelope)>,
}

#[derive(Default)]
struct ReqState {
    done: bool,
    /// The owner, once it blocked in [`Comm::wait`].
    waiter: Option<Waker>,
}

/// Handle for a nonblocking send; complete it with [`Comm::wait`]. `None`
/// is a request that was complete when it was made (every eager send).
pub struct Request(Option<Arc<Mutex<ReqState>>>);

impl Request {
    /// True once the operation completed.
    pub fn is_done(&self) -> bool {
        self.0.as_ref().is_none_or(|s| s.lock().done)
    }
}

struct PendingSend {
    src: usize,
    dst: usize,
    env: Envelope,
    bytes: u64,
    req: Arc<Mutex<ReqState>>,
}

/// Shared state of the MPI world (one per cluster run).
pub struct World {
    fabric: IbFabric,
    params: MpiParams,
    ports: Vec<Port<Wire>>,
    slots: Vec<Mutex<RecvSlot>>,
    pending: Mutex<BTreeMap<u64, PendingSend>>,
    next_id: AtomicU64,
    tracer: Arc<Tracer>,
    metrics: Arc<MetricsRegistry>,
}

impl World {
    /// Build the world described by a [`SimSpec`](dv_core::spec::SimSpec):
    /// the InfiniBand fabric comes from `spec.machine.ib`, MPI tuning from
    /// `spec.machine.mpi`, tracing and metrics from the spec's attachments.
    pub fn from_spec(spec: &dv_core::spec::SimSpec) -> Arc<Self> {
        let fabric = IbFabric::new(spec.nodes, spec.machine.ib.clone());
        Self::from_parts(
            fabric,
            spec.machine.mpi.clone(),
            Arc::clone(&spec.tracer),
            Arc::clone(&spec.metrics),
        )
    }

    /// Build a world from explicit parts; point-to-point traffic is
    /// recorded under `mpi.*` and collectives under `mpi.coll.*` when the
    /// registry is enabled.
    pub fn from_parts(
        fabric: IbFabric,
        params: MpiParams,
        tracer: Arc<Tracer>,
        metrics: Arc<MetricsRegistry>,
    ) -> Arc<Self> {
        let nodes = fabric.nodes();
        // Each port's arrival hook needs the world it belongs to (a CTS
        // ends in a delivery to that very port), hence the weak cycle.
        Arc::new_cyclic(|world: &Weak<Self>| Self {
            fabric,
            params,
            ports: (0..nodes)
                .map(|rank| {
                    let world = Weak::clone(world);
                    Port::with_handler(move |k, _at, wire| match world.upgrade() {
                        Some(world) => world.arrive(k, rank, wire),
                        None => Some(wire),
                    })
                })
                .collect(),
            slots: (0..nodes)
                .map(|_| Mutex::new_named("mpi.recv_slot", RecvSlot::default()))
                .collect(),
            pending: Mutex::new_named("mpi.pending", BTreeMap::new()),
            next_id: AtomicU64::new(1),
            tracer,
            metrics,
        })
    }

    /// The fabric (for diagnostics).
    pub fn fabric(&self) -> &IbFabric {
        &self.fabric
    }

    /// Per-rank communicator.
    pub fn comm(self: &Arc<Self>, rank: usize) -> Comm {
        assert!(rank < self.ports.len());
        Comm { world: Arc::clone(self), rank }
    }

    /// Arrival hook of `rank`'s port (kernel context): hand `wire` to the
    /// posted receive if it is the one that receive waits for, else leave
    /// it to the unexpected queue (`Some`), waking nobody.
    fn arrive(self: &Arc<Self>, k: &mut Kernel, rank: usize, wire: Wire) -> Option<Wire> {
        let done = {
            let mut slot = self.slots[rank].lock();
            let posted = slot.posted.take_if(|(posted, _)| match (posted, &wire) {
                (Posted::Match { src, tag }, wire) => wire.matches(*src, *tag),
                (Posted::Data(want), Wire::Data { msg_id, .. }) => want == msg_id,
                (Posted::Data(_), _) => false,
            });
            let Some((_, waker)) = posted else {
                assert!(!matches!(wire, Wire::Data { .. }), "rendezvous data nobody asked for");
                return Some(wire);
            };
            let (env, done) = match wire {
                Wire::Rts { msg_id, .. } => {
                    slot.posted = Some((Posted::Data(msg_id), waker));
                    // Answer one event later at this instant, where a
                    // receiver woken by the RTS would run, so the CTS keeps
                    // that place among same-time ties.
                    let world = Arc::clone(self);
                    k.call_at(k.now(), move |k| world.send_cts(k, msg_id));
                    return None;
                }
                Wire::Eager(env) => (env, None),
                Wire::Data { env, done, .. } => (env, Some(done)),
            };
            let overhead = self.params.overhead_recv;
            slot.delivered = Some((k.now() + overhead, env));
            // A hop, not `wake_at(now + overhead)`: order-exact with a
            // receiver that wakes now and charges the overhead itself.
            k.wake_after(k.now(), waker, overhead);
            done
        };
        // The sender's MPI_Send returns when its buffer is free — when the
        // data has fully left the sender.
        if let Some(done) = done {
            let mut req = done.lock();
            req.done = true;
            if let Some(w) = req.waiter.take() {
                k.wake(w);
            }
        }
        None
    }

    /// Release a rendezvous transfer (kernel context): the CTS flies back
    /// to the sender's NIC, which then streams the data in registered
    /// chunks.
    fn send_cts(self: &Arc<Self>, k: &mut Kernel, msg_id: u64) {
        let world = Arc::clone(self);
        let at = k.now() + self.fabric.params().wire_latency;
        k.call_at(at, move |k| {
            let Some(p) = world.pending.lock().remove(&msg_id) else {
                panic!("CTS for unknown rendezvous message {msg_id}");
            };
            let params = &world.params;
            // Pipeline inefficiency: the data streams at
            // rndv_efficiency x link rate, plus the handshake.
            let wire = time::transfer_time(p.bytes, world.fabric.params().link_gbps);
            let slowdown = (wire as f64 * (1.0 / params.rndv_efficiency - 1.0)) as Time;
            let extra = slowdown + params.rndv_handshake;
            let arrival = world.fabric.transfer(k.now(), p.src, p.dst, p.bytes, extra);
            world.tracer.message(p.src, p.dst, p.env.sent_at, arrival, p.bytes);
            let data = Wire::Data { msg_id, env: p.env, done: p.req };
            world.ports[p.dst].deliver_at(k, arrival, data);
        });
    }
}

/// One rank's communicator (used by exactly one simulated process).
pub struct Comm {
    world: Arc<World>,
    rank: usize,
}

impl Comm {
    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.world.ports.len()
    }

    /// The tracer attached to this world.
    pub fn tracer(&self) -> &Tracer {
        &self.world.tracer
    }

    /// The metrics registry attached to this world.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.world.metrics
    }

    /// MPI runtime parameters.
    pub fn params(&self) -> &MpiParams {
        &self.world.params
    }

    /// This rank's port; its visible queue is the unexpected queue.
    fn port(&self) -> &Port<Wire> {
        &self.world.ports[self.rank]
    }

    fn slot(&self) -> &Mutex<RecvSlot> {
        &self.world.slots[self.rank]
    }

    /// Nonblocking send. Eager messages complete immediately; rendezvous
    /// sends complete when the CTS arrives and the data has left.
    pub fn isend(&self, ctx: &SimCtx, dst: usize, tag: Tag, payload: Payload) -> Request {
        let t0 = ctx.now();
        let p = &self.world.params;
        let bytes = payload.len_bytes();
        let env_bytes = bytes + 64; // header/envelope on the wire
        let eager = bytes <= p.eager_limit;
        // Software overhead, then (eager) the bounce-buffer copy on the
        // send side; nothing happens in between, so it is one resume.
        let copy = if eager { time::transfer_time(bytes, p.copy_gbps) } else { 0 };
        ctx.delay2(p.overhead_send, copy);
        {
            let m = &self.world.metrics;
            let path = [("path", if eager { "eager" } else { "rndv" }.into())];
            m.incr_labeled("mpi.msgs", &path, 1);
            m.incr_labeled("mpi.bytes", &path, env_bytes);
            m.observe("mpi.msg_bytes", bytes);
        }
        let req = if eager {
            let sent_at = ctx.now();
            let arrival = self.world.fabric.transfer(sent_at, self.rank, dst, env_bytes, 0);
            let env = Envelope { src: self.rank, tag, payload, sent_at };
            ctx.with_kernel(|k| self.world.ports[dst].deliver_at(k, arrival, Wire::Eager(env)));
            self.world.tracer.message(self.rank, dst, sent_at, arrival, env_bytes);
            Request(None)
        } else {
            let msg_id = self.world.next_id.fetch_add(1, Ordering::Relaxed);
            let sent_at = ctx.now();
            let rts_arrival = self.world.fabric.transfer(sent_at, self.rank, dst, 64, 0);
            ctx.with_kernel(|k| {
                self.world.ports[dst].deliver_at(
                    k,
                    rts_arrival,
                    Wire::Rts { src: self.rank, tag, msg_id },
                )
            });
            let req = Arc::new(Mutex::new(ReqState::default()));
            self.world.pending.lock().insert(
                msg_id,
                PendingSend {
                    src: self.rank,
                    dst,
                    env: Envelope { src: self.rank, tag, payload, sent_at },
                    bytes: env_bytes,
                    req: Arc::clone(&req),
                },
            );
            Request(Some(req))
        };
        self.world.tracer.span(self.rank, State::Send, t0, ctx.now());
        req
    }

    /// Blocking send (true `MPI_Send` semantics: a rendezvous send does
    /// not return until the receiver has posted the matching recv).
    pub fn send(&self, ctx: &SimCtx, dst: usize, tag: Tag, payload: Payload) {
        let req = self.isend(ctx, dst, tag, payload);
        self.wait(ctx, req);
    }

    /// Wait for a request to complete.
    pub fn wait(&self, ctx: &SimCtx, req: Request) {
        let Some(state) = req.0 else { return };
        let t0 = ctx.now();
        ctx.wait_for(None, || state.lock().done.then_some(()), |w| state.lock().waiter = Some(w));
        if ctx.now() > t0 {
            self.world.tracer.span(self.rank, State::Wait, t0, ctx.now());
        }
    }

    /// Wait for all requests.
    pub fn wait_all(&self, ctx: &SimCtx, reqs: Vec<Request>) {
        for r in reqs {
            self.wait(ctx, r);
        }
    }

    /// Blocking receive with optional source/tag wildcards.
    pub fn recv(&self, ctx: &SimCtx, src: Option<usize>, tag: Option<Tag>) -> Envelope {
        // Waker first: the arrival hook locks the slot under the kernel, so
        // the kernel is never locked under the slot.
        let (t0, waker) = ctx.with_kernel(|k| (k.now(), k.waker_for(ctx.pid())));
        let unexpected = self.port().take_first(|w| w.matches(src, tag)).map(|(_, w)| w);
        let env = match unexpected {
            Some(Wire::Eager(env)) => {
                ctx.delay(self.world.params.overhead_recv);
                env
            }
            // Post (answering an RTS that was already waiting) and sleep
            // until the arrival hook has delivered: one resume, receive
            // overhead included.
            other => {
                let rts = match other {
                    Some(Wire::Rts { msg_id, .. }) => Some(msg_id),
                    _ => None,
                };
                let posted = rts.map_or(Posted::Match { src, tag }, Posted::Data);
                self.slot().lock().posted = Some((posted, waker));
                if let Some(msg_id) = rts {
                    ctx.with_kernel(|k| self.world.send_cts(k, msg_id));
                }
                // Nothing is delivered before the first park (`send_cts`
                // only schedules), so the first re-post is a no-op; after a
                // wake by a waker left in some wait set it posts afresh.
                let (ready, env) = ctx
                    .wait_for(
                        None,
                        || self.slot().lock().delivered.take(),
                        |w| {
                            if let Some((_, posted)) = self.slot().lock().posted.as_mut() {
                                *posted = w;
                            }
                        },
                    )
                    .expect("a wait without a deadline only returns when ready");
                ctx.wait_until(ready);
                env
            }
        };
        self.world.tracer.span(self.rank, State::Recv, t0, ctx.now());
        env
    }

    /// Convenience: blocking receive from a specific source and tag.
    pub fn recv_from(&self, ctx: &SimCtx, src: usize, tag: Tag) -> Envelope {
        self.recv(ctx, Some(src), Some(tag))
    }

    /// Nonblocking probe-and-receive: returns a matching *eager* message
    /// if one already arrived. (Rendezvous messages need the blocking path
    /// to run the CTS exchange.)
    pub fn try_recv(&self, ctx: &SimCtx, src: Option<usize>, tag: Option<Tag>) -> Option<Envelope> {
        let eager = |w: &Wire| matches!(w, Wire::Eager(_)) && w.matches(src, tag);
        let Some((_, Wire::Eager(env))) = self.port().take_first(eager) else { return None };
        ctx.delay(self.world.params.overhead_recv);
        Some(env)
    }

    /// Combined send+receive (deadlock-free pairwise exchange).
    pub fn sendrecv(
        &self,
        ctx: &SimCtx,
        dst: usize,
        send_tag: Tag,
        payload: Payload,
        src: usize,
        recv_tag: Tag,
    ) -> Envelope {
        let req = self.isend(ctx, dst, send_tag, payload);
        let env = self.recv_from(ctx, src, recv_tag);
        self.wait(ctx, req);
        env
    }
}
