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
//! next to its unexpected queue, and the arrival (a kernel event) hands a
//! matching message straight to it. The receiver is resumed once per
//! message, `overhead_recv` after the arrival; an arrival nobody posted
//! for waits in the unexpected queue and wakes nobody.
//!
//! The blocking calls here (`isend`, `send`, `wait`, `recv`, `sendrecv`)
//! and every collective are thin doors onto `async fn`s of [`Rank`], run
//! in the kernel: the resumes above are committed as before, but each
//! polls the call in kernel context, and the rank's thread runs again once
//! per blocking call or collective, not once per resume — or once per
//! program, when a kernel hands [`Comm::run`] its whole body.
//!
//! The receive slots with their unexpected queues, the messages in
//! flight, the rendezvous requests and the fabric's pipes are an
//! `MpiState` the simulation kernel owns (see [`dv_sim::KernelState`]):
//! only the rank holding the run token, or a kernel event, touches them,
//! so none has a lock of its own. A message's arrival and each step of a
//! rendezvous handshake is a state event of it, keyed by a token into its
//! table of flights.

use std::collections::VecDeque;
use std::sync::Arc;

use dv_core::config::{IbParams, MpiParams};
use dv_core::metrics::MetricsRegistry;
use dv_core::time::{self, Time};
use dv_core::trace::Tracer;
use dv_sim::{Kernel, KernelState, SimCtx, Slab, Waker};

use crate::fabric::IbFabric;
mod op;
pub use op::Rank;

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
    Rts { src: usize, tag: Tag, msg_id: u32 },
    /// The payload of a rendezvous transfer; `msg_id` is the sender's
    /// request.
    Data { msg_id: u32, env: Envelope },
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
    Data(u32),
}

/// One rank's posted-receive slot, written by its `recv` when it blocks
/// and filled by an arrival, and the unexpected queue beside it.
#[derive(Default)]
struct RecvSlot {
    posted: Option<(Posted, Waker)>,
    /// The matched message and when its receive completes.
    delivered: Option<(Time, Envelope)>,
    /// Arrivals no receive was posted for, in arrival order.
    unexpected: VecDeque<Wire>,
}

impl RecvSlot {
    /// The earliest unexpected arrival `pred` accepts, taken out.
    fn take_unexpected(&mut self, pred: impl FnMut(&Wire) -> bool) -> Option<Wire> {
        let i = self.unexpected.iter().position(pred)?;
        self.unexpected.remove(i)
    }
}

/// One rendezvous send, from its RTS until its sender's `wait` returns.
#[derive(Default)]
struct ReqState {
    done: bool,
    /// The owner, once it blocked in [`Comm::wait`].
    waiter: Option<Waker>,
    /// The message, until the CTS releases it onto the fabric.
    send: Option<PendingSend>,
}

/// Handle for a nonblocking send; complete it with [`Comm::wait`]. `None`
/// is a request that was complete when it was made (every eager send);
/// else the index of its entry in the world's request slab, which is also
/// the rendezvous message's id. A request dropped without a `wait` keeps
/// its entry until the run ends.
pub struct Request(Option<u32>);

impl Request {
    /// True once the operation completed.
    pub fn is_done(&self, ctx: &SimCtx) -> bool {
        self.0.is_none_or(|id| ctx.with_kernel(|k| k.with_state(|st: &mut MpiState, _| st.reqs.get(id).done)))
    }
}

struct PendingSend {
    src: usize,
    dst: usize,
    env: Envelope,
    bytes: u64,
}

/// What never changes in an MPI world (one per cluster run); its mutable
/// half is the kernel-owned `MpiState`.
pub(crate) struct World {
    params: MpiParams,
    nodes: usize,
    tracer: Arc<Tracer>,
    metrics: Arc<MetricsRegistry>,
}

/// The mutable half of an MPI world, owned by the simulation kernel:
/// installed by [`MpiCluster::run`](crate::MpiCluster::run) on its
/// calling thread, reached only with `&mut Kernel`.
pub(crate) struct MpiState {
    world: Arc<World>,
    fabric: IbFabric,
    /// One receive slot per rank.
    slots: Vec<RecvSlot>,
    /// Rendezvous requests; a request's index is also its message's id.
    /// An entry is freed when its `wait` returns.
    reqs: Slab<ReqState>,
    /// What each pending state event of this state does, by token.
    flights: Slab<Flight>,
}

/// What one state event of an [`MpiState`] does when it commits.
enum Flight {
    /// A message lands at rank `dst`.
    Arrive { dst: usize, wire: Wire },
    /// The matched receive answers rendezvous message `msg_id`'s RTS.
    Answer { msg_id: u32 },
    /// The CTS of rendezvous message `msg_id` reaches the sender's NIC.
    Cts { msg_id: u32 },
}

impl KernelState for MpiState {
    /// A message lands, or a rendezvous handshake takes its next step.
    fn fire(&mut self, k: &mut Kernel, token: u32) {
        match self.flights.remove(token) {
            Flight::Arrive { dst, wire } => self.arrive(k, dst, wire),
            Flight::Answer { msg_id } => self.send_cts(k, msg_id),
            Flight::Cts { msg_id } => self.stream(k, msg_id),
        }
    }
}

impl MpiState {
    /// The state of `world`, on an `ib` fabric.
    pub(crate) fn new(world: &Arc<World>, ib: IbParams) -> Self {
        let nodes = world.nodes;
        Self {
            world: Arc::clone(world),
            fabric: IbFabric::new(nodes, ib),
            slots: (0..nodes).map(|_| RecvSlot::default()).collect(),
            reqs: Slab::new(),
            flights: Slab::new(),
        }
    }

    /// Schedule `flight` at `at`.
    fn schedule(&mut self, k: &mut Kernel, at: Time, flight: Flight) {
        let token = self.flights.insert(flight);
        k.state_at::<MpiState>(at, token);
    }

    /// `wire` lands at `rank` (kernel context): hand it to the posted
    /// receive if it is the one that receive waits for, else leave it to
    /// the unexpected queue, waking nobody.
    fn arrive(&mut self, k: &mut Kernel, rank: usize, wire: Wire) {
        let slot = &mut self.slots[rank];
        let posted = slot.posted.take_if(|(posted, _)| match (posted, &wire) {
            (Posted::Match { src, tag }, wire) => wire.matches(*src, *tag),
            (Posted::Data(want), Wire::Data { msg_id, .. }) => want == msg_id,
            (Posted::Data(_), _) => false,
        });
        let Some((_, waker)) = posted else {
            assert!(!matches!(wire, Wire::Data { .. }), "rendezvous data nobody asked for");
            slot.unexpected.push_back(wire);
            return;
        };
        let (env, done) = match wire {
            Wire::Rts { msg_id, .. } => {
                slot.posted = Some((Posted::Data(msg_id), waker));
                // Answer one event later at this instant, where a
                // receiver woken by the RTS would run, so the CTS keeps
                // that place among same-time ties.
                self.schedule(k, k.now(), Flight::Answer { msg_id });
                return;
            }
            Wire::Eager(env) => (env, None),
            Wire::Data { env, msg_id } => (env, Some(msg_id)),
        };
        let overhead = self.world.params.overhead_recv;
        slot.delivered = Some((k.now() + overhead, env));
        // A hop, not `wake_at(now + overhead)`: order-exact with a
        // receiver that wakes now and charges the overhead itself.
        k.wake_after(k.now(), waker, overhead);
        // The sender's MPI_Send returns when its buffer is free — when
        // the data has fully left the sender.
        if let Some(id) = done {
            let req = self.reqs.get_mut(id);
            req.done = true;
            if let Some(w) = req.waiter.take() {
                k.wake(w);
            }
        }
    }

    /// Release a rendezvous transfer (kernel context): the CTS flies back
    /// to the sender's NIC, which then streams the data ([`MpiState::stream`]).
    fn send_cts(&mut self, k: &mut Kernel, msg_id: u32) {
        let at = k.now() + self.fabric.params().wire_latency;
        self.schedule(k, at, Flight::Cts { msg_id });
    }

    /// The CTS of rendezvous message `msg_id` reached the sender's NIC
    /// (kernel context): the data streams in registered chunks.
    fn stream(&mut self, k: &mut Kernel, msg_id: u32) {
        let Some(p) = self.reqs.get_mut(msg_id).send.take() else {
            panic!("CTS for unknown rendezvous message {msg_id}");
        };
        let params = &self.world.params;
        // Pipeline inefficiency: the data streams at
        // rndv_efficiency x link rate, plus the handshake.
        let wire = time::transfer_time(p.bytes, self.fabric.params().link_gbps);
        let slowdown = (wire as f64 * (1.0 / params.rndv_efficiency - 1.0)) as Time;
        let extra = slowdown + params.rndv_handshake;
        let arrival = self.fabric.transfer(k.now(), p.src, p.dst, p.bytes, extra);
        self.world.tracer.message(p.src, p.dst, p.env.sent_at, arrival, p.bytes);
        self.schedule(k, arrival, Flight::Arrive { dst: p.dst, wire: Wire::Data { msg_id, env: p.env } });
    }
}

impl World {
    /// Build the world described by a [`SimSpec`](dv_core::spec::SimSpec):
    /// one rank per node, MPI tuning from `spec.machine.mpi`, tracing and
    /// metrics from the spec's attachments (the InfiniBand fabric, from
    /// `spec.machine.ib`, is part of the kernel-owned state).
    /// Point-to-point traffic is recorded under `mpi.*` and collectives
    /// under `mpi.coll.*` when the registry is enabled.
    pub(crate) fn from_spec(spec: &dv_core::spec::SimSpec) -> Arc<Self> {
        Arc::new(Self {
            params: spec.machine.mpi.clone(),
            nodes: spec.nodes,
            tracer: Arc::clone(&spec.tracer),
            metrics: Arc::clone(&spec.metrics),
        })
    }

    /// Per-rank communicator.
    pub(crate) fn comm(self: &Arc<Self>, rank: usize) -> Comm {
        assert!(rank < self.nodes);
        Comm { world: Arc::clone(self), rank }
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
        self.world.nodes
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

    /// Nonblocking send. Eager messages complete immediately; rendezvous
    /// sends complete when the CTS arrives and the data has left. The
    /// call itself charges the send overhead (and, eager, the bounce
    /// copy).
    pub fn isend(&self, ctx: &SimCtx, dst: usize, tag: Tag, payload: Payload) -> Request {
        self.run(ctx, move |r| async move { r.isend(dst, tag, payload).await })
    }

    /// Blocking send (true `MPI_Send` semantics: a rendezvous send does
    /// not return until the receiver has posted the matching recv).
    pub fn send(&self, ctx: &SimCtx, dst: usize, tag: Tag, payload: Payload) {
        self.run(ctx, move |r| async move { r.wait(r.isend(dst, tag, payload).await).await });
    }

    /// Wait for a request to complete.
    pub fn wait(&self, ctx: &SimCtx, req: Request) {
        self.run(ctx, move |r| async move { r.wait(req).await });
    }

    /// Wait for all requests, in order.
    pub fn wait_all(&self, ctx: &SimCtx, reqs: Vec<Request>) {
        self.run(ctx, move |r| async move { r.wait_all(reqs).await });
    }

    /// Blocking receive with optional source/tag wildcards.
    pub fn recv(&self, ctx: &SimCtx, src: Option<usize>, tag: Option<Tag>) -> Envelope {
        self.run(ctx, move |r| async move { r.recv(src, tag).await })
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
        let taken = ctx.with_kernel(|k| k.with_state(|st: &mut MpiState, _| st.slots[self.rank].take_unexpected(eager)));
        let Some(Wire::Eager(env)) = taken else { return None };
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
        self.run(ctx, move |r| async move {
            let req = r.isend(dst, send_tag, payload).await;
            let env = r.recv(Some(src), Some(recv_tag)).await;
            r.wait(req).await;
            env
        })
    }
}
