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
//!
//! The blocking calls here (`isend`, `send`, `wait`, `recv`, `sendrecv`)
//! and every collective run as plans of the one kernel-context op machine
//! in `op`: the resumes above are committed as before, but they run
//! that machine in the kernel, and the rank's thread runs again once per
//! blocking call or collective, not once per resume.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Weak};

use dv_core::sync::Mutex;

use dv_core::config::MpiParams;
use dv_core::metrics::MetricsRegistry;
use dv_core::time::{self, Time};
use dv_core::trace::Tracer;
use dv_sim::{Kernel, Port, SimCtx, Waker};

use crate::fabric::IbFabric;
pub(crate) mod op;

use op::{listed, Data, Instr, Op, Sink};
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
    /// Point-to-point traffic is recorded under `mpi.*` and collectives
    /// under `mpi.coll.*` when the registry is enabled.
    pub fn from_spec(spec: &dv_core::spec::SimSpec) -> Arc<Self> {
        let fabric = IbFabric::new(spec.nodes, spec.machine.ib.clone());
        let nodes = fabric.nodes();
        // Each port's arrival hook needs the world it belongs to (a CTS
        // ends in a delivery to that very port), hence the weak cycle.
        Arc::new_cyclic(|world: &Weak<Self>| Self {
            fabric,
            params: spec.machine.mpi.clone(),
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
            tracer: Arc::clone(&spec.tracer),
            metrics: Arc::clone(&spec.metrics),
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

    /// Nonblocking send. Eager messages complete immediately; rendezvous
    /// sends complete when the CTS arrives and the data has left. The
    /// call itself charges the send overhead (and, eager, the bounce
    /// copy).
    pub fn isend(&self, ctx: &SimCtx, dst: usize, tag: Tag, payload: Payload) -> Request {
        let send = Instr::Send { dst, tag, data: Data::Take(0) };
        let mut op = Op::new(self, vec![payload], listed([send])).run(ctx);
        op.reqs.pop_back().unwrap_or(Request(None))
    }

    /// Blocking send (true `MPI_Send` semantics: a rendezvous send does
    /// not return until the receiver has posted the matching recv).
    pub fn send(&self, ctx: &SimCtx, dst: usize, tag: Tag, payload: Payload) {
        let send = Instr::Send { dst, tag, data: Data::Take(0) };
        Op::new(self, vec![payload], listed([send, Instr::WaitAll])).run(ctx);
    }

    /// Wait for a request to complete.
    pub fn wait(&self, ctx: &SimCtx, req: Request) {
        self.wait_all(ctx, vec![req]);
    }

    /// Wait for all requests, in order.
    pub fn wait_all(&self, ctx: &SimCtx, reqs: Vec<Request>) {
        let mut op = Op::new(self, Vec::new(), listed([Instr::WaitAll]));
        op.reqs.extend(reqs);
        op.run(ctx);
    }

    /// Blocking receive with optional source/tag wildcards.
    pub fn recv(&self, ctx: &SimCtx, src: Option<usize>, tag: Option<Tag>) -> Envelope {
        let recv = Instr::Recv { src, tag, sink: Sink::Keep };
        let op = Op::new(self, Vec::new(), listed([recv])).run(ctx);
        op.kept.expect("a receive keeps its envelope")
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
        let Some((_, Wire::Eager(env))) = self.world.ports[self.rank].take_first(eager) else { return None };
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
        let plan = [
            Instr::Send { dst, tag: send_tag, data: Data::Take(0) },
            Instr::Recv { src: Some(src), tag: Some(recv_tag), sink: Sink::Keep },
            Instr::WaitAll,
        ];
        let op = Op::new(self, vec![payload], listed(plan)).run(ctx);
        op.kept.expect("a receive keeps its envelope")
    }
}
