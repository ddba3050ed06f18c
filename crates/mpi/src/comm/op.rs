//! The point-to-point engine: every blocking call runs as a kernel step.
//!
//! A blocking call — `isend`, `send`, `recv`, `wait`, `sendrecv`, and every
//! collective — is an [`Op`]: a plan of point-to-point [`Instr`]s over a
//! buffer of payloads, a dv-sim [`Call`] executed by
//! [`SimCtx::wait_in_kernel`]. The
//! calling thread parks once; each resume of the rank runs the plan on in
//! kernel context, and the thread runs again only when the whole call has
//! returned. A 32-rank pairwise alltoall is one handoff per rank instead
//! of two per peer.
//!
//! Between two resumes the executor does exactly what a thread running
//! the same calls would do between the same two parks, side effect for
//! side effect: the same events pushed in the same order, the same fabric
//! reservations, tracer records and metrics. So the commit order, every
//! trace hash and every artifact are the same as if the rank's thread ran
//! each step (`tests/collective_traces.rs` pins them). Each blocked state
//! is one dv-sim turn, re-run on every resume — the turn
//! [`SimCtx::wait_for`] loops over on the thread:
//!
//! * a charged delay (the send overhead and bounce copy, the receive
//!   overhead) is a [`Kernel::until`];
//! * a posted receive is a [`Kernel::turn`] that posts the current waker
//!   until the arrival hook has delivered;
//! * a rendezvous `wait` is one that registers until the request is done.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use dv_core::sync::Mutex;
use dv_core::time::{self, Time};
use dv_core::trace::State;
use dv_sim::{Call, Kernel, Pid, SimCtx};

use crate::coll::ReduceOp;
use super::{Comm, Envelope, PendingSend, Posted, ReqState, Request, Wire, World};
use crate::payload::Payload;
use crate::Tag;

/// Where a send's payload comes from.
#[derive(Clone, Copy)]
pub(crate) enum Data {
    /// Move out of a buffer slot (leaving it empty).
    Take(usize),
    /// A copy of a buffer slot.
    Copy(usize),
    /// No data.
    Empty,
}

/// Where a received payload goes.
#[derive(Clone, Copy)]
pub(crate) enum Sink {
    /// Into a buffer slot.
    Slot(usize),
    /// Into the slot of the sending rank.
    BySource,
    /// Reduced into a buffer slot.
    Combine(usize, ReduceOp),
    /// Dropped (barrier tokens).
    Discard,
    /// The whole envelope, into [`Op::kept`].
    Keep,
}

/// One step of a plan.
#[derive(Clone, Copy)]
pub(crate) enum Instr {
    /// `isend`; a rendezvous request joins [`Op::reqs`].
    Send { dst: usize, tag: Tag, data: Data },
    /// A blocking receive with optional wildcards.
    Recv { src: Option<usize>, tag: Option<Tag>, sink: Sink },
    /// `wait` on every request in [`Op::reqs`], oldest first.
    WaitAll,
    /// The collective that began at the previous `End` (or at the call)
    /// ends here: an optional tracer span, and its `mpi.coll.*` record.
    End { op: &'static str, span: Option<State> },
}

/// What a blocked call waits for; each is one turn.
enum Blocked {
    /// A send's charged overhead and copy end at `until`; then the message
    /// leaves.
    Send { t0: Time, until: Time, dst: usize, tag: Tag, payload: Payload },
    /// A matched receive returns `env` once its overhead ends at `until`.
    Recv { t0: Time, until: Time, env: Envelope, sink: Sink },
    /// A posted receive waits for the arrival hook.
    Posted { t0: Time, sink: Sink },
    /// A `wait` on a rendezvous send.
    Req { t0: Time, state: Arc<Mutex<ReqState>> },
}

/// A plan that is a fixed list of steps.
pub(crate) fn listed(steps: impl AsRef<[Instr]> + Send + 'static) -> impl Fn(usize) -> Option<Instr> + Send {
    move |pc| steps.as_ref().get(pc).copied()
}

/// `count` pairwise rounds, then `end`. Round `i` is `round(i)`'s send
/// and receive, then a wait on every pending request.
pub(crate) fn rounds(
    count: usize,
    round: impl Fn(usize) -> (Instr, Instr) + Send + 'static,
    end: Instr,
) -> impl Fn(usize) -> Option<Instr> + Send {
    move |pc| {
        let (i, part) = (pc / 3, pc % 3);
        if i < count {
            let (send, recv) = round(i);
            Some([send, recv, Instr::WaitAll][part])
        } else {
            (pc == 3 * count).then_some(end)
        }
    }
}

/// One blocking call of one rank: a plan, its buffers and its cursor.
///
/// The plan `P` gives the step at each index, `None` past the end. It is
/// built on demand, so a pairwise exchange over `p` peers holds no
/// `p`-long list.
pub(crate) struct Op<P> {
    world: Arc<World>,
    rank: usize,
    plan: P,
    pc: usize,
    /// Payload slots the plan sends from and receives into.
    pub(crate) bufs: Vec<Payload>,
    /// Rendezvous requests not yet waited for.
    pub(crate) reqs: VecDeque<Request>,
    /// The envelope of the last [`Sink::Keep`] receive.
    pub(crate) kept: Option<Envelope>,
    /// When the current collective began (unset until the call starts).
    coll_t0: Option<Time>,
    blocked: Option<Blocked>,
}

impl<P: Fn(usize) -> Option<Instr> + Send + 'static> Op<P> {
    /// A blocking call of `comm`'s rank: `plan` over `bufs`.
    pub(crate) fn new(comm: &Comm, bufs: Vec<Payload>, plan: P) -> Self {
        Self {
            world: Arc::clone(&comm.world),
            rank: comm.rank(),
            plan,
            pc: 0,
            bufs,
            reqs: VecDeque::new(),
            kept: None,
            coll_t0: None,
            blocked: None,
        }
    }

    /// Run the plan to its end, the calling thread parked throughout;
    /// returns the op with its buffers, requests and envelope.
    pub(crate) fn run(self, ctx: &SimCtx) -> Self {
        ctx.wait_in_kernel(self).0
    }
}

impl<P: Fn(usize) -> Option<Instr> + Send + 'static> Call for Op<P> {
    type Out = ();

    /// Run the plan on until a call blocks (`None`) or the plan ends.
    fn step(&mut self, k: &mut Kernel, pid: Pid) -> Option<()> {
        self.coll_t0.get_or_insert(k.now());
        if let Some(blocked) = self.blocked.take() {
            if !self.resume(k, pid, blocked) {
                return None;
            }
        }
        while let Some(instr) = (self.plan)(self.pc) {
            let ran = match instr {
                Instr::Send { dst, tag, data } => {
                    self.pc += 1;
                    let payload = match data {
                        Data::Take(i) => std::mem::replace(&mut self.bufs[i], Payload::Empty),
                        Data::Copy(i) => self.bufs[i].clone(),
                        Data::Empty => Payload::Empty,
                    };
                    self.start_send(k, pid, dst, tag, payload)
                }
                Instr::Recv { src, tag, sink } => {
                    self.pc += 1;
                    self.start_recv(k, pid, src, tag, sink)
                }
                // Stays at this instruction until no request is left.
                Instr::WaitAll => match self.reqs.pop_front() {
                    Some(req) => self.start_wait(k, pid, req),
                    None => {
                        self.pc += 1;
                        true
                    }
                },
                Instr::End { op, span } => {
                    self.pc += 1;
                    self.end(k, op, span);
                    true
                }
            };
            if !ran {
                return None;
            }
        }
        Some(())
    }
}

impl<P: Fn(usize) -> Option<Instr> + Send + 'static> Op<P> {
    /// A resume of a blocked call: `true` once the call has returned.
    fn resume(&mut self, k: &mut Kernel, pid: Pid, blocked: Blocked) -> bool {
        match blocked {
            Blocked::Send { t0, until, dst, tag, payload } => {
                if !k.until(pid, until) {
                    self.blocked = Some(Blocked::Send { t0, until, dst, tag, payload });
                    return false;
                }
                self.finish_send(k, t0, dst, tag, payload);
            }
            Blocked::Recv { t0, until, env, sink } => {
                if !k.until(pid, until) {
                    self.blocked = Some(Blocked::Recv { t0, until, env, sink });
                    return false;
                }
                self.finish_recv(k, t0, env, sink);
            }
            Blocked::Posted { t0, sink } => {
                let slot = &self.world.slots[self.rank];
                // Woken before the arrival: post afresh.
                let repost = |w| {
                    if let Some((_, waker)) = slot.lock().posted.as_mut() {
                        *waker = w;
                    }
                };
                let Some(Some((ready, env))) = k.turn(pid, None, || slot.lock().delivered.take(), repost) else {
                    self.blocked = Some(Blocked::Posted { t0, sink });
                    return false;
                };
                // Woken between the arrival and the end of the receive
                // overhead: wait out the rest.
                if !k.until(pid, ready) {
                    self.blocked = Some(Blocked::Recv { t0, until: ready, env, sink });
                    return false;
                }
                self.finish_recv(k, t0, env, sink);
            }
            Blocked::Req { t0, state } => {
                let done = || state.lock().done.then_some(());
                if k.turn(pid, None, done, |w| state.lock().waiter = Some(w)).is_none() {
                    self.blocked = Some(Blocked::Req { t0, state });
                    return false;
                }
                self.finish_wait(k, t0);
            }
        }
        true
    }

    /// `isend` up to its first park: software overhead, then (eager) the
    /// bounce-buffer copy, as one charged delay.
    fn start_send(&mut self, k: &mut Kernel, pid: Pid, dst: usize, tag: Tag, payload: Payload) -> bool {
        let t0 = k.now();
        let p = &self.world.params;
        let eager = payload.len_bytes() <= p.eager_limit;
        let copy = if eager { time::transfer_time(payload.len_bytes(), p.copy_gbps) } else { 0 };
        match k.arm_delay(pid, p.overhead_send, copy) {
            Some(until) => {
                self.blocked = Some(Blocked::Send { t0, until, dst, tag, payload });
                false
            }
            None => {
                self.finish_send(k, t0, dst, tag, payload);
                true
            }
        }
    }

    /// The rest of `isend`: the message leaves (eager: whole; rendezvous:
    /// its RTS), and the request joins `reqs`.
    fn finish_send(&mut self, k: &mut Kernel, t0: Time, dst: usize, tag: Tag, payload: Payload) {
        let world = &self.world;
        let bytes = payload.len_bytes();
        let env_bytes = bytes + 64; // header/envelope on the wire
        let eager = bytes <= world.params.eager_limit;
        {
            let m = &world.metrics;
            let path = [("path", if eager { "eager" } else { "rndv" }.into())];
            m.incr_labeled("mpi.msgs", &path, 1);
            m.incr_labeled("mpi.bytes", &path, env_bytes);
            m.observe("mpi.msg_bytes", bytes);
        }
        let sent_at = k.now();
        let env = Envelope { src: self.rank, tag, payload, sent_at };
        let req = if eager {
            let arrival = world.fabric.transfer(sent_at, self.rank, dst, env_bytes, 0);
            world.ports[dst].deliver_at(k, arrival, Wire::Eager(env));
            world.tracer.message(self.rank, dst, sent_at, arrival, env_bytes);
            Request(None)
        } else {
            let msg_id = world.next_id.fetch_add(1, Ordering::Relaxed);
            let rts_arrival = world.fabric.transfer(sent_at, self.rank, dst, 64, 0);
            world.ports[dst].deliver_at(k, rts_arrival, Wire::Rts { src: self.rank, tag, msg_id });
            let req = Arc::new(Mutex::new(ReqState::default()));
            let pending = PendingSend { src: self.rank, dst, env, bytes: env_bytes, req: Arc::clone(&req) };
            world.pending.lock().insert(msg_id, pending);
            Request(Some(req))
        };
        world.tracer.span(self.rank, State::Send, t0, k.now());
        // An eager request was complete when it was made: a `wait` on it
        // returns at once, so it is not kept.
        if req.0.is_some() {
            self.reqs.push_back(req);
        }
    }

    /// A receive up to its first park: take a match from the unexpected
    /// queue and charge the receive overhead, or post the receive
    /// (answering an RTS that was already waiting) for the arrival hook.
    fn start_recv(&mut self, k: &mut Kernel, pid: Pid, src: Option<usize>, tag: Option<Tag>, sink: Sink) -> bool {
        let t0 = k.now();
        let world = Arc::clone(&self.world);
        let unexpected = world.ports[self.rank].take_first(|w| w.matches(src, tag)).map(|(_, w)| w);
        let rts = match unexpected {
            Some(Wire::Eager(env)) => {
                return match k.arm_delay(pid, world.params.overhead_recv, 0) {
                    Some(until) => {
                        self.blocked = Some(Blocked::Recv { t0, until, env, sink });
                        false
                    }
                    None => {
                        self.finish_recv(k, t0, env, sink);
                        true
                    }
                };
            }
            Some(Wire::Rts { msg_id, .. }) => Some(msg_id),
            _ => None,
        };
        let posted = rts.map_or(Posted::Match { src, tag }, Posted::Data);
        // The arrival hook delivers only to a posted receive, so the first
        // turn's condition cannot hold yet: it posts the waker. Nor is
        // anything delivered before the park (`send_cts` only schedules):
        // the receive is resumed by the arrival hook.
        let slot = &world.slots[self.rank];
        k.turn(pid, None, || None::<()>, |w| slot.lock().posted = Some((posted, w)));
        if let Some(msg_id) = rts {
            world.send_cts(k, msg_id);
        }
        self.blocked = Some(Blocked::Posted { t0, sink });
        false
    }

    /// A receive returns: its tracer span, then the payload to its sink.
    fn finish_recv(&mut self, k: &mut Kernel, t0: Time, env: Envelope, sink: Sink) {
        self.world.tracer.span(self.rank, State::Recv, t0, k.now());
        match sink {
            Sink::Slot(i) => self.bufs[i] = env.payload,
            Sink::BySource => self.bufs[env.src] = env.payload,
            Sink::Combine(i, op) => op.combine(&mut self.bufs[i], env.payload),
            Sink::Discard => {}
            Sink::Keep => self.kept = Some(env),
        }
    }

    /// A `wait`: its first turn; an eager request is already done.
    fn start_wait(&mut self, k: &mut Kernel, pid: Pid, req: Request) -> bool {
        let Some(state) = req.0 else { return true };
        self.resume(k, pid, Blocked::Req { t0: k.now(), state })
    }

    fn finish_wait(&self, k: &Kernel, t0: Time) {
        if k.now() > t0 {
            self.world.tracer.span(self.rank, State::Wait, t0, k.now());
        }
    }

    /// A collective ends: a `mpi.coll.calls{op}` count and the call's
    /// virtual duration into the `mpi.coll.time_ps{op}` histogram.
    fn end(&mut self, k: &Kernel, op: &'static str, span: Option<State>) {
        let (t0, now) = (self.coll_t0.replace(k.now()).expect("set when the call started"), k.now());
        if let Some(state) = span {
            self.world.tracer.span(self.rank, state, t0, now);
        }
        let m = &self.world.metrics;
        let label = [("op", op.into())];
        m.incr_labeled("mpi.coll.calls", &label, 1);
        m.observe_labeled("mpi.coll.time_ps", &label, now - t0);
    }
}
