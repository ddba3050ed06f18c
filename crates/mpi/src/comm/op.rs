//! [`Rank`]: the async face of [`Comm`], where every blocking call runs in
//! the kernel.
//!
//! Every blocking call — `isend`, `send`, `recv`, `wait`, `sendrecv`, and
//! every collective — is one `async fn` of [`Rank`] with one body, and the
//! blocking `Comm` call is a thin door onto it: [`Comm::run`] hands the
//! body to [`SimCtx::wait_in_kernel`], the calling thread parks once, each
//! resume of the rank polls the call on in kernel context, and the thread
//! runs again only when the whole call has returned. A 32-rank pairwise
//! alltoall is one handoff per rank instead of two per peer. A kernel may
//! also hand [`Comm::run`] the whole rest of a rank's program as one
//! `async` block over `Rank` — MPI GUPS and BFS and the MPI heat solver
//! do — so the rank's thread runs only to build the inputs and to take
//! the result.
//!
//! A kernel-run call's state travels in by value and out as its output:
//! the future is `'static`, so it borrows nothing from the parked thread.
//! It allocates from the malloc arena of whichever thread dispatches it,
//! and growth scattered over every rank's arena shows on the peak RSS. So
//! what a body will grow is reserved on the rank's thread before the call,
//! and a body that sends blocks round after round packs each round into
//! the blocks the previous one received (MPI GUPS's and BFS's buckets,
//! `MpiTranspose`'s `spare`).
//!
//! Between two resumes a call does exactly what a thread running the same
//! calls would do between the same two parks, side effect for side effect:
//! the same events pushed in the same order, the same fabric reservations,
//! tracer records and metrics. So the commit order, every trace hash and
//! every artifact are the same as if the rank's thread ran each step
//! (`tests/collective_traces.rs` pins them). Each blocked state is one
//! dv-sim wait, re-run on every poll, as [`SimCtx::block_on`] runs it on
//! the thread:
//!
//! * a charged delay (the send overhead and bounce copy, the receive
//!   overhead, a compute charge) is a [`Proc::delay2`] or [`Proc::delay`];
//! * a posted receive is a [`Proc::turn`] that re-posts the current waker
//!   until an arrival has delivered;
//! * a rendezvous `wait` is one that registers until the request is done.

use std::future::Future;
use std::sync::Arc;

use dv_core::time::{self, Time};
use dv_core::trace::State;
use dv_sim::{Kernel, Proc, SimCtx};

use super::{Comm, Envelope, Flight, MpiState, PendingSend, Posted, ReqState, Request, Wire, World};
use crate::payload::Payload;
use crate::Tag;

/// One rank's calls as futures: the rank a call runs for, and its
/// process. Built by [`Comm::run`], which hands it to the call.
pub struct Rank {
    world: Arc<World>,
    pub(crate) rank: usize,
    p: Proc,
}

impl Comm {
    /// Run `call` for this rank in the kernel, the thread parked until it
    /// returns: `call` is polled now, and then at every later resume of
    /// this rank, in whichever thread dispatches, until it completes (see
    /// [`SimCtx::wait_in_kernel`]). It may be one blocking call or the
    /// whole rest of the rank's program. Whatever it will grow is best
    /// reserved before this call, on the rank's thread (the module doc's
    /// allocation rule).
    pub fn run<T, F>(&self, ctx: &SimCtx, call: impl FnOnce(Rank) -> F) -> T
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        ctx.wait_in_kernel(call(Rank { world: Arc::clone(&self.world), rank: self.rank, p: ctx.proc() }))
    }
}

impl Rank {
    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.world.nodes
    }

    /// Advance virtual time by `d` — a compute charge; returns the time it
    /// ended.
    pub async fn delay(&self, d: Time) -> Time {
        self.p.delay(d).await
    }

    /// [`Comm::isend`]: software overhead, then (eager) the bounce-buffer
    /// copy, as one charged delay; then the message leaves (eager: whole;
    /// rendezvous: its RTS).
    pub async fn isend(&self, dst: usize, tag: Tag, payload: Payload) -> Request {
        let p = &self.world.params;
        let eager = payload.len_bytes() <= p.eager_limit;
        let copy = if eager { time::transfer_time(payload.len_bytes(), p.copy_gbps) } else { 0 };
        let (t0, end) = self.p.with(|k| (k.now(), k.arm_delay(self.p.pid(), p.overhead_send, copy)));
        if end.is_some() {
            self.p.resumed().await;
        }
        self.p.until_then(end.unwrap_or(t0), |k| k.with_state(|st, k| self.leave(st, k, t0, dst, tag, payload))).await
    }

    /// The rest of `isend`, at the end of its charge.
    fn leave(&self, st: &mut MpiState, k: &mut Kernel, t0: Time, dst: usize, tag: Tag, payload: Payload) -> Request {
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
            let arrival = st.fabric.transfer(sent_at, self.rank, dst, env_bytes, 0);
            st.schedule(k, arrival, Flight::Arrive { dst, wire: Wire::Eager(env) });
            world.tracer.message(self.rank, dst, sent_at, arrival, env_bytes);
            Request(None)
        } else {
            let rts_arrival = st.fabric.transfer(sent_at, self.rank, dst, 64, 0);
            let send = PendingSend { src: self.rank, dst, env, bytes: env_bytes };
            let msg_id = st.reqs.insert(ReqState { send: Some(send), ..ReqState::default() });
            st.schedule(k, rts_arrival, Flight::Arrive { dst, wire: Wire::Rts { src: self.rank, tag, msg_id } });
            Request(Some(msg_id))
        };
        world.tracer.span(self.rank, State::Send, t0, k.now());
        req
    }

    /// [`Comm::recv`], with optional wildcards: a match from the
    /// unexpected queue, then the receive overhead; or a posted receive
    /// (answering an RTS that was already waiting) that an arrival fills.
    pub async fn recv(&self, src: Option<usize>, tag: Option<Tag>) -> Envelope {
        let (world, pid, rank) = (&self.world, self.p.pid(), self.rank);
        // When the receive began, and a match from the unexpected queue
        // with the end of its charge — or `None`, the receive posted.
        let (t0, matched) = self.p.with(|k| k.with_state(|st: &mut MpiState, k| {
            let t0 = k.now();
            let rts = match st.slots[rank].take_unexpected(|w| w.matches(src, tag)) {
                Some(Wire::Eager(env)) => {
                    return (t0, Some((k.arm_delay(pid, world.params.overhead_recv, 0), env)));
                }
                Some(Wire::Rts { msg_id, .. }) => Some(msg_id),
                _ => None,
            };
            // An arrival delivers only to a posted receive, so the first
            // turn's condition cannot hold yet: it posts the waker. Nor is
            // anything delivered before the park (`send_cts` only
            // schedules): an arrival resumes us.
            let posted = rts.map_or(Posted::Match { src, tag }, Posted::Data);
            k.turn(pid, None, || None::<()>, |w| st.slots[rank].posted = Some((posted, w)));
            if let Some(msg_id) = rts {
                st.send_cts(k, msg_id);
            }
            (t0, None)
        }));
        let (ready, env) = match matched {
            Some((end, env)) => {
                if end.is_some() {
                    self.p.resumed().await;
                }
                (end.unwrap_or(t0), env)
            }
            None => {
                self.p.resumed().await;
                // Woken before the arrival: post afresh.
                let repost = |st: &mut MpiState, w| {
                    if let Some((_, waker)) = st.slots[rank].posted.as_mut() {
                        *waker = w;
                    }
                };
                let delivered = self.p.turn_in(None, |st| st.slots[rank].delivered.take(), repost).await;
                delivered.expect("a wait without a deadline only returns a delivery")
            }
        };
        // Woken before the end of the receive overhead: wait out the rest.
        self.p.until_then(ready, |k| world.tracer.span(self.rank, State::Recv, t0, k.now())).await;
        env
    }

    /// [`Comm::recv_from`]: a receive from a specific source and tag.
    pub async fn recv_from(&self, src: usize, tag: Tag) -> Envelope {
        self.recv(Some(src), Some(tag)).await
    }

    /// [`Comm::wait`] on one request; an eager request was complete when
    /// it was made.
    pub async fn wait(&self, req: Request) {
        let Some(id) = req.0 else { return };
        let t0 = self.p.now();
        // Done: the entry is freed for the next rendezvous send.
        let done = |st: &mut MpiState| st.reqs.get(id).done.then(|| drop(st.reqs.remove(id)));
        self.p.turn_in(None, done, |st, w| st.reqs.get_mut(id).waiter = Some(w)).await;
        let now = self.p.now();
        if now > t0 {
            self.world.tracer.span(self.rank, State::Wait, t0, now);
        }
    }

    /// [`Comm::wait_all`]: `wait` on every request, oldest first.
    pub async fn wait_all(&self, reqs: Vec<Request>) {
        for req in reqs {
            self.wait(req).await;
        }
    }

    /// Run collective `op`'s `body`, then record it: an optional tracer
    /// span, a `mpi.coll.calls{op}` count and the call's virtual duration
    /// into the `mpi.coll.time_ps{op}` histogram.
    pub(crate) async fn coll<T>(&self, op: &'static str, span: Option<State>, body: impl Future<Output = T>) -> T {
        let t0 = self.p.now();
        let out = body.await;
        let now = self.p.now();
        if let Some(state) = span {
            self.world.tracer.span(self.rank, state, t0, now);
        }
        let m = &self.world.metrics;
        let label = [("op", op.into())];
        m.incr_labeled("mpi.coll.calls", &label, 1);
        m.observe_labeled("mpi.coll.time_ps", &label, now - t0);
        out
    }
}
