//! The point-to-point engine: every blocking call runs in the kernel.
//!
//! A blocking call — `isend`, `send`, `recv`, `wait`, `sendrecv`, and every
//! collective — is an `async fn` of [`Rank`] run by
//! [`SimCtx::wait_in_kernel`]: the calling thread parks once, each resume
//! of the rank polls the call on in kernel context, and the thread runs
//! again only when the whole call has returned. A 32-rank pairwise
//! alltoall is one handoff per rank instead of two per peer.
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
//!   overhead) is a [`Proc::delay2`];
//! * a posted receive is a [`Proc::turn`] that re-posts the current waker
//!   until the arrival hook has delivered;
//! * a rendezvous `wait` is one that registers until the request is done.

use std::future::Future;
use std::sync::Arc;

use dv_core::time::{self, Time};
use dv_core::trace::State;
use dv_sim::{Kernel, Proc, SimCtx};

use super::{Comm, Envelope, MpiState, PendingSend, Posted, Request, Wire, World};
use crate::payload::Payload;
use crate::Tag;

/// One rank inside a blocking call: what the call's future owns.
pub(crate) struct Rank {
    world: Arc<World>,
    pub(crate) rank: usize,
    p: Proc,
}

impl Comm {
    /// Run `call` on this rank in the kernel, the thread parked until it
    /// returns.
    pub(crate) fn run<T, F>(&self, ctx: &SimCtx, call: impl FnOnce(Rank) -> F) -> T
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        ctx.wait_in_kernel(call(Rank { world: Arc::clone(&self.world), rank: self.rank, p: ctx.proc() }))
    }
}

impl Rank {
    /// Number of ranks.
    pub(crate) fn size(&self) -> usize {
        self.world.ports.len()
    }

    /// `isend`: software overhead, then (eager) the bounce-buffer copy, as
    /// one charged delay; then the message leaves (eager: whole;
    /// rendezvous: its RTS).
    pub(crate) async fn isend(&self, dst: usize, tag: Tag, payload: Payload) -> Request {
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
            world.ports[dst].deliver_at(k, arrival, Wire::Eager(env));
            world.tracer.message(self.rank, dst, sent_at, arrival, env_bytes);
            Request(None)
        } else {
            let rts_arrival = st.fabric.transfer(sent_at, self.rank, dst, 64, 0);
            let msg_id = st.post(PendingSend { src: self.rank, dst, env, bytes: env_bytes });
            world.ports[dst].deliver_at(k, rts_arrival, Wire::Rts { src: self.rank, tag, msg_id });
            Request(Some(msg_id))
        };
        world.tracer.span(self.rank, State::Send, t0, k.now());
        req
    }

    /// A blocking receive with optional wildcards: a match from the
    /// unexpected queue, then the receive overhead; or a posted receive
    /// (answering an RTS that was already waiting) that the arrival hook
    /// fills.
    pub(crate) async fn recv(&self, src: Option<usize>, tag: Option<Tag>) -> Envelope {
        let (world, pid, rank) = (&self.world, self.p.pid(), self.rank);
        // When the receive began, and a match from the unexpected queue
        // with the end of its charge — or `None`, the receive posted.
        let (t0, matched) = self.p.with(|k| k.with_state(|st: &mut MpiState, k| {
            let t0 = k.now();
            let rts = match world.ports[self.rank].take_first(|w| w.matches(src, tag)).map(|(_, w)| w) {
                Some(Wire::Eager(env)) => {
                    return (t0, Some((k.arm_delay(pid, world.params.overhead_recv, 0), env)));
                }
                Some(Wire::Rts { msg_id, .. }) => Some(msg_id),
                _ => None,
            };
            // The arrival hook delivers only to a posted receive, so the
            // first turn's condition cannot hold yet: it posts the waker.
            // Nor is anything delivered before the park (`send_cts` only
            // schedules): the arrival hook resumes us.
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

    /// `wait` on one request; an eager request was complete when it was
    /// made.
    pub(crate) async fn wait(&self, req: Request) {
        let Some(id) = req.0 else { return };
        let t0 = self.p.now();
        self.p.turn_in(None, |st: &mut MpiState| st.complete(id), |st, w| st.reqs[id].waiter = Some(w)).await;
        let now = self.p.now();
        if now > t0 {
            self.world.tracer.span(self.rank, State::Wait, t0, now);
        }
    }

    /// `wait` on every request, oldest first.
    pub(crate) async fn wait_all(&self, reqs: Vec<Request>) {
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
