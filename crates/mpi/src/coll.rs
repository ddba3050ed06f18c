//! Collective operations built from point-to-point algorithms.
//!
//! The algorithms match what openmpi-1.8-era `tuned` collectives use at
//! these message sizes: dissemination barrier, binomial-tree bcast and
//! reduce, reduce+bcast allreduce, ring allgather, and pairwise-exchange
//! alltoall(v). Their costs *emerge* from the point-to-point model — e.g.
//! the ⌈log₂ p⌉ rounds of the dissemination barrier are what makes the
//! MPI barrier in Figure 4 grow with node count.

use dv_core::time::Time;
use dv_core::trace::State;
use dv_sim::SimCtx;

use crate::comm::Comm;
use crate::payload::Payload;
use crate::{Tag, RESERVED_TAG_BASE};

const BARRIER_TAG: Tag = RESERVED_TAG_BASE;
const BCAST_TAG: Tag = RESERVED_TAG_BASE + 0x100;
const REDUCE_TAG: Tag = RESERVED_TAG_BASE + 0x200;
const GATHER_TAG: Tag = RESERVED_TAG_BASE + 0x300;
const ALLGATHER_TAG: Tag = RESERVED_TAG_BASE + 0x400;
const ALLTOALL_TAG: Tag = RESERVED_TAG_BASE + 0x500;
const SCATTER_TAG: Tag = RESERVED_TAG_BASE + 0x600;

/// Elementwise reduction operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum (F64 or U64).
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
    /// Elementwise XOR (U64 only).
    Xor,
}

impl ReduceOp {
    /// Combine two payloads elementwise into the left one.
    pub fn combine(self, acc: &mut Payload, other: Payload) {
        match (acc, other) {
            (Payload::F64(a), Payload::F64(b)) => {
                assert_eq!(a.len(), b.len(), "reduce length mismatch");
                for (x, y) in a.iter_mut().zip(b) {
                    *x = match self {
                        ReduceOp::Sum => *x + y,
                        ReduceOp::Max => x.max(y),
                        ReduceOp::Min => x.min(y),
                        ReduceOp::Xor => panic!("XOR is not defined for F64"),
                    };
                }
            }
            (Payload::U64(a), Payload::U64(b)) => {
                assert_eq!(a.len(), b.len(), "reduce length mismatch");
                for (x, y) in a.iter_mut().zip(b) {
                    *x = match self {
                        ReduceOp::Sum => x.wrapping_add(y),
                        ReduceOp::Max => (*x).max(y),
                        ReduceOp::Min => (*x).min(y),
                        ReduceOp::Xor => *x ^ y,
                    };
                }
            }
            (a, b) => panic!("cannot reduce {a:?} with {b:?}"),
        }
    }
}

impl Comm {
    /// Record one finished collective: a `mpi.coll.calls{op}` count and the
    /// call's virtual duration into the `mpi.coll.time_ps{op}` histogram.
    fn record_coll(&self, ctx: &SimCtx, op: &'static str, t0: Time) {
        let m = self.metrics();
        let label = [("op", op.into())];
        m.incr_labeled("mpi.coll.calls", &label, 1);
        m.observe_labeled("mpi.coll.time_ps", &label, ctx.now() - t0);
    }

    /// Dissemination barrier: ⌈log₂ p⌉ rounds of pairwise token exchange.
    pub fn barrier(&self, ctx: &SimCtx) {
        let t0 = ctx.now();
        let n = self.size();
        let me = self.rank();
        let mut k = 1usize;
        let mut round = 0;
        while k < n {
            let to = (me + k) % n;
            let from = (me + n - k) % n;
            let tag = BARRIER_TAG + round;
            let req = self.isend(ctx, to, tag, Payload::Empty);
            let _ = self.recv_from(ctx, from, tag);
            self.wait(ctx, req);
            k <<= 1;
            round += 1;
        }
        self.tracer().span(me, State::Barrier, t0, ctx.now());
        self.record_coll(ctx, "barrier", t0);
    }

    /// Binomial-tree broadcast from `root`.
    pub fn bcast(&self, ctx: &SimCtx, root: usize, data: Option<Payload>) -> Payload {
        let t0 = ctx.now();
        let n = self.size();
        let me = self.rank();
        let vr = (me + n - root) % n;
        let payload = if me == root {
            data.expect("root must supply the broadcast payload")
        } else {
            let mut mask = 1usize;
            loop {
                assert!(mask < n, "non-root rank never received in bcast");
                if vr & mask != 0 {
                    let src = ((vr ^ mask) + root) % n;
                    break self.recv_from(ctx, src, BCAST_TAG).payload;
                }
                mask <<= 1;
            }
        };
        // Forward to children.
        let mut mask = {
            let mut m = 1usize;
            while m < n && vr & m == 0 {
                m <<= 1;
            }
            if vr == 0 {
                // Root: highest power of two below n*2 that we looped past.
                let mut m = 1;
                while m < n {
                    m <<= 1;
                }
                m
            } else {
                m
            }
        };
        mask >>= 1;
        let mut reqs = Vec::new();
        while mask > 0 {
            if vr + mask < n {
                let dst = ((vr + mask) + root) % n;
                reqs.push(self.isend(ctx, dst, BCAST_TAG, payload.clone()));
            }
            mask >>= 1;
        }
        self.wait_all(ctx, reqs);
        self.tracer().span(me, State::Collective, t0, ctx.now());
        self.record_coll(ctx, "bcast", t0);
        payload
    }

    /// Binomial-tree reduction to `root`; returns `Some(result)` on root.
    pub fn reduce(&self, ctx: &SimCtx, root: usize, op: ReduceOp, contribution: Payload) -> Option<Payload> {
        let t0 = ctx.now();
        let n = self.size();
        let me = self.rank();
        let vr = (me + n - root) % n;
        let mut acc = contribution;
        let mut mask = 1usize;
        let mut is_root_path = true;
        while mask < n {
            if vr & mask == 0 {
                let peer = vr | mask;
                if peer < n {
                    let env = self.recv_from(ctx, (peer + root) % n, REDUCE_TAG + mask as Tag);
                    op.combine(&mut acc, env.payload);
                }
            } else {
                let dst = ((vr ^ mask) + root) % n;
                self.send(ctx, dst, REDUCE_TAG + mask as Tag, acc);
                acc = Payload::Empty;
                is_root_path = false;
                break;
            }
            mask <<= 1;
        }
        self.tracer().span(me, State::Collective, t0, ctx.now());
        self.record_coll(ctx, "reduce", t0);
        if me == root {
            debug_assert!(is_root_path);
            Some(acc)
        } else {
            None
        }
    }

    /// Allreduce = reduce to 0 + broadcast (openmpi's default composition
    /// at these sizes).
    pub fn allreduce(&self, ctx: &SimCtx, op: ReduceOp, contribution: Payload) -> Payload {
        let reduced = self.reduce(ctx, 0, op, contribution);
        self.bcast(ctx, 0, reduced)
    }

    /// Gather all contributions at `root` (linear); `Some(vec)` on root,
    /// indexed by rank.
    pub fn gather(&self, ctx: &SimCtx, root: usize, contribution: Payload) -> Option<Vec<Payload>> {
        let t0 = ctx.now();
        let n = self.size();
        let me = self.rank();
        let out = if me == root {
            let mut out: Vec<Payload> = (0..n).map(|_| Payload::Empty).collect();
            out[me] = contribution;
            for _ in 0..n - 1 {
                let env = self.recv(ctx, None, Some(GATHER_TAG));
                out[env.src] = env.payload;
            }
            Some(out)
        } else {
            self.send(ctx, root, GATHER_TAG, contribution);
            None
        };
        self.record_coll(ctx, "gather", t0);
        out
    }

    /// Scatter per-rank payloads from `root` (linear).
    pub fn scatter(&self, ctx: &SimCtx, root: usize, data: Option<Vec<Payload>>) -> Payload {
        let t0 = ctx.now();
        let n = self.size();
        let me = self.rank();
        let mine = if me == root {
            let mut data = data.expect("root must supply scatter data");
            assert_eq!(data.len(), n);
            let mine = std::mem::replace(&mut data[me], Payload::Empty);
            let mut reqs = Vec::new();
            for (dst, p) in data.into_iter().enumerate() {
                if dst != me {
                    reqs.push(self.isend(ctx, dst, SCATTER_TAG, p));
                }
            }
            self.wait_all(ctx, reqs);
            mine
        } else {
            self.recv_from(ctx, root, SCATTER_TAG).payload
        };
        self.record_coll(ctx, "scatter", t0);
        mine
    }

    /// Ring allgather: p−1 steps, each forwarding one block.
    pub fn allgather(&self, ctx: &SimCtx, contribution: Payload) -> Vec<Payload> {
        let t0 = ctx.now();
        let n = self.size();
        let me = self.rank();
        let mut blocks: Vec<Payload> = (0..n).map(|_| Payload::Empty).collect();
        blocks[me] = contribution;
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        for step in 0..n.saturating_sub(1) {
            let send_idx = (me + n - step) % n;
            let recv_idx = (me + n - step - 1) % n;
            let out = blocks[send_idx].clone();
            let env = self.sendrecv(
                ctx,
                right,
                ALLGATHER_TAG + step as Tag,
                out,
                left,
                ALLGATHER_TAG + step as Tag,
            );
            blocks[recv_idx] = env.payload;
        }
        self.tracer().span(me, State::Collective, t0, ctx.now());
        self.record_coll(ctx, "allgather", t0);
        blocks
    }

    /// Pairwise-exchange alltoall: `blocks[d]` goes to rank `d`; returns
    /// the blocks received, indexed by source. Handles unequal block sizes
    /// (alltoallv) for free.
    pub fn alltoall(&self, ctx: &SimCtx, mut blocks: Vec<Payload>) -> Vec<Payload> {
        let t0 = ctx.now();
        let n = self.size();
        let me = self.rank();
        assert_eq!(blocks.len(), n);
        let mut out: Vec<Payload> = (0..n).map(|_| Payload::Empty).collect();
        out[me] = std::mem::replace(&mut blocks[me], Payload::Empty);
        for step in 1..n {
            let dst = (me + step) % n;
            let src = (me + n - step) % n;
            let payload = std::mem::replace(&mut blocks[dst], Payload::Empty);
            let env = self.sendrecv(ctx, dst, ALLTOALL_TAG + step as Tag, payload, src, ALLTOALL_TAG + step as Tag);
            out[src] = env.payload;
        }
        self.tracer().span(me, State::Collective, t0, ctx.now());
        self.record_coll(ctx, "alltoall", t0);
        out
    }
}
