//! Collective operations built from point-to-point algorithms.
//!
//! The algorithms match what openmpi-1.8-era `tuned` collectives use at
//! these message sizes: dissemination barrier, binomial-tree bcast and
//! reduce, reduce+bcast allreduce, ring allgather, and pairwise-exchange
//! alltoall(v). Their costs *emerge* from the point-to-point model — e.g.
//! the ⌈log₂ p⌉ rounds of the dissemination barrier are what makes the
//! MPI barrier in Figure 4 grow with node count.
//!
//! Each collective is one `async fn` of the rank (`comm/op.rs`): a loop of
//! `isend(..).await` / `recv(..).await` / `wait(..).await`, in the order
//! the textbook algorithm issues them, run in the kernel as one blocking
//! call. The rank's thread parks once per collective, and every
//! point-to-point step in between runs at the resume where the thread-run
//! call would have continued. An allreduce is the reduce followed by the
//! bcast, still two `mpi.coll.calls` records.

use dv_core::trace::State;
use dv_sim::SimCtx;

use crate::comm::op::Rank;
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

const COLLECTIVE: Option<State> = Some(State::Collective);

impl Comm {
    /// Dissemination barrier: ⌈log₂ p⌉ rounds of pairwise token exchange.
    pub fn barrier(&self, ctx: &SimCtx) {
        self.run(ctx, |r| async move { r.coll("barrier", Some(State::Barrier), r.barrier()).await });
    }

    /// Binomial-tree broadcast from `root`.
    pub fn bcast(&self, ctx: &SimCtx, root: usize, data: Option<Payload>) -> Payload {
        let data = if self.rank() == root { data.expect("root must supply the broadcast payload") } else { Payload::Empty };
        self.run(ctx, move |r| async move { r.coll("bcast", COLLECTIVE, r.bcast(root, data)).await })
    }

    /// Binomial-tree reduction to `root`; returns `Some(result)` on root.
    pub fn reduce(&self, ctx: &SimCtx, root: usize, op: ReduceOp, contribution: Payload) -> Option<Payload> {
        let acc = self.run(ctx, move |r| async move { r.coll("reduce", COLLECTIVE, r.reduce(root, op, contribution)).await });
        (self.rank() == root).then_some(acc)
    }

    /// Allreduce = reduce to 0 + broadcast (openmpi's default composition
    /// at these sizes), as one call.
    pub fn allreduce(&self, ctx: &SimCtx, op: ReduceOp, contribution: Payload) -> Payload {
        self.run(ctx, move |r| async move {
            let acc = r.coll("reduce", COLLECTIVE, r.reduce(0, op, contribution)).await;
            r.coll("bcast", COLLECTIVE, r.bcast(0, acc)).await
        })
    }

    /// Gather all contributions at `root` (linear); `Some(vec)` on root,
    /// indexed by rank.
    pub fn gather(&self, ctx: &SimCtx, root: usize, contribution: Payload) -> Option<Vec<Payload>> {
        self.run(ctx, move |r| async move { r.coll("gather", None, r.gather(root, contribution)).await })
    }

    /// Scatter per-rank payloads from `root` (linear).
    pub fn scatter(&self, ctx: &SimCtx, root: usize, data: Option<Vec<Payload>>) -> Payload {
        let data = (self.rank() == root).then(|| data.expect("root must supply scatter data"));
        self.run(ctx, move |r| async move { r.coll("scatter", None, r.scatter(root, data)).await })
    }

    /// Ring allgather: p−1 steps, each forwarding one block.
    pub fn allgather(&self, ctx: &SimCtx, contribution: Payload) -> Vec<Payload> {
        self.run(ctx, move |r| async move { r.coll("allgather", COLLECTIVE, r.allgather(contribution)).await })
    }

    /// Pairwise-exchange alltoall: `blocks[d]` goes to rank `d`; returns
    /// the blocks received, indexed by source. Handles unequal block sizes
    /// (alltoallv) for free.
    pub fn alltoall(&self, ctx: &SimCtx, blocks: Vec<Payload>) -> Vec<Payload> {
        self.run(ctx, move |r| async move { r.coll("alltoall", COLLECTIVE, r.alltoall(blocks)).await })
    }
}

/// `n` empty payload slots.
fn empty(n: usize) -> Vec<Payload> {
    (0..n).map(|_| Payload::Empty).collect()
}

impl Rank {
    async fn barrier(&self) {
        let (n, me) = (self.size(), self.rank);
        for i in 0..n.next_power_of_two().trailing_zeros() {
            let (k, tag) = (1 << i, BARRIER_TAG + Tag::from(i));
            let req = self.isend((me + k) % n, tag, Payload::Empty).await;
            self.recv(Some((me + n - k) % n), Some(tag)).await;
            self.wait(req).await;
        }
    }

    /// Receive `data` from the parent (unless `root`), then forward it to
    /// each child, largest subtree first.
    async fn bcast(&self, root: usize, mut data: Payload) -> Payload {
        let n = self.size();
        let vr = (self.rank + n - root) % n;
        if vr != 0 {
            let parent = vr ^ (1 << vr.trailing_zeros());
            data = self.recv(Some((parent + root) % n), Some(BCAST_TAG)).await.payload;
        }
        // Children sit at vr + 2^b for every bit b below vr's lowest set
        // bit (below p's next power of two at the root).
        let top = if vr == 0 { n.next_power_of_two() } else { 1 << vr.trailing_zeros() };
        let mut reqs = Vec::new();
        for mask in (0..top.trailing_zeros()).rev().map(|b| 1 << b) {
            if vr + mask < n {
                reqs.push(self.isend((vr + mask + root) % n, BCAST_TAG, data.clone()).await);
            }
        }
        self.wait_all(reqs).await;
        data
    }

    /// Combine each child's partial into `acc`, then send it to the parent
    /// (which leaves `acc` empty) unless `root`.
    async fn reduce(&self, root: usize, op: ReduceOp, mut acc: Payload) -> Payload {
        let n = self.size();
        let vr = (self.rank + n - root) % n;
        let mut mask = 1usize;
        while mask < n {
            let tag = REDUCE_TAG + mask as Tag;
            if vr & mask != 0 {
                let data = std::mem::replace(&mut acc, Payload::Empty);
                self.wait(self.isend(((vr ^ mask) + root) % n, tag, data).await).await;
                break;
            }
            if vr | mask < n {
                op.combine(&mut acc, self.recv(Some(((vr | mask) + root) % n), Some(tag)).await.payload);
            }
            mask <<= 1;
        }
        acc
    }

    async fn gather(&self, root: usize, contribution: Payload) -> Option<Vec<Payload>> {
        if self.rank != root {
            self.wait(self.isend(root, GATHER_TAG, contribution).await).await;
            return None;
        }
        let mut out = empty(self.size());
        out[root] = contribution;
        // n − 1 receives, in arrival order.
        for _ in 1..self.size() {
            let env = self.recv(None, Some(GATHER_TAG)).await;
            out[env.src] = env.payload;
        }
        Some(out)
    }

    async fn scatter(&self, root: usize, data: Option<Vec<Payload>>) -> Payload {
        let Some(mut data) = data else {
            return self.recv(Some(root), Some(SCATTER_TAG)).await.payload;
        };
        assert_eq!(data.len(), self.size());
        let mine = std::mem::replace(&mut data[root], Payload::Empty);
        let mut reqs = Vec::new();
        for (dst, block) in data.into_iter().enumerate().filter(|&(dst, _)| dst != root) {
            reqs.push(self.isend(dst, SCATTER_TAG, block).await);
        }
        self.wait_all(reqs).await;
        mine
    }

    async fn allgather(&self, contribution: Payload) -> Vec<Payload> {
        let (n, me) = (self.size(), self.rank);
        let mut blocks = empty(n);
        blocks[me] = contribution;
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        for step in 0..n.saturating_sub(1) {
            let tag = ALLGATHER_TAG + step as Tag;
            let req = self.isend(right, tag, blocks[(me + n - step) % n].clone()).await;
            blocks[(me + n - step - 1) % n] = self.recv(Some(left), Some(tag)).await.payload;
            self.wait(req).await;
        }
        blocks
    }

    async fn alltoall(&self, mut blocks: Vec<Payload>) -> Vec<Payload> {
        let (n, me) = (self.size(), self.rank);
        assert_eq!(blocks.len(), n);
        let mut out = empty(n);
        out[me] = std::mem::replace(&mut blocks[me], Payload::Empty);
        for step in 1..n {
            let tag = ALLTOALL_TAG + step as Tag;
            let (dst, src) = ((me + step) % n, (me + n - step) % n);
            let req = self.isend(dst, tag, std::mem::replace(&mut blocks[dst], Payload::Empty)).await;
            out[src] = self.recv(Some(src), Some(tag)).await.payload;
            self.wait(req).await;
        }
        out
    }
}
