//! Collective operations built from point-to-point algorithms.
//!
//! The algorithms match what openmpi-1.8-era `tuned` collectives use at
//! these message sizes: dissemination barrier, binomial-tree bcast and
//! reduce, reduce+bcast allreduce, ring allgather, and pairwise-exchange
//! alltoall(v). Their costs *emerge* from the point-to-point model — e.g.
//! the ⌈log₂ p⌉ rounds of the dissemination barrier are what makes the
//! MPI barrier in Figure 4 grow with node count.
//!
//! Each collective is laid out as one plan of point-to-point steps —
//! `isend`, `recv`, `wait`, in the order the textbook algorithm issues
//! them — and run by the op machine (`comm/op.rs`) as one blocking call: the
//! rank's thread parks once per collective, and every point-to-point step
//! in between runs in the kernel at the resume where the thread-run call
//! would have continued. An allreduce is the reduce plan followed by the
//! bcast plan, still two `mpi.coll.calls` records.

use dv_core::trace::State;
use dv_sim::SimCtx;

use crate::comm::Comm;
use crate::comm::op::{listed, rounds, Data, Instr, Op, Sink};
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
    /// Dissemination barrier: ⌈log₂ p⌉ rounds of pairwise token exchange.
    pub fn barrier(&self, ctx: &SimCtx) {
        let n = self.size();
        let me = self.rank();
        let count = n.next_power_of_two().trailing_zeros() as usize;
        let round = move |i: usize| {
            let (k, tag) = (1 << i, BARRIER_TAG + i as Tag);
            let send = Instr::Send { dst: (me + k) % n, tag, data: Data::Empty };
            (send, Instr::Recv { src: Some((me + n - k) % n), tag: Some(tag), sink: Sink::Discard })
        };
        let end = Instr::End { op: "barrier", span: Some(State::Barrier) };
        Op::new(self, Vec::new(), rounds(count, round, end)).run(ctx);
    }

    /// Binomial-tree broadcast of slot 0 from `root`, appended to `plan`.
    fn plan_bcast(&self, plan: &mut Vec<Instr>, root: usize) {
        let n = self.size();
        let vr = (self.rank() + n - root) % n;
        if vr != 0 {
            let mut mask = 1usize;
            loop {
                assert!(mask < n, "non-root rank never received in bcast");
                if vr & mask != 0 {
                    let src = ((vr ^ mask) + root) % n;
                    plan.push(Instr::Recv { src: Some(src), tag: Some(BCAST_TAG), sink: Sink::Slot(0) });
                    break;
                }
                mask <<= 1;
            }
        }
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
        while mask > 0 {
            if vr + mask < n {
                let dst = ((vr + mask) + root) % n;
                plan.push(Instr::Send { dst, tag: BCAST_TAG, data: Data::Copy(0) });
            }
            mask >>= 1;
        }
        plan.push(Instr::WaitAll);
        plan.push(Instr::End { op: "bcast", span: Some(State::Collective) });
    }

    /// Binomial-tree reduction of slot 0 to `root`, appended to `plan`.
    fn plan_reduce(&self, plan: &mut Vec<Instr>, root: usize, op: ReduceOp) {
        let n = self.size();
        let vr = (self.rank() + n - root) % n;
        let mut mask = 1usize;
        while mask < n {
            let tag = REDUCE_TAG + mask as Tag;
            if vr & mask == 0 {
                let peer = vr | mask;
                if peer < n {
                    let src = Some((peer + root) % n);
                    plan.push(Instr::Recv { src, tag: Some(tag), sink: Sink::Combine(0, op) });
                }
            } else {
                let dst = ((vr ^ mask) + root) % n;
                plan.push(Instr::Send { dst, tag, data: Data::Take(0) });
                plan.push(Instr::WaitAll);
                break;
            }
            mask <<= 1;
        }
        plan.push(Instr::End { op: "reduce", span: Some(State::Collective) });
    }

    /// Binomial-tree broadcast from `root`.
    pub fn bcast(&self, ctx: &SimCtx, root: usize, data: Option<Payload>) -> Payload {
        let data = if self.rank() == root {
            data.expect("root must supply the broadcast payload")
        } else {
            Payload::Empty
        };
        let mut plan = Vec::new();
        self.plan_bcast(&mut plan, root);
        let mut op = Op::new(self, vec![data], listed(plan)).run(ctx);
        op.bufs.swap_remove(0)
    }

    /// Binomial-tree reduction to `root`; returns `Some(result)` on root.
    pub fn reduce(&self, ctx: &SimCtx, root: usize, op: ReduceOp, contribution: Payload) -> Option<Payload> {
        let mut plan = Vec::new();
        self.plan_reduce(&mut plan, root, op);
        let mut op = Op::new(self, vec![contribution], listed(plan)).run(ctx);
        (self.rank() == root).then(|| op.bufs.swap_remove(0))
    }

    /// Allreduce = reduce to 0 + broadcast (openmpi's default composition
    /// at these sizes), as one call.
    pub fn allreduce(&self, ctx: &SimCtx, op: ReduceOp, contribution: Payload) -> Payload {
        let mut plan = Vec::new();
        self.plan_reduce(&mut plan, 0, op);
        self.plan_bcast(&mut plan, 0);
        let mut op = Op::new(self, vec![contribution], listed(plan)).run(ctx);
        op.bufs.swap_remove(0)
    }

    /// Gather all contributions at `root` (linear); `Some(vec)` on root,
    /// indexed by rank.
    pub fn gather(&self, ctx: &SimCtx, root: usize, contribution: Payload) -> Option<Vec<Payload>> {
        let n = self.size();
        let me = self.rank();
        let end = Instr::End { op: "gather", span: None };
        if me == root {
            let mut out: Vec<Payload> = (0..n).map(|_| Payload::Empty).collect();
            out[me] = contribution;
            let recv = Instr::Recv { src: None, tag: Some(GATHER_TAG), sink: Sink::BySource };
            // n − 1 receives, in arrival order, then the end.
            let plan = move |pc: usize| if pc + 1 < n { Some(recv) } else { (pc + 1 == n).then_some(end) };
            Some(Op::new(self, out, plan).run(ctx).bufs)
        } else {
            let send = Instr::Send { dst: root, tag: GATHER_TAG, data: Data::Take(0) };
            Op::new(self, vec![contribution], listed([send, Instr::WaitAll, end])).run(ctx);
            None
        }
    }

    /// Scatter per-rank payloads from `root` (linear).
    pub fn scatter(&self, ctx: &SimCtx, root: usize, data: Option<Vec<Payload>>) -> Payload {
        let n = self.size();
        let me = self.rank();
        let end = Instr::End { op: "scatter", span: None };
        if me == root {
            let mut data = data.expect("root must supply scatter data");
            assert_eq!(data.len(), n);
            let mine = std::mem::replace(&mut data[me], Payload::Empty);
            let mut plan: Vec<Instr> = (0..n)
                .filter(|&dst| dst != me)
                .map(|dst| Instr::Send { dst, tag: SCATTER_TAG, data: Data::Take(dst) })
                .collect();
            plan.extend([Instr::WaitAll, end]);
            Op::new(self, data, listed(plan)).run(ctx);
            mine
        } else {
            let recv = Instr::Recv { src: Some(root), tag: Some(SCATTER_TAG), sink: Sink::Slot(0) };
            let mut op = Op::new(self, vec![Payload::Empty], listed([recv, end])).run(ctx);
            op.bufs.swap_remove(0)
        }
    }

    /// Ring allgather: p−1 steps, each forwarding one block.
    pub fn allgather(&self, ctx: &SimCtx, contribution: Payload) -> Vec<Payload> {
        let n = self.size();
        let me = self.rank();
        let mut blocks: Vec<Payload> = (0..n).map(|_| Payload::Empty).collect();
        blocks[me] = contribution;
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        let round = move |step: usize| {
            let tag = ALLGATHER_TAG + step as Tag;
            let send_idx = (me + n - step) % n;
            let recv_idx = (me + n - step - 1) % n;
            let send = Instr::Send { dst: right, tag, data: Data::Copy(send_idx) };
            (send, Instr::Recv { src: Some(left), tag: Some(tag), sink: Sink::Slot(recv_idx) })
        };
        let end = Instr::End { op: "allgather", span: Some(State::Collective) };
        Op::new(self, blocks, rounds(n.saturating_sub(1), round, end)).run(ctx).bufs
    }

    /// Pairwise-exchange alltoall: `blocks[d]` goes to rank `d`; returns
    /// the blocks received, indexed by source. Handles unequal block sizes
    /// (alltoallv) for free.
    pub fn alltoall(&self, ctx: &SimCtx, mut blocks: Vec<Payload>) -> Vec<Payload> {
        let n = self.size();
        let me = self.rank();
        assert_eq!(blocks.len(), n);
        // Slots 0..n are the outgoing blocks, n..2n the received ones.
        blocks.extend((0..n).map(|_| Payload::Empty));
        blocks.swap(me, n + me);
        let round = move |i: usize| {
            let step = i + 1;
            let tag = ALLTOALL_TAG + step as Tag;
            let (dst, src) = ((me + step) % n, (me + n - step) % n);
            let send = Instr::Send { dst, tag, data: Data::Take(dst) };
            (send, Instr::Recv { src: Some(src), tag: Some(tag), sink: Sink::Slot(n + src) })
        };
        let end = Instr::End { op: "alltoall", span: Some(State::Collective) };
        let mut op = Op::new(self, blocks, rounds(n - 1, round, end)).run(ctx);
        op.bufs.split_off(n)
    }
}
