//! Shared helpers: compute-time charging (on the thread, or awaited in a
//! body run in the kernel), data distribution, packing.

use std::future::Future;

use dv_api::At;
use dv_core::config::ComputeParams;
use dv_core::time::{secs_f64, Time};
use dv_sim::SimCtx;
use mini_mpi::Rank;

/// The virtual time `ops` operations take at `rate_per_sec`; `None` for
/// no operations, which are not charged at all.
fn cost(ops: u64, rate_per_sec: f64) -> Option<Time> {
    if ops == 0 {
        return None;
    }
    debug_assert!(rate_per_sec > 0.0);
    Some(secs_f64(ops as f64 / rate_per_sec))
}

/// Charge virtual time for `ops` operations at `rate_per_sec`.
pub fn charge(ctx: &SimCtx, ops: u64, rate_per_sec: f64) {
    if let Some(d) = cost(ops, rate_per_sec) {
        ctx.delay(d);
    }
}

/// What a body run in the kernel charges its compute through: a DV node's
/// [`At`] ([`dv_api::DvCtx::run`]) or an MPI rank's [`Rank`]
/// ([`mini_mpi::Comm::run`]).
pub trait Delay {
    /// Advance virtual time by `d`; returns the time it ended.
    fn delay(&self, d: Time) -> impl Future<Output = Time> + Send;
}

impl Delay for At {
    fn delay(&self, d: Time) -> impl Future<Output = Time> + Send {
        At::delay(self, d)
    }
}

impl Delay for Rank {
    fn delay(&self, d: Time) -> impl Future<Output = Time> + Send {
        Rank::delay(self, d)
    }
}

/// [`charge`] in a body run in the kernel: the same delay, awaited.
pub async fn spend(on: &impl Delay, ops: u64, rate_per_sec: f64) {
    if let Some(d) = cost(ops, rate_per_sec) {
        on.delay(d).await;
    }
}

/// Spend time on random 8-byte read-modify-writes (MUPS).
pub async fn spend_updates(on: &impl Delay, compute: &ComputeParams, updates: u64) {
    spend(on, updates, compute.local_update_mups * 1e6).await;
}

/// Spend time on CSR edge scans (MEPS).
pub async fn spend_edges(on: &impl Delay, compute: &ComputeParams, edges: u64) {
    spend(on, edges, compute.edge_scan_meps * 1e6).await;
}

/// Spend time streaming `bytes` through host memory
/// ([`charge_mem_bytes`], awaited).
pub async fn spend_mem_bytes(on: &impl Delay, compute: &ComputeParams, bytes: u64) {
    spend(on, bytes, compute.mem_gbps * 1e9).await;
}

/// Charge for floating-point work at the node's FFT rate (GFLOP/s).
pub fn charge_flops(ctx: &SimCtx, compute: &ComputeParams, flops: u64) {
    charge(ctx, flops, compute.flops_gflops * 1e9);
}

/// Charge for streaming `bytes` through host memory.
pub fn charge_mem_bytes(ctx: &SimCtx, compute: &ComputeParams, bytes: u64) {
    charge(ctx, bytes, compute.mem_gbps * 1e9);
}

/// Block distribution of `total` items over `parts` owners: item `i`
/// belongs to `owner(i)` at local offset `i - start(owner)`. The first
/// `total % parts` owners hold one extra item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDist {
    /// Total items.
    pub total: usize,
    /// Number of owners.
    pub parts: usize,
}

impl BlockDist {
    /// New distribution.
    pub fn new(total: usize, parts: usize) -> Self {
        assert!(parts > 0);
        Self { total, parts }
    }

    /// Items owned by `part`.
    pub fn count(&self, part: usize) -> usize {
        let base = self.total / self.parts;
        let extra = self.total % self.parts;
        base + usize::from(part < extra)
    }

    /// First global index owned by `part`.
    pub fn start(&self, part: usize) -> usize {
        let base = self.total / self.parts;
        let extra = self.total % self.parts;
        part * base + part.min(extra)
    }

    /// Owner of global index `i`.
    pub fn owner(&self, i: usize) -> usize {
        debug_assert!(i < self.total);
        let base = self.total / self.parts;
        let extra = self.total % self.parts;
        let boundary = extra * (base + 1);
        if i < boundary {
            i / (base + 1)
        } else {
            extra + (i - boundary) / base
        }
    }

    /// Local offset of global index `i` within its owner.
    pub fn local(&self, i: usize) -> usize {
        i - self.start(self.owner(i))
    }
}

/// Pack two 32-bit values into one 64-bit payload word (BFS visit
/// messages: `(vertex, parent)`).
#[inline]
pub fn pack2(hi: u32, lo: u32) -> u64 {
    (hi as u64) << 32 | lo as u64
}

/// Inverse of [`pack2`].
#[inline]
pub fn unpack2(w: u64) -> (u32, u32) {
    ((w >> 32) as u32, w as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_dist_partitions_exactly() {
        for (total, parts) in [(10, 3), (32, 32), (7, 8), (100, 1), (0, 4), (33, 4)] {
            let d = BlockDist::new(total, parts);
            let sum: usize = (0..parts).map(|p| d.count(p)).sum();
            assert_eq!(sum, total, "{total}/{parts}");
            // starts are consistent with counts
            for p in 0..parts - 1 {
                assert_eq!(d.start(p) + d.count(p), d.start(p + 1));
            }
        }
    }

    #[test]
    fn owner_and_local_invert_start() {
        let d = BlockDist::new(33, 4);
        for i in 0..33 {
            let o = d.owner(i);
            assert!(d.start(o) <= i && i < d.start(o) + d.count(o), "i={i} o={o}");
            assert_eq!(d.start(o) + d.local(i), i);
        }
    }

    #[test]
    fn pack_unpack_round_trip() {
        for (a, b) in [(0, 0), (1, 2), (u32::MAX, 7), (0xDEAD, u32::MAX)] {
            assert_eq!(unpack2(pack2(a, b)), (a, b));
        }
    }

    #[test]
    fn charges_advance_time_proportionally_on_the_thread_and_in_the_kernel() {
        // The thread's `charge` and the kernel-run `spend` take the same
        // time for the same work, and twice the work takes twice as long.
        let report = mini_mpi::MpiCluster::from_spec(dv_core::spec::SimSpec::new(1)).run(|comm, ctx| {
            let rate = ComputeParams::default().local_update_mups * 1e6;
            let t0 = ctx.now();
            charge(ctx, 1_000, rate);
            let t1 = ctx.now();
            comm.run(ctx, move |r| async move {
                spend(&r, 2_000, rate).await;
                spend(&r, 0, rate).await;
            });
            (t1 - t0, ctx.now() - t1)
        });
        let (a, b) = report.result[0];
        assert!(a > 0);
        // 2x the updates ≈ 2x the time.
        let ratio = b as f64 / a as f64;
        assert!((ratio - 2.0).abs() < 0.01, "{ratio}");
    }
}
