//! DV memory as a globally-addressable shared memory.
//!
//! "Because every VIC can address every DV Memory location (local or
//! remote) with the combination of VIC ID and DV Memory address, the DV
//! Memory can also be used as a globally-addressable shared memory."
//! (Section II.) This module is that usage pattern packaged up: a
//! [`GlobalArray`] of 64-bit words striped block-wise over the cluster's
//! VICs, with one-sided `put`/`get` and bulk transfers — the PGAS-flavored
//! programming style the software-runtime related work (GMT, Grappa)
//! provides on commodity clusters, here backed directly by the network
//! hardware.
//!
//! Consistency model = the hardware's: a `put` is a fire-and-forget packet
//! (last write wins at the slot); completion is observed through group
//! counters or barriers, exactly as raw API code would.

use dv_core::packet::{Packet, PacketHeader};
use dv_core::time::Time;
use dv_core::Word;
use dv_sim::SimCtx;

use crate::ctx::{DvCtx, SendMode};
use crate::world::BlockWrite;

/// A distributed array of 64-bit words, block-striped over all VICs'
/// DV memories.
///
/// ```
/// use dv_api::GlobalArray;
///
/// let ga = GlobalArray::new(16384, 100, 4);
/// assert_eq!(ga.len(), 400);
/// let (owner, addr) = ga.locate(250);
/// assert_eq!(owner, 2);
/// assert_eq!(addr, 16384 + 50);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GlobalArray {
    /// First DV-memory word address of the span on every node.
    pub base: u32,
    /// Words stored per node.
    pub per_node: usize,
    /// Nodes in the array.
    pub nodes: usize,
}

impl GlobalArray {
    /// An array of `nodes × per_node` words at DV address `base` on each
    /// node. The caller owns the address-space carve-up (as with the real
    /// API, where "specific addresses must be coordinated ... in
    /// advance").
    pub fn new(base: u32, per_node: usize, nodes: usize) -> Self {
        assert!(per_node > 0 && nodes > 0);
        assert!(
            base as usize + per_node <= dv_core::packet::DV_MEMORY_WORDS,
            "span exceeds DV memory"
        );
        Self { base, per_node, nodes }
    }

    /// Total words.
    pub fn len(&self) -> usize {
        self.per_node * self.nodes
    }

    /// True if the array has zero length (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner node and DV-memory address of global index `i`.
    pub fn locate(&self, i: usize) -> (usize, u32) {
        assert!(i < self.len(), "global index {i} out of bounds");
        (i / self.per_node, self.base + (i % self.per_node) as u32)
    }

    /// One-sided store of one word (a single fine-grained packet; counts
    /// down `gc` at the owner).
    pub fn put(&self, dv: &DvCtx, ctx: &SimCtx, i: usize, value: Word, gc: u8) {
        let (owner, addr) = self.locate(i);
        let pkt = Packet::new(PacketHeader::dv_memory(dv.node(), owner, addr, gc), value);
        dv.send_packets(ctx, &[pkt], SendMode::DirectWrite { cached_headers: true });
    }

    /// One-sided fetch of one word (a "return header" query round trip).
    pub fn get(&self, dv: &DvCtx, ctx: &SimCtx, i: usize) -> Word {
        let (owner, addr) = self.locate(i);
        dv.read_word(ctx, owner, addr)
    }

    /// Bulk one-sided store of `values` starting at global index `i0`,
    /// split into per-owner block writes and shipped as one DMA batch —
    /// node boundaries are handled transparently.
    pub fn put_block(&self, dv: &DvCtx, ctx: &SimCtx, i0: usize, values: &[Word], gc: u8) -> Time {
        assert!(i0 + values.len() <= self.len(), "block write out of bounds");
        let mut blocks = Vec::new();
        let mut off = 0usize;
        while off < values.len() {
            let i = i0 + off;
            let (owner, addr) = self.locate(i);
            let room = self.per_node - (i % self.per_node);
            let take = room.min(values.len() - off);
            blocks.push(BlockWrite {
                dest: owner,
                address: addr,
                gc,
                words: values[off..off + take].to_vec(),
            });
            off += take;
        }
        dv.write_blocks(ctx, blocks, SendMode::Dma { cached_headers: true })
    }

    /// Lend this node's local span to `f` ([`DvCtx::lend_local`]).
    pub fn lend_local(&self, dv: &DvCtx, ctx: &SimCtx, f: impl FnMut(&[Word])) {
        dv.lend_local(ctx, self.base, self.per_node, f)
    }

    /// Initialize this node's local span from host memory.
    pub fn write_local(&self, dv: &DvCtx, ctx: &SimCtx, values: &[Word]) {
        assert!(values.len() <= self.per_node);
        dv.write_local(ctx, self.base, values);
    }

    /// The global index range owned by `node`.
    pub fn local_range(&self, node: usize) -> std::ops::Range<usize> {
        node * self.per_node..(node + 1) * self.per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DvCluster;
    use dv_core::spec::SimSpec;
    use dv_core::packet::SCRATCH_GC;
    use dv_core::time::us;

    const BASE: u32 = 16384;

    #[test]
    fn locate_round_trips_ownership() {
        let ga = GlobalArray::new(BASE, 100, 4);
        assert_eq!(ga.len(), 400);
        for i in [0usize, 99, 100, 250, 399] {
            let (owner, addr) = ga.locate(i);
            assert_eq!(owner, i / 100);
            assert_eq!(addr, BASE + (i % 100) as u32);
            assert!(ga.local_range(owner).contains(&i));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_panics() {
        GlobalArray::new(BASE, 10, 2).locate(20);
    }

    #[test]
    fn put_and_get_across_the_cluster() {
        let results = DvCluster::from_spec(SimSpec::new(4)).run(|dv, ctx| {
            let ga = GlobalArray::new(BASE, 8, dv.nodes());
            // Everyone writes its id into a well-known slot of the next
            // node's span.
            let me = dv.node();
            let target = ((me + 1) % dv.nodes()) * 8 + 3;
            ga.put(dv, ctx, target, me as u64 + 100, dv_core::packet::SCRATCH_GC);
            dv.barrier(ctx);
            ctx.delay(us(20));
            // Read the slot in our own span (written by the left neighbor).
            ga.get(dv, ctx, me * 8 + 3)
        })
        .result;
        for (me, got) in results.iter().enumerate() {
            assert_eq!(*got, ((me + 3) % 4) as u64 + 100);
        }
    }

    #[test]
    fn block_put_spans_node_boundaries() {
        let results = DvCluster::from_spec(SimSpec::new(3)).run(|dv, ctx| {
            let ga = GlobalArray::new(BASE, 10, dv.nodes());
            if dv.node() == 0 {
                // 25 words starting at index 5: spans all three nodes.
                let values: Vec<u64> = (0..25).map(|i| 1000 + i).collect();
                ga.put_block(dv, ctx, 5, &values, SCRATCH_GC);
            }
            dv.barrier(ctx);
            ctx.delay(us(100));
            let mut mine = Vec::new();
            ga.lend_local(dv, ctx, |run| mine.extend_from_slice(run));
            mine
        })
        .result;
        // Reassemble and check the global view.
        let global: Vec<u64> = results.into_iter().flatten().collect();
        for (k, &v) in global[5..30].iter().enumerate() {
            assert_eq!(v, 1000 + k as u64, "index {}", 5 + k);
        }
        assert_eq!(global[0], 0);
        assert_eq!(global[4], 0);
    }

    #[test]
    fn counted_block_put_signals_completion() {
        let ok = DvCluster::from_spec(SimSpec::new(2)).run(|dv, ctx| {
            let ga = GlobalArray::new(BASE, 64, dv.nodes());
            if dv.node() == 1 {
                dv.gc_set_local(ctx, 13, 64);
                dv.barrier(ctx);
                let ok = dv.gc_wait_zero(ctx, 13, None);
                let mut sum = 0;
                ga.lend_local(dv, ctx, |run| sum += run.iter().sum::<u64>());
                ok && sum == (0..64).sum::<u64>()
            } else {
                dv.barrier(ctx);
                let values: Vec<u64> = (0..64).collect();
                // Node 1's span starts at global index 64.
                ga.put_block(dv, ctx, 64, &values, 13);
                true
            }
        })
        .result;
        assert!(ok.into_iter().all(|b| b));
    }
}
