//! The one map of a node's two VIC budgets, 2²² words of DV memory and 64
//! group counters (Section IV), as a pure function of the node count: the
//! status-page blocks are packed end to end after the VIC's accepted-count
//! block, the bulk region starts at the next DV-memory page, and the reply
//! runs end at the top (DESIGN.md has the table). No address or counter
//! number enters virtual time or metrics.

use std::ops::Range;

use dv_core::packet::{BARRIER_GC, DV_MEMORY_WORDS, GROUP_COUNTERS, SCRATCH_GC};
use dv_vic::{memory::PAGE_WORDS, FIFO_RECV_BASE};

/// Group counters of the in-house FastBarrier.
pub const FAST_BARRIER_GC: [u8; 2] = [3, 4];
/// Group counter of [`ReliableFifo::verify_epoch`](crate::ReliableFifo::verify_epoch)'s replies.
pub const VERIFY_GC: u8 = (GROUP_COUNTERS - 2) as u8;
/// Group counter of [`DvCtx::read_word`](crate::DvCtx::read_word)'s reply.
pub const QUERY_GC: u8 = (GROUP_COUNTERS - 1) as u8;
/// Every counter the API itself uses.
pub const RESERVED_GCS: [u8; 7] =
    [SCRATCH_GC, BARRIER_GC[0], BARRIER_GC[1], FAST_BARRIER_GC[0], FAST_BARRIER_GC[1], VERIFY_GC, QUERY_GC];
/// The counters a run's kernel takes with [`Layout::kernel_gcs`].
pub const KERNEL_GCS: Range<u8> = FAST_BARRIER_GC[1] + 1..VERIFY_GC;

/// Where every DV-memory block of a `nodes`-node run starts. A block with
/// one slot per peer `s` has it at `start + s`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// The VIC's per-source accepted FIFO counts (`nodes` words).
    pub accepted: u32,
    /// A word no block uses: the FastBarrier's decrement-only packets land here.
    pub fast_barrier_sink: u32,
    /// Per-peer counts of the words an epoch owed us (`nodes` words).
    pub epoch_counts: u32,
    /// Per-peer sizes of the next BFS frontier (`nodes` words).
    pub frontier_sizes: u32,
    /// The allreduce's `(value, flag)` pair of peer `s` at `+ 2·s`.
    pub reduce_scratch: u32,
    /// SNAP's four neighbour credit slots.
    pub credits: u32,
    /// Words the VIC pushes to host memory: every block above, and never
    /// fewer than 1024.
    pub status_page_words: usize,
    /// First word of [`Layout::bulk`]: a page boundary, so lent runs hold
    /// whole word pairs.
    pub bulk_base: u32,
    /// Reply slot of destination `d`'s accepted count in a verify round.
    pub verify_replies: u32,
    /// Reply slot of [`DvCtx::read_word`](crate::DvCtx::read_word): the last word.
    pub query_reply: u32,
    nodes: usize,
}

impl Layout {
    /// The map of a `nodes`-node run.
    pub fn new(nodes: usize) -> Self {
        // After the VIC's `nodes` accepted counts at FIFO_RECV_BASE.
        let n = nodes as u32;
        let [epoch_counts, frontier_sizes, reduce_scratch] = [1, 2, 3].map(|i| FIFO_RECV_BASE + i * n);
        let credits = reduce_scratch + 2 * n;
        let status_page_words = 1024.max(credits as usize + 4);
        let bulk_base = status_page_words.next_multiple_of(PAGE_WORDS) as u32;
        let query_reply = (DV_MEMORY_WORDS - 1) as u32;
        let verify_replies = query_reply - n;
        Self {
            accepted: FIFO_RECV_BASE, fast_barrier_sink: 0, epoch_counts, frontier_sizes, reduce_scratch,
            credits, status_page_words, bulk_base, verify_replies, query_reply, nodes,
        }
    }

    /// The bulk region of the run's one bulk user (ping-pong, FFT,
    /// transpose, heat or SNAP), which needs `words` words of it.
    ///
    /// # Panics
    /// Panics, naming DV memory, when they do not fit below the replies.
    pub fn bulk(&self, words: usize) -> u32 {
        let free = (self.verify_replies - self.bulk_base) as usize;
        let nodes = self.nodes;
        assert!(words <= free, "DV memory exhausted: {words} bulk words asked, {free} free ({nodes} nodes)");
        self.bulk_base
    }

    /// `count` group counters for the run's kernel, none of them reserved.
    ///
    /// # Panics
    /// Panics, naming the group counters, when `count` exceed the free ones.
    pub fn kernel_gcs(&self, count: usize) -> Range<u8> {
        let free = KERNEL_GCS.len();
        assert!(count <= free, "group counters exhausted: {count} asked, {free} free ({KERNEL_GCS:?})");
        KERNEL_GCS.start..KERNEL_GCS.start + count as u8
    }
}
