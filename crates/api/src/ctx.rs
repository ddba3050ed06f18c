//! The per-node Data Vortex API handle.

use std::sync::Arc;

use dv_core::packet::{Packet, PacketHeader};
use dv_core::time::{self, Time};
use dv_core::{NodeId, Word};
use dv_sim::SimCtx;
use dv_vic::Vic;

use crate::layout::Layout;
use crate::world::DvWorld;

/// How packets cross the PCIe bus from host memory to the VIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMode {
    /// Programmed-I/O writes straight from host memory. With
    /// `cached_headers`, headers were staged in DV memory earlier and only
    /// payloads cross the bus.
    DirectWrite {
        /// Headers pre-cached in the sending VIC's DV memory.
        cached_headers: bool,
    },
    /// DMA from host memory (descriptor setup amortized over the batch).
    /// With `cached_headers`, only payloads cross the bus.
    Dma {
        /// Headers pre-cached in the sending VIC's DV memory.
        cached_headers: bool,
    },
}

impl SendMode {
    /// The three modes measured in Figure 3, in plot order.
    pub const FIGURE3: [SendMode; 3] = [
        SendMode::DirectWrite { cached_headers: false },
        SendMode::DirectWrite { cached_headers: true },
        SendMode::Dma { cached_headers: true },
    ];
}

/// Host-side cost of queuing a DMA descriptor batch (the CPU returns as
/// soon as the doorbell rings; the transfer itself overlaps).
pub(crate) const DMA_ENQUEUE: Time = time::ns(250);
/// Host-side cost of popping one surprise packet from the drain buffer.
pub(crate) const FIFO_POP: Time = time::ns(40);
/// Cost of polling the pushed status page (a local read + fence).
pub(crate) const STATUS_POLL: Time = time::ns(120);

/// A credit-checked FIFO send was refused: the destination's surprise
/// FIFO cannot be assumed to have room for the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backpressure {
    /// The destination credit observed at refusal time (capacity minus
    /// queued minus in-flight; may be negative under overload).
    pub credit: i64,
}

/// One node's view of the Data Vortex system.
pub struct DvCtx {
    world: Arc<DvWorld>,
    node: NodeId,
}

impl DvCtx {
    /// Create the handle for `node`.
    pub(crate) fn new(world: Arc<DvWorld>, node: NodeId) -> Self {
        Self { world, node }
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Cluster size.
    pub fn nodes(&self) -> usize {
        self.world.nodes()
    }

    /// Where this run's DV-memory blocks and group counters live.
    pub fn layout(&self) -> &Layout {
        &self.world.layout
    }

    /// The shared world (for tests and benchmarks).
    pub fn world(&self) -> &Arc<DvWorld> {
        &self.world
    }

    // ------------------------------------------------------------------
    // Packet transmission
    // ------------------------------------------------------------------

    /// Send a batch of packets (possibly to many destinations). Returns
    /// the estimated delivery time of the last packet.
    pub fn send_packets(&self, ctx: &SimCtx, packets: &[Packet], mode: SendMode) -> Time {
        ctx.block_on(self.at(ctx).send(packets, mode))
    }

    /// Write `words` into `dest`'s DV memory starting at `address`; each
    /// arriving word decrements `gc` on the destination VIC.
    pub fn write_remote(
        &self,
        ctx: &SimCtx,
        dest: NodeId,
        address: u32,
        words: &[Word],
        gc: u8,
        mode: SendMode,
    ) -> Time {
        let packets: Vec<Packet> = words
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                Packet::new(PacketHeader::dv_memory(self.node, dest, address + i as u32, gc), w)
            })
            .collect();
        self.send_packets(ctx, &packets, mode)
    }

    /// Bulk write: many contiguous block writes (possibly to many
    /// destinations) in **one** PCIe crossing — the scatter primitive the
    /// paper's FFT uses ("a partial row of points can be loaded in the
    /// VIC's memory and scattered to many destination nodes very
    /// efficiently"). Costs are identical to sending one packet per word;
    /// only the bookkeeping is batched.
    pub fn write_blocks(
        &self,
        ctx: &SimCtx,
        blocks: Vec<crate::world::BlockWrite>,
        mode: SendMode,
    ) -> Time {
        ctx.block_on(self.at(ctx).write_blocks(blocks, mode))
    }

    /// Send `words` to `dest`'s surprise FIFO.
    pub fn send_fifo(
        &self,
        ctx: &SimCtx,
        dest: NodeId,
        words: &[Word],
        gc: u8,
        mode: SendMode,
    ) -> Time {
        let packets: Vec<Packet> =
            words.iter().map(|&w| Packet::new(PacketHeader::fifo(self.node, dest, gc), w)).collect();
        self.send_packets(ctx, &packets, mode)
    }

    /// Credit-checked FIFO send: consult the destination's visible credit
    /// (capacity minus queued minus in-flight — the occupancy estimate the
    /// VIC's pushed status page affords) and refuse the batch instead of
    /// letting it overflow. The check is advisory, not a reservation:
    /// concurrent senders can still race a full FIFO, so the recovery
    /// layer remains responsible for actual loss. Costs one status poll;
    /// a refusal counts `api.fifo.backpressure_rejects`.
    pub fn fifo_try_send(
        &self,
        ctx: &SimCtx,
        dest: NodeId,
        words: &[Word],
        gc: u8,
        mode: SendMode,
    ) -> Result<Time, Backpressure> {
        ctx.delay(STATUS_POLL);
        let credit = self.at(ctx).with(|st, _| st.fifo_credit(dest));
        if credit < words.len() as i64 {
            self.world.metrics.incr_labeled(
                "api.fifo.backpressure_rejects",
                &[("node", (self.node as u64).into())],
                1,
            );
            return Err(Backpressure { credit });
        }
        Ok(self.send_fifo(ctx, dest, words, gc, mode))
    }

    // ------------------------------------------------------------------
    // Group counters
    // ------------------------------------------------------------------

    /// Preset one of this node's group counters (a PIO write).
    pub fn gc_set_local(&self, ctx: &SimCtx, gc: u8, expected: u64) {
        ctx.block_on(self.at(ctx).gc_set(gc, expected));
    }

    /// Set a *remote* group counter with a control packet — subject to the
    /// set/decrement race of Section III when data packets overtake it.
    pub fn gc_set_remote(&self, ctx: &SimCtx, dest: NodeId, gc: u8, expected: u64, mode: SendMode) {
        let pkt = Packet::new(PacketHeader::gc_set(self.node, dest, gc), expected);
        self.send_packets(ctx, &[pkt], mode);
    }

    /// Current value of a local group counter (free: the VIC pushes
    /// zero-counter lists to host memory during idle PCIe cycles, so
    /// polling does not pay a PCIe read).
    pub fn gc_value(&self, ctx: &SimCtx, gc: u8) -> i64 {
        self.with_vic(ctx, |vic| vic.counter(gc).value())
    }

    /// Block until a local group counter reaches zero, or until `deadline`
    /// (if given). Returns `true` on zero, `false` on timeout — the
    /// timeout path is how real programs survive the set/decrement race.
    pub fn gc_wait_zero(&self, ctx: &SimCtx, gc: u8, deadline: Option<Time>) -> bool {
        ctx.block_on(self.at(ctx).gc_wait(gc, deadline))
    }

    // ------------------------------------------------------------------
    // Queries (return-header packets)
    // ------------------------------------------------------------------

    /// Fire a query: read `dest`'s DV memory at `remote_addr` and deliver
    /// the value to `reply_to`'s DV memory at `reply_addr` (decrementing
    /// `reply_gc` there). Non-blocking.
    #[allow(clippy::too_many_arguments)] // mirrors the wire-level header fields
    pub fn query_to(
        &self,
        ctx: &SimCtx,
        dest: NodeId,
        remote_addr: u32,
        reply_to: NodeId,
        reply_addr: u32,
        reply_gc: u8,
        mode: SendMode,
    ) {
        let return_header = PacketHeader::dv_memory(dest, reply_to, reply_addr, reply_gc);
        let pkt = Packet::new(
            PacketHeader::query(self.node, dest, remote_addr),
            return_header.encode(),
        );
        self.send_packets(ctx, &[pkt], mode);
    }

    /// Blocking remote read: query `dest` and wait for the reply in our
    /// own DV memory (uses [`QUERY_GC`](crate::layout::QUERY_GC) and
    /// [`Layout::query_reply`]).
    pub fn read_word(&self, ctx: &SimCtx, dest: NodeId, remote_addr: u32) -> Word {
        self.read_word_deadline(ctx, dest, remote_addr, None)
            .expect("read_word without a deadline cannot time out")
    }

    /// [`DvCtx::read_word`] with a reply deadline: `None` on timeout —
    /// the query or its reply was lost (or is still in flight). Callers
    /// that retry must tolerate a *stale* reply from a timed-out attempt
    /// landing later: each call re-arms `QUERY_GC` to 1 and reuses the
    /// same reply slot, so a late reply can satisfy the next wait with the
    /// older value. Reads of monotonic counters (the recovery layer's
    /// accepted counts) are safe — a stale value is merely conservative —
    /// but arbitrary reads under retry need their own sequencing.
    pub fn read_word_deadline(
        &self,
        ctx: &SimCtx,
        dest: NodeId,
        remote_addr: u32,
        deadline: Option<Time>,
    ) -> Option<Word> {
        ctx.block_on(self.at(ctx).read_word(dest, remote_addr, deadline))
    }

    // ------------------------------------------------------------------
    // Local DV memory
    // ------------------------------------------------------------------

    /// Host write into this node's own DV memory (PIO for small runs, DMA
    /// beyond 64 words).
    pub fn write_local(&self, ctx: &SimCtx, address: u32, words: &[Word]) {
        ctx.block_on(self.at(ctx).write_local(address, words));
    }

    /// Host read from this node's own DV memory. PIO reads are non-posted
    /// PCIe round trips (~µs each), so anything beyond a couple of words
    /// goes through the 8×-faster DMA path, as the paper's API encourages.
    pub fn read_local(&self, ctx: &SimCtx, address: u32, n: usize) -> Vec<Word> {
        let mut out = Vec::with_capacity(n);
        self.lend_local(ctx, address, n, |run| out.extend_from_slice(run));
        out
    }

    /// [`DvCtx::read_local`] without the copy: one PCIe charge for all `n`
    /// words, then `f` sees them in place, in address order, in the
    /// page-contiguous runs of [`dv_vic::DvMemory::lend_range`]. `f` runs
    /// in the kernel with this node's VIC taken out, so it must not block
    /// on `ctx`.
    pub fn lend_local(&self, ctx: &SimCtx, address: u32, n: usize, f: impl FnMut(&[Word])) {
        ctx.block_on(self.at(ctx).lend(address, n, f));
    }

    /// Poll the host-side shadow of the VIC's *status page* (the first
    /// [`Layout::status_page_words`] words of DV memory). The VIC pushes this page
    /// to host memory during idle PCIe cycles via reverse bus-master DMA —
    /// the mechanism Section III describes for checking end-of-transmission
    /// state "without incurring the latency of an explicit PCIe read" —
    /// so a poll costs only a local memory fence, not a PCIe round trip.
    pub fn peek_local(&self, ctx: &SimCtx, address: u32, n: usize) -> Vec<Word> {
        let mut out = vec![0; n];
        ctx.block_on(self.at(ctx).peek(address, &mut out));
        out
    }

    // ------------------------------------------------------------------
    // Surprise FIFO
    // ------------------------------------------------------------------

    /// Non-blocking pop of one surprise packet.
    pub fn fifo_try_recv(&self, ctx: &SimCtx) -> Option<Word> {
        let popped = self.with_vic(ctx, |vic| vic.fifo.pop());
        popped.inspect(|_| ctx.delay(FIFO_POP))
    }

    /// Blocking pop of one surprise packet.
    pub fn fifo_recv(&self, ctx: &SimCtx) -> Word {
        self.fifo_recv_deadline(ctx, None).expect("a pop without a deadline only returns a word")
    }

    /// Blocking pop; with a deadline, `None` once it passes with the FIFO
    /// still empty (same contract as [`DvCtx::gc_wait_zero`]).
    pub fn fifo_recv_deadline(&self, ctx: &SimCtx, deadline: Option<Time>) -> Option<Word> {
        ctx.block_on(self.at(ctx).pop(deadline))
    }

    /// Drain up to `max` buffered surprise packets in one host transfer
    /// (the background-DMA circular buffer of Section III).
    pub fn fifo_drain(&self, ctx: &SimCtx, max: usize) -> Vec<Word> {
        let mut out = Vec::new();
        self.fifo_drain_into(ctx, max, &mut out);
        out
    }

    /// [`DvCtx::fifo_drain`] appending to `out`; returns the packets moved.
    pub fn fifo_drain_into(&self, ctx: &SimCtx, max: usize, out: &mut Vec<Word>) -> usize {
        ctx.block_on(self.at(ctx).drain_into(max, out))
    }

    /// Packets dropped by this node's FIFO due to overflow.
    pub fn fifo_dropped(&self, ctx: &SimCtx) -> u64 {
        self.with_vic(ctx, |vic| vic.fifo.dropped())
    }

    /// Run `f` on this node's VIC, which the simulation kernel owns: a
    /// look at hardware state that costs no virtual time.
    pub fn with_vic<R>(&self, ctx: &SimCtx, f: impl FnOnce(&mut Vic) -> R) -> R {
        self.at(ctx).vic(f)
    }

    // ------------------------------------------------------------------
    // Barriers
    // ------------------------------------------------------------------

    /// The API's intrinsic whole-system barrier: hardware group-counter
    /// wave through the switch, nearly independent of node count
    /// (Figure 4, "Data Vortex"). The setup charge and the release wait
    /// run in the kernel ([`At::barrier`](crate::At::barrier)): one thread
    /// handoff per call.
    pub fn barrier(&self, ctx: &SimCtx) {
        self.run(ctx, |at| async move { at.barrier().await });
    }

    /// The in-house "FastBarrier" of Section V: all-to-all group-counter
    /// decrements on two alternating regular counters. Slightly more work
    /// per node (p−1 packets over PCIe) but no dependence on the reserved
    /// hardware counters. The sends and the counter wait run in the
    /// kernel ([`At::fast_barrier`](crate::At::fast_barrier)): one thread
    /// handoff per call, none in a one-node cluster.
    pub fn fast_barrier(&self, ctx: &SimCtx) {
        if self.world.nodes() > 1 {
            self.run(ctx, |at| async move { at.fast_barrier().await });
        }
    }
}
