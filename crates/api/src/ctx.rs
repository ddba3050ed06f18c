//! The per-node Data Vortex API handle.

use std::cell::Cell;
use std::sync::Arc;

use dv_core::packet::{Packet, PacketHeader, PAYLOAD_BYTES};
use dv_core::time::{self, Time};
use dv_core::trace::State;
use dv_core::{NodeId, Word};
use dv_sim::SimCtx;

use crate::layout::{Layout, FAST_BARRIER_GC, QUERY_GC};
use crate::op::{self, At};
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

/// Stable counting sort of `items` into one exact-capacity batch per
/// destination: ascending destination, input order within one — so the
/// transmit sequence is deterministic by construction. `counts[d]` is
/// the number of items bound for `d`.
pub(crate) fn group_by_dest<T>(
    mut counts: Vec<usize>,
    items: impl Iterator<Item = T>,
    dest_of: impl Fn(&T) -> NodeId,
) -> Vec<(NodeId, Vec<T>)> {
    let mut batches = Vec::with_capacity(counts.iter().filter(|&&c| c > 0).count());
    for (dest, count) in counts.iter_mut().enumerate() {
        if *count > 0 {
            batches.push((dest, Vec::with_capacity(*count)));
            // From here on the entry is the destination's batch index.
            *count = batches.len() - 1;
        }
    }
    for item in items {
        batches[counts[dest_of(&item)]].1.push(item);
    }
    batches
}

/// One node's view of the Data Vortex system.
pub struct DvCtx {
    world: Arc<DvWorld>,
    node: NodeId,
    fast_barrier_parity: Cell<usize>,
}

impl DvCtx {
    /// Create the handle for `node`.
    pub fn new(world: Arc<DvWorld>, node: NodeId) -> Self {
        Self { world, node, fast_barrier_parity: Cell::new(0) }
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
        if packets.is_empty() {
            return ctx.now();
        }
        let sending = self.world.start_send(ctx.now(), self.node, packets, mode);
        ctx.wait_until(sending.until);
        ctx.with_kernel(|k| self.world.finish_send(k, self.node, sending))
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
        let total_words: u64 = blocks.iter().map(|b| b.words.len() as u64).sum();
        if total_words == 0 {
            return ctx.now();
        }
        let t0 = ctx.now();
        let (until, vic_ready) = self.world.charge_pcie(t0, self.node, total_words, mode);
        ctx.wait_until(until);
        let mut counts = vec![0; self.nodes()];
        for b in &blocks {
            counts[b.dest] += 1;
        }
        let groups = group_by_dest(counts, blocks.into_iter(), |b| b.dest);
        let mut last = vic_ready;
        ctx.with_kernel(|k| {
            for (dst, batch) in groups {
                last = last.max(self.world.transmit_blocks(k, self.node, dst, batch, vic_ready));
            }
        });
        self.world.tracer.span(self.node, State::Send, t0, ctx.now());
        last
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
        let credit = self.world.fifo_credit(dest);
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
        ctx.delay(self.world.config.pcie.pio_write_latency);
        let vic = Arc::clone(&self.world.vics[self.node]);
        ctx.with_kernel(|k| vic.lock().set_counter(k, gc, expected));
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
    pub fn gc_value(&self, gc: u8) -> i64 {
        self.world.vics[self.node].lock().counter(gc).value()
    }

    /// Block until a local group counter reaches zero, or until `deadline`
    /// (if given). Returns `true` on zero, `false` on timeout — the
    /// timeout path is how real programs survive the set/decrement race.
    pub fn gc_wait_zero(&self, ctx: &SimCtx, gc: u8, deadline: Option<Time>) -> bool {
        let t0 = ctx.now();
        let (world, node) = (&self.world, self.node);
        let ok = ctx
            .wait_for(deadline, || world.gc_zero(node, gc), |w| world.gc_register(node, gc, w))
            .is_some();
        world.gc_waited(node, t0, ctx.now(), ok);
        ok
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
    /// own DV memory (uses [`QUERY_GC`] and [`Layout::query_reply`]).
    pub fn read_word(&self, ctx: &SimCtx, dest: NodeId, remote_addr: u32) -> Word {
        self.read_word_deadline(ctx, dest, remote_addr, None)
            .expect("read_word without a deadline cannot time out")
    }

    /// [`DvCtx::read_word`] with a reply deadline: `None` on timeout —
    /// the query or its reply was lost (or is still in flight). Callers
    /// that retry must tolerate a *stale* reply from a timed-out attempt
    /// landing later: each call re-arms [`QUERY_GC`] to 1 and reuses the
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
        let reply_addr = self.layout().query_reply;
        self.gc_set_local(ctx, QUERY_GC, 1);
        self.query_to(
            ctx,
            dest,
            remote_addr,
            self.node,
            reply_addr,
            QUERY_GC,
            SendMode::DirectWrite { cached_headers: false },
        );
        if !self.gc_wait_zero(ctx, QUERY_GC, deadline) {
            return None;
        }
        // Fetch the landed value across PCIe.
        let (_, end) = self.world.pcie[self.node].pio_read(ctx.now(), 1);
        ctx.wait_until(end);
        Some(self.world.vics[self.node].lock().memory.read(reply_addr))
    }

    // ------------------------------------------------------------------
    // Local DV memory
    // ------------------------------------------------------------------

    /// Host write into this node's own DV memory (PIO for small runs, DMA
    /// beyond 64 words).
    pub fn write_local(&self, ctx: &SimCtx, address: u32, words: &[Word]) {
        let n = words.len() as u64;
        let pcie = &self.world.pcie[self.node];
        let end = if n <= 64 {
            pcie.pio_send(ctx.now(), n, true).1
        } else {
            pcie.dma_to_vic(ctx.now(), n * PAYLOAD_BYTES).1
        };
        ctx.wait_until(end);
        self.world.vics[self.node].lock().memory.write_range(address, words);
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
    /// with this node's VIC held, so it must not block on `ctx`.
    pub fn lend_local(&self, ctx: &SimCtx, address: u32, n: usize, f: impl FnMut(&[Word])) {
        ctx.wait_until(self.world.read_end(ctx.now(), self.node, n));
        self.world.vics[self.node].lock().memory.lend_range(address, n, f);
    }

    /// Poll the host-side shadow of the VIC's *status page* (the first
    /// [`Layout::status_page_words`] words of DV memory). The VIC pushes this page
    /// to host memory during idle PCIe cycles via reverse bus-master DMA —
    /// the mechanism Section III describes for checking end-of-transmission
    /// state "without incurring the latency of an explicit PCIe read" —
    /// so a poll costs only a local memory fence, not a PCIe round trip.
    pub fn peek_local(&self, ctx: &SimCtx, address: u32, n: usize) -> Vec<Word> {
        ctx.delay(STATUS_POLL);
        self.world.status_words(self.node, address, n)
    }

    // ------------------------------------------------------------------
    // Surprise FIFO
    // ------------------------------------------------------------------

    /// Non-blocking pop of one surprise packet.
    pub fn fifo_try_recv(&self, ctx: &SimCtx) -> Option<Word> {
        let popped = self.world.vics[self.node].lock().fifo.pop();
        popped.map(|(_, w)| {
            ctx.delay(FIFO_POP);
            w
        })
    }

    /// Blocking pop of one surprise packet.
    pub fn fifo_recv(&self, ctx: &SimCtx) -> Word {
        self.fifo_recv_deadline(ctx, None).expect("a pop without a deadline only returns a word")
    }

    /// Blocking pop; with a deadline, `None` once it passes with the FIFO
    /// still empty (same contract as [`DvCtx::gc_wait_zero`]).
    pub fn fifo_recv_deadline(&self, ctx: &SimCtx, deadline: Option<Time>) -> Option<Word> {
        let (world, node) = (&self.world, self.node);
        let (_, w) = ctx.wait_for(deadline, || world.fifo_pop(node), |w| world.fifo_register(node, w))?;
        ctx.delay(FIFO_POP);
        Some(w)
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
        let start = out.len();
        if let Some(end) = self.world.drain_start(ctx.now(), self.node, max, out) {
            ctx.wait_until(end);
        }
        out.len() - start
    }

    /// Packets dropped by this node's FIFO due to overflow.
    pub fn fifo_dropped(&self) -> u64 {
        self.world.vics[self.node].lock().fifo.dropped()
    }

    // ------------------------------------------------------------------
    // Barriers
    // ------------------------------------------------------------------

    /// The API's intrinsic whole-system barrier: hardware group-counter
    /// wave through the switch, nearly independent of node count
    /// (Figure 4, "Data Vortex"). The setup charge and the release wait
    /// run as one kernel step: one thread handoff per call.
    pub fn barrier(&self, ctx: &SimCtx) {
        op::run(op::Barrier::new(self.at()), ctx);
    }

    /// The in-house "FastBarrier" of Section V: all-to-all group-counter
    /// decrements on two alternating regular counters. Slightly more work
    /// per node (p−1 packets over PCIe) but no dependence on the reserved
    /// hardware counters. The sends and the counter wait run as one kernel
    /// step: one thread handoff per call.
    pub fn fast_barrier(&self, ctx: &SimCtx) {
        let n = self.world.nodes();
        if n == 1 {
            return;
        }
        let parity = self.fast_barrier_parity.get();
        self.fast_barrier_parity.set(parity ^ 1);
        let gc = FAST_BARRIER_GC[parity];
        // Signal everyone (including the local counter via self-send —
        // the API explicitly supports sending to your own VIC).
        let packets: Vec<Packet> = (0..n)
            .filter(|&d| d != self.node)
            .map(|d| Packet::new(PacketHeader::dv_memory(self.node, d, self.layout().fast_barrier_sink, gc), 0))
            .collect();
        op::run(op::FastBarrier::new(self.at(), gc, packets), ctx);
    }

    /// This node, for a call run as a kernel step.
    pub(crate) fn at(&self) -> At {
        At { world: Arc::clone(&self.world), node: self.node }
    }
}
