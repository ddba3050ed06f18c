//! Source-side aggregation.
//!
//! The paper's central software technique (Sections V–VI): a node does not
//! need to aggregate messages *by destination* (hard for irregular codes);
//! it only needs *enough outgoing packets from itself* — to any mix of
//! destinations — to amortize the PCIe crossing into one DMA batch. The
//! switch happily routes the fine-grained packets wherever they go.
//!
//! `Aggregator` buffers packets and flushes them as one [`SendMode::Dma`]
//! batch when the buffer fills (or on demand). GUPS and BFS on the Data
//! Vortex are built directly on this: [`Aggregator::queue`] buffers a
//! packet synchronously and says when the buffer is full, and only then
//! does a body run in the kernel await [`At::flush`](crate::At::flush).

use dv_core::packet::Packet;
use dv_core::time::Time;
use dv_sim::SimCtx;

use crate::ctx::{DvCtx, SendMode};

/// A source-side packet aggregation buffer.
pub struct Aggregator {
    buf: Vec<Packet>,
    threshold: usize,
    mode: SendMode,
    flushes: u64,
    packets: u64,
}

impl Aggregator {
    /// Aggregator flushing every `threshold` packets via DMA with cached
    /// headers (the configuration the paper's GUPS uses).
    pub fn new(threshold: usize) -> Self {
        Self::with_mode(threshold, SendMode::Dma { cached_headers: true })
    }

    /// Aggregator with an explicit send mode (for the ablation bench).
    pub fn with_mode(threshold: usize, mode: SendMode) -> Self {
        assert!(threshold > 0);
        Self { buf: Vec::with_capacity(threshold), threshold, mode, flushes: 0, packets: 0 }
    }

    /// Buffer a packet; `true` once the buffer is full, when the caller
    /// flushes it ([`At::flush`](crate::At::flush)).
    pub fn queue(&mut self, pkt: Packet) -> bool {
        self.buf.push(pkt);
        self.buf.len() >= self.threshold
    }

    /// Queue a packet; flushes automatically when the buffer fills.
    /// Returns the delivery estimate when a flush happened.
    pub fn push(&mut self, ctx: &SimCtx, dv: &DvCtx, pkt: Packet) -> Option<Time> {
        self.queue(pkt).then(|| self.flush(ctx, dv))
    }

    /// Flush everything buffered; returns the delivery estimate of the
    /// last packet (or now, when empty). The body is
    /// [`At::flush`](crate::At::flush).
    pub fn flush(&mut self, ctx: &SimCtx, dv: &DvCtx) -> Time {
        ctx.block_on(dv.at(ctx).flush(self))
    }

    /// What a flush sends, for the caller that sends it: the buffered
    /// packets (counted as a flush when there are any) and the send mode.
    /// [`Aggregator::restore`] gives the buffer back, emptied.
    pub(crate) fn take_batch(&mut self) -> (Vec<Packet>, SendMode) {
        if !self.buf.is_empty() {
            self.flushes += 1;
            self.packets += self.buf.len() as u64;
        }
        (std::mem::take(&mut self.buf), self.mode)
    }

    /// Take back the buffer of [`Aggregator::take_batch`], once sent.
    pub(crate) fn restore(&mut self, buf: Vec<Packet>) {
        debug_assert!(buf.is_empty() && self.buf.is_empty(), "restore an unsent buffer");
        self.buf = buf;
    }

    /// Packets currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// (flushes, packets) shipped so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.flushes, self.packets)
    }
}
