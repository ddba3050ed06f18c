//! End-to-end recovery for surprise-FIFO traffic.
//!
//! The surprise FIFO is lossy: finite SRAM overflows (and a fault plan
//! injects drops on demand), and a dropped packet is *invisible* — no
//! group-counter decrement, no waiter wake (see `Vic::deliver`). Programs
//! that assume delivery therefore hang or silently lose data under load.
//! [`ReliableFifo`] turns the lossy FIFO into an exactly-once word stream
//! with the acknowledgment substrate the hardware already provides:
//!
//! * The destination VIC maintains, in hardware, a per-source count of
//!   packets *accepted* into its FIFO, in the status page at
//!   [`Layout::accepted`](crate::Layout::accepted) `+ src`.
//! * A sender logs every word of the current epoch with its destination
//!   and, at verification time, reads its accepted count back with a query
//!   packet (timeout + bounded retries — queries and replies can be lost
//!   too). Per-link ejection is serialized, so the reply reflects every
//!   data packet the sender put on that link first: no quiescence wait.
//! * The sender's words are unique across the run, so `accepted == sent`
//!   if and only if nothing was dropped. The *caller* owns that rule, and
//!   the epoch log is a plain `Vec` that checks nothing: GUPS draws each
//!   node's words from its own window of the LFSR stream, and BFS skips
//!   the repeats of its own multi-edges before sending. (A word sent twice
//!   anyway surfaces at epoch completion as a stall that panics, see
//!   [`ReliableFifo::complete_epoch`].) On a shortfall the sender
//!   retransmits that destination's part of the log in windows, each
//!   window confirmed by an exact accepted-count delta (stop-and-wait),
//!   until every word is in — bounded by a retry budget that panics with
//!   diagnostics instead of looping forever.
//! * Retransmission can duplicate words the FIFO had in fact accepted,
//!   and so can a link-duplication fault plan; the receiver keeps every
//!   word of the run, so applications observe each logical word exactly
//!   once. While no word can arrive twice that record is a plain log and
//!   admission does no hashing. A set-once flag of the cluster's
//!   kernel-owned state, raised at construction under a `dup`
//!   plan or by the first retransmission anywhere, switches it over:
//!   the next word admitted indexes the whole log, and every later one is
//!   checked against it.
//!
//! Credit ([`DvCtx::fifo_try_send`]) is the *avoidance* half — back off
//! before a likely overflow; this layer is the *correctness* half — no
//! loss survives verification. Kernels use pacing/credit for throughput
//! and verification for the guarantee.
//!
//! [`ReliableFifo::complete_epoch`] closes an epoch the way Section III's
//! kernels close a phase: verify, post every peer the count of words it
//! is owed into its DV memory, then drain until every peer has posted and
//! every promised word has arrived. The owed counts come from the epoch
//! log, the received count is the layer's own, so the kernels keep no
//! tally of either. [`ReliableFifo::await_posts`] is the wait that closes
//! a phase on posted values alone (BFS's frontier sizes).
//!
//! The calls that park more than once — the drain, the verification
//! (acknowledgment round and retransmission), the epoch close and the
//! post wait — run in the kernel as `async fn`s of [`At`](crate::At)
//! ([`At::drain`](crate::At::drain), [`EpochClose`],
//! [`At::await_posts`](crate::At::await_posts)), one body each. This
//! module keeps the endpoint's data, the synchronous per-word call
//! ([`ReliableFifo::queue`]), and the thin blocking calls that hand the
//! endpoint to those bodies. A node program run in the kernel as a whole
//! ([`DvCtx::run`]) awaits the bodies directly.

use dv_core::packet::{Packet, PacketHeader, SCRATCH_GC};
use dv_core::time::{self, Time};
use dv_core::{NodeId, Word};
use dv_sim::SimCtx;

use crate::aggregate::Aggregator;
use crate::ctx::DvCtx;
use crate::op::EpochClose;
use crate::world::DvWorld;

/// Words per host transfer of a drain.
pub(crate) const DRAIN_CHUNK: usize = 4096;
/// Words per retransmission window (confirmed stop-and-wait).
pub(crate) const WINDOW: usize = 64;
/// Deadline for one accepted-count query round trip. It must comfortably
/// exceed the worst-case ejection backlog ahead of a reply (virtual-time
/// waits are free): a too-short timeout makes retried queries consume
/// *stale* replies of earlier attempts, which is merely conservative for
/// the monotonic counts but burns retransmission budget.
pub(crate) const QUERY_TIMEOUT: Time = time::ms(10);
/// Query attempts before declaring the acknowledgment path dead.
pub(crate) const QUERY_TRIES: u32 = 8;
/// Retransmission attempt budget multiplier: a verification tolerates
/// `MAX_ROUNDS ×` the initial window count of (re)attempts per
/// destination before declaring the data path dead.
pub(crate) const MAX_ROUNDS: u32 = 12;

/// Per-node counters of the recovery layer (folded into metrics by
/// [`ReliableFifo::publish`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReliableStats {
    /// Unique words accepted into the current/past epochs by this sender.
    pub sent: u64,
    /// Inbound duplicates discarded (retransmission overshoot).
    pub dup_discarded: u64,
    /// Retransmission windows shipped (attempts, including re-attempts).
    pub retx_windows: u64,
    /// Words retransmitted (sum of window attempt sizes).
    pub retx_words: u64,
    /// Verifications that found a shortfall and entered retransmission.
    pub retx_rounds: u64,
    /// Accepted-count queries issued.
    pub ack_queries: u64,
    /// Accepted-count queries that timed out (query or reply lost/late).
    pub ack_query_timeouts: u64,
}

/// An insertion-ordered set of words, indexed only on demand: a
/// `Vec<Word>` arena in insertion order plus an open-addressing index of
/// 4-byte arena positions. Until the first [`WordSet::insert`] the arena
/// is a plain log ([`WordSet::log`], no hashing, 8 B/word); that insert
/// indexes every word logged so far, and from then on each new word costs
/// one probe and one push, at ≤ 16.5 B/word. It is only ever iterated
/// through the arena, never in hash order, so nothing observable depends
/// on the hash.
#[derive(Debug, Default)]
struct WordSet {
    /// The members, in insertion order.
    words: Vec<Word>,
    /// Power-of-two table of `arena position + 1` (0 = empty slot), linear
    /// probing, kept at most half full; empty until the first insert.
    index: Vec<u32>,
}

impl WordSet {
    /// Home slot of `word` in a table of `slots` (a power of two ≥ 2):
    /// the top bits of a Fibonacci multiplicative hash.
    fn home(word: Word, slots: usize) -> usize {
        (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - slots.trailing_zeros())) as usize
    }

    /// Append `words` without checking membership: only before the first
    /// [`WordSet::insert`], and only when none of them can be a member.
    fn log(&mut self, words: &[Word]) {
        debug_assert!(self.index.is_empty(), "log after the index was built");
        self.words.extend_from_slice(words);
    }

    /// Add `word`; `false` if it was already a member. The first call
    /// indexes every word logged before it.
    fn insert(&mut self, word: Word) -> bool {
        if (self.words.len() + 1) * 2 > self.index.len() {
            self.grow();
        }
        let mask = self.index.len() - 1;
        let mut slot = Self::home(word, self.index.len());
        while self.index[slot] != 0 {
            if self.words[self.index[slot] as usize - 1] == word {
                return false;
            }
            slot = (slot + 1) & mask;
        }
        self.words.push(word);
        self.index[slot] = u32::try_from(self.words.len()).expect("word set exceeds 2^32 members");
        true
    }

    /// Size the index for one more member (doubling it, or building it
    /// over the logged arena) and re-enter every member.
    fn grow(&mut self) {
        let slots = ((self.words.len() + 1) * 2).next_power_of_two().max(16);
        self.index = vec![0; slots];
        for (i, &w) in self.words.iter().enumerate() {
            let mut slot = Self::home(w, slots);
            while self.index[slot] != 0 {
                slot = (slot + 1) & (slots - 1);
            }
            self.index[slot] = i as u32 + 1;
        }
    }
}

/// Exactly-once word delivery over the lossy surprise FIFO.
///
/// Its calls that park more than once run in the kernel
/// ([`At`](crate::At)), which take the endpoint along and give it back.
#[derive(Default)]
pub struct ReliableFifo {
    pub(crate) me: NodeId,
    pub(crate) nodes: usize,
    /// The current epoch's words in send order: the retransmission log
    /// (cleared when the epoch verifies).
    pub(crate) epoch_log: Vec<Word>,
    /// Destination of each word of `epoch_log`, in step with it.
    pub(crate) epoch_dest: Vec<u16>,
    /// Words put on the wire toward each destination this epoch.
    pub(crate) wire_epoch: Vec<u64>,
    /// Last accepted count observed (and reconciled) per destination.
    pub(crate) hw_confirmed: Vec<u64>,
    /// Every word received this run: a log while no word can arrive twice,
    /// inbound dedup once one can (duplicates come from link faults and
    /// from our peers' retransmissions, which can span epoch boundaries).
    seen_in: WordSet,
    /// New words handed out this epoch by the drain and receive calls.
    pub(crate) received: u64,
    pub(crate) stats: ReliableStats,
    pub(crate) scratch: Scratch,
}

/// An endpoint's scratch for an epoch close ([`EpochClose`]) and a post
/// wait, sized to the cluster on the node's thread
/// ([`ReliableFifo::new`]): a close run in the kernel allocates none of it
/// (the allocation rule at [`ReliableFifo::reserve`]).
#[derive(Default)]
pub(crate) struct Scratch {
    /// What each peer is owed this epoch.
    pub(crate) owed: Vec<u64>,
    /// The peers' posts, as last polled.
    pub(crate) posted: Vec<Word>,
    /// The count posts a close sends.
    pub(crate) posts: Vec<Packet>,
}

impl ReliableFifo {
    /// Recovery endpoint for this node.
    pub fn new(dv: &DvCtx) -> Self {
        let nodes = dv.nodes();
        Self {
            me: dv.node(),
            nodes,
            epoch_log: Vec::new(),
            epoch_dest: Vec::new(),
            wire_epoch: vec![0; nodes],
            hw_confirmed: vec![0; nodes],
            seen_in: WordSet::default(),
            received: 0,
            stats: ReliableStats::default(),
            scratch: Scratch { owed: vec![0; nodes], posted: vec![0; nodes], posts: Vec::with_capacity(nodes) },
        }
    }

    /// Layer counters so far.
    pub fn stats(&self) -> ReliableStats {
        self.stats
    }

    /// Reserve room for `sends` more words in this epoch's send log and
    /// `receives` more in the record of received words.
    ///
    /// This is the allocation rule of everything run in the kernel
    /// ([`DvCtx::run`]): a kernel-run call allocates from the malloc arena
    /// of whichever thread dispatches it, and growth scattered over every
    /// node's arena shows on the peak RSS. So what a call will grow is
    /// reserved on the node's thread, before the call.
    pub fn reserve(&mut self, sends: usize, receives: usize) {
        self.epoch_log.reserve(sends);
        self.epoch_dest.reserve(sends);
        self.seen_in.words.reserve(receives);
    }

    /// Log one word for `dest`'s FIFO for recovery and buffer its packet
    /// in `agg`; `true` once `agg` is full, when the caller flushes it
    /// ([`At::flush`](crate::At::flush)). The caller guarantees `word` is
    /// unique across the run: nothing here checks it (a repeat surfaces as
    /// a stall that panics in [`ReliableFifo::complete_epoch`]), so
    /// app-level duplicates such as parallel edges must be skipped before
    /// this call.
    pub fn queue(&mut self, agg: &mut Aggregator, dest: NodeId, word: Word) -> bool {
        self.epoch_log.push(word);
        self.epoch_dest.push(u16::try_from(dest).expect("node ids fit 16 bits: DvWorld caps a cluster at 4096 nodes"));
        self.wire_epoch[dest] += 1;
        self.stats.sent += 1;
        agg.queue(Packet::new(PacketHeader::fifo(self.me, dest, SCRATCH_GC), word))
    }

    /// [`ReliableFifo::queue`], flushing `agg` when it fills.
    pub fn send(&mut self, ctx: &SimCtx, dv: &DvCtx, agg: &mut Aggregator, dest: NodeId, word: Word) {
        if self.queue(agg, dest, word) {
            agg.flush(ctx, dv);
        }
    }

    /// Record an inbound word; `false` if it is a duplicate. Hashes
    /// nothing until a word may arrive twice (`repeats`).
    pub(crate) fn admit(&mut self, repeats: bool, word: Word) -> bool {
        if repeats {
            self.seen_in.insert(word)
        } else {
            self.seen_in.log(&[word]);
            true
        }
    }

    /// Admit the words a host transfer landed at `out[start..]`:
    /// deduplicated in place, or only logged while no word can arrive
    /// twice.
    pub(crate) fn admit_drained(&mut self, repeats: bool, out: &mut Vec<Word>, start: usize) {
        if !repeats {
            self.seen_in.log(&out[start..]);
            self.received += (out.len() - start) as u64;
            return;
        }
        let mut kept = start;
        for i in start..out.len() {
            let w = out[i];
            if self.seen_in.insert(w) {
                out[kept] = w;
                kept += 1;
            }
        }
        self.stats.dup_discarded += (out.len() - kept) as u64;
        self.received += (kept - start) as u64;
        out.truncate(kept);
    }

    /// Drain every currently buffered surprise word, duplicates removed.
    pub fn drain_unique(&mut self, ctx: &SimCtx, dv: &DvCtx) -> Vec<Word> {
        let mut out = Vec::new();
        self.drain_into(ctx, dv, &mut out);
        out
    }

    /// [`ReliableFifo::drain_unique`], appending to `out`:
    /// [`At::drain`](crate::At::drain). An empty FIFO costs nothing; a
    /// draining one is one call run in the kernel.
    fn drain_into(&mut self, ctx: &SimCtx, dv: &DvCtx, out: &mut Vec<Word>) {
        let me = self.me;
        let (queued, repeats) = dv.at(ctx).with(|st, _| (st.vics[me].fifo.len(), st.fifo_repeats));
        if queued == 0 {
            return;
        }
        // The first transfer's buffers, reserved on the node's thread (the
        // rule at `ReliableFifo::reserve`).
        let first = queued.min(DRAIN_CHUNK);
        out.reserve(first);
        if !repeats {
            self.seen_in.words.reserve(first);
        }
        let (mut rel, mut buf) = (std::mem::take(self), std::mem::take(out));
        (*self, *out) = dv.run(ctx, move |at| async move {
            at.drain(&mut rel, &mut buf).await;
            (rel, buf)
        });
    }

    /// Verify this epoch's sends to every destination, retransmitting
    /// losses until each destination's VIC has accepted every logical
    /// word. Words arriving on our own FIFO meanwhile (peers verify
    /// concurrently) are drained into `sink` (deduplicated) to keep our
    /// FIFO from backing up. Callers flush their aggregator first.
    ///
    /// The common (loss-free) case costs one *parallel* acknowledgment
    /// round: every destination is queried at once on
    /// [`VERIFY_GC`](crate::layout::VERIFY_GC), with
    /// replies landing in [`Layout::verify_replies`](crate::Layout::verify_replies),
    /// so verification latency is one round trip regardless of cluster
    /// size. Only destinations whose count comes back short (or unknown,
    /// after a timeout) pay the serial retransmission path.
    ///
    /// # Panics
    /// Panics when the retry budget is exhausted — the acknowledgment or
    /// data path is persistently dead, which the fault plans used for
    /// chaos runs never produce.
    pub fn verify_epoch(&mut self, ctx: &SimCtx, dv: &DvCtx, sink: &mut Vec<Word>) {
        let (mut rel, mut buf) = (std::mem::take(self), std::mem::take(sink));
        (*self, *sink) = dv.run(ctx, move |at| async move {
            at.verify(&mut rel, &mut buf).await;
            (rel, buf)
        });
    }

    /// Complete the current epoch with the sent-count handshake and return
    /// the new words this node received in it (the count then restarts at
    /// zero). Every received word goes to `deliver`, in arrival order, in
    /// non-empty runs — `deliver` is never called with an empty slice:
    ///
    /// 1. flush `agg`, [`ReliableFifo::verify_epoch`] (only verified sends
    ///    back a promise), deliver what verification drained;
    /// 2. post every peer the words this epoch owed it, as count + 1 (zero
    ///    means "not posted"), at its [`Layout::epoch_counts`](crate::Layout::epoch_counts)
    ///    `+ me`, in one direct-write batch;
    /// 3. drain and deliver until every peer has posted and the words
    ///    received this epoch add up to their counts, waiting up to 2 µs
    ///    for the next word between checks.
    ///
    /// Peers post only after their own verification, so every promised
    /// word is already accepted or in flight: loss shows up as
    /// retransmission in step 1, never as a hang in step 3. A caller that
    /// runs another epoch zeroes its own epoch counts and fences first.
    ///
    /// The close is [`EpochClose`], run in the kernel, retransmission
    /// included: the node's thread runs again only to `deliver` — which
    /// may charge virtual time, as GUPS's updates do — and to return, not
    /// at each poll of step 3 or each retransmitted window. A body run in
    /// the kernel drives the same loop itself
    /// ([`ReliableFifo::close_epoch`]).
    ///
    /// # Panics
    /// Panics when every peer has posted but the count stays short of the
    /// promise for a whole query timeout of virtual time: some word was
    /// sent twice in the run, and the receiver's dedup swallowed the
    /// repeat that its sender counted. Panics, naming the peers that never
    /// posted, when some have not and neither a post nor a new word has
    /// arrived for a hundred query timeouts: such a peer is stuck, not
    /// slow (a duplicated barrier decrement or count post can do that).
    pub fn complete_epoch(
        &mut self,
        ctx: &SimCtx,
        dv: &DvCtx,
        agg: &mut Aggregator,
        mut deliver: impl FnMut(&[Word]),
    ) -> u64 {
        let mut close = self.close_epoch(agg);
        loop {
            let (words, more);
            (close, words, more) = dv.run(ctx, move |at| async move {
                // Freed after each run, not kept: a parked node holds no
                // drain buffer.
                let mut words = Vec::new();
                let more = close.next(&at, &mut words).await;
                (close, words, more)
            });
            if !more {
                return close.finish(self, agg);
            }
            deliver(&words);
        }
    }

    /// Open the close of the current epoch for a caller that drives it
    /// ([`EpochClose::next`] until `false`, then [`EpochClose::finish`]),
    /// as [`ReliableFifo::complete_epoch`] does: the endpoint and `agg`'s
    /// buffered packets move into the close until it finishes.
    pub fn close_epoch(&mut self, agg: &mut Aggregator) -> EpochClose {
        let (flush, mode) = agg.take_batch();
        EpochClose::new(std::mem::take(self), flush, mode)
    }

    /// Wait until every peer has posted into the status-page block at
    /// `address` — a non-zero word at `address + peer` — and return the
    /// block. Surprise words that arrive meanwhile can only be
    /// retransmission duplicates of an epoch already complete, and are
    /// discarded: the wait that ends a BFS level on the peers' frontier
    /// sizes, after [`ReliableFifo::complete_epoch`] drained every new word.
    /// The body is [`At::await_posts`](crate::At::await_posts).
    ///
    /// # Panics
    /// Panics, naming the peers that never posted, when no new post has
    /// arrived for a hundred query timeouts of virtual time.
    pub fn await_posts(&mut self, ctx: &SimCtx, dv: &DvCtx, address: u32) -> Vec<Word> {
        let mut rel = std::mem::take(self);
        *self = dv.run(ctx, move |at| async move {
            at.await_posts(&mut rel, address).await;
            rel
        });
        self.scratch.posted.clone()
    }

    /// Close the current epoch: the retransmission log resets; the inbound
    /// record persists for the whole run.
    ///
    /// # Panics
    /// Panics if some destination is still unverified: clearing the log
    /// would lose its words.
    pub(crate) fn end_epoch(&mut self) {
        assert!(self.wire_epoch.iter().all(|&w| w == 0), "end_epoch before verify_epoch");
        self.epoch_log.clear();
        self.epoch_dest.clear();
    }

    /// Fold this endpoint's counters into the world metrics registry as
    /// `api.fifo.*`, labeled with the node id.
    pub fn publish(&self, world: &DvWorld) {
        let m = &world.metrics;
        if !m.is_enabled() {
            return;
        }
        let node = [("node", (self.me as u64).into())];
        m.incr_labeled("api.fifo.reliable_sent", &node, self.stats.sent);
        m.incr_labeled("api.fifo.dup_discarded", &node, self.stats.dup_discarded);
        m.incr_labeled("api.fifo.retx_windows", &node, self.stats.retx_windows);
        m.incr_labeled("api.fifo.retx_words", &node, self.stats.retx_words);
        m.incr_labeled("api.fifo.retx_rounds", &node, self.stats.retx_rounds);
        m.incr_labeled("api.fifo.ack_queries", &node, self.stats.ack_queries);
        m.incr_labeled("api.fifo.ack_query_timeouts", &node, self.stats.ack_query_timeouts);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use dv_core::rng::SplitMix64;

    use super::*;

    #[test]
    fn word_set_matches_an_ordered_set_oracle() {
        let mut r = SplitMix64::new(0xD0D0);
        let mut resizes = 0;
        for epoch in 0..4 {
            let mut set = WordSet::default();
            let mut oracle = BTreeSet::new();
            let mut order = Vec::new();
            // Draws from a small range so duplicates are common, word 0
            // included; the first epoch grows the index 16 -> 4096 slots.
            let range = if epoch == 0 { 1500 } else { 40 << epoch };
            for _ in 0..3 * range {
                let w = r.next_below(range).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let slots = set.index.len();
                let fresh = oracle.insert(w);
                assert_eq!(set.insert(w), fresh, "epoch {epoch}: word {w:#x}");
                if fresh {
                    order.push(w);
                }
                resizes += usize::from(set.index.len() != slots);
                assert!(set.words.len() * 2 <= set.index.len(), "index over half full");
            }
            assert!(oracle.contains(&0), "word 0 must be exercised");
            assert_eq!(set.words, order, "epoch {epoch}: insertion order");
        }
        assert!(resizes >= 3, "only {resizes} index resizes exercised");
    }

    #[test]
    fn the_first_insert_indexes_every_logged_word() {
        for logged in [0u64, 1, 7, 8, 1000] {
            let mut set = WordSet::default();
            let words: Vec<Word> =
                (0..logged).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
            set.log(&words);
            assert!(set.index.is_empty(), "logging must not hash");
            for &w in &words {
                assert!(!set.insert(w), "logged {logged}: word {w:#x} forgotten");
            }
            assert!(set.insert(u64::MAX) && !set.insert(u64::MAX));
            assert!(set.words.len() * 2 <= set.index.len(), "index over half full");
            assert_eq!(set.words[..words.len()], words[..], "arena order kept");
        }
    }
}
