//! DV's blocking calls that park more than once, run in the kernel.
//!
//! A call here — [`DvCtx::barrier`](crate::DvCtx::barrier),
//! [`DvCtx::fast_barrier`](crate::DvCtx::fast_barrier), and the recovery
//! layer's drain, acknowledgment round, epoch close, and post wait — is an
//! `async fn` of [`At`], run by [`SimCtx::wait_in_kernel`]: the node's
//! thread parks once, each later resume of the node polls the call on in
//! kernel context, and the thread runs again only when the call returns or
//! has words to hand the application (the epoch close's `deliver` runs on
//! the thread, because a kernel's `deliver` charges virtual time). Each
//! closing phase of BFS or GUPS is then one handoff per delivery instead of
//! one per poll. A call's state travels in and out by value
//! ([`ReliableFifo`], batches): the future is `'static`, so it borrows
//! nothing from the parked thread.
//!
//! Between two resumes a call does exactly what the node's thread did
//! between the same two parks, side effect for side effect: the same
//! events in the same order, the same PCIe and port reservations, VIC
//! reads, tracer spans and `api.*` metrics, and the same panics. Each
//! blocked state is one dv-sim wait, re-run on every poll: a charged delay
//! or transfer is a [`Proc::until`], a condition wait a [`Proc::turn`] —
//! the turn [`SimCtx::wait_for`] loops over on the thread.
//! `tests/dv_wait_traces.rs` pins the traces the thread-run calls
//! produced.
//!
//! Waits that park once (`gc_wait_zero`, `fifo_recv_deadline`, `delay`,
//! `wait_until`, a single send) stay on the thread: running them in the
//! kernel would save nothing. They share with the calls the `DvWorld`
//! helpers below, which do what a call does at one instant.

use std::future::Future;
use std::sync::Arc;

use dv_core::packet::{Packet, PacketHeader, PAYLOAD_BYTES, SCRATCH_GC};
use dv_core::time::{self, Time};
use dv_core::trace::State;
use dv_core::{NodeId, Word};
use dv_sim::{Kernel, Proc, SimCtx, Waker};

use crate::ctx::{group_by_dest, DvCtx, SendMode, DMA_ENQUEUE, FIFO_POP, STATUS_POLL};
use crate::layout::VERIFY_GC;
use crate::reliable::{ReliableFifo, DRAIN_CHUNK, QUERY_TIMEOUT};
use crate::world::DvWorld;

/// The node a call runs for, and its process.
pub(crate) struct At {
    world: Arc<DvWorld>,
    node: NodeId,
    p: Proc,
}

impl DvCtx {
    /// Run `call` for this node in the kernel, the thread parked until it
    /// returns.
    pub(crate) fn run<T, F>(&self, ctx: &SimCtx, call: impl FnOnce(At) -> F) -> T
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        ctx.wait_in_kernel(call(At { world: Arc::clone(self.world()), node: self.node(), p: ctx.proc() }))
    }
}

// ----------------------------------------------------------------------
// What a DvCtx call does at one instant: shared by the thread-run calls
// and the kernel-run ones.
// ----------------------------------------------------------------------

/// A packet send between its PCIe charge and its transmit.
pub(crate) struct Sending {
    t0: Time,
    /// The sender waits until here (the PIO stores, or the DMA enqueue).
    pub(crate) until: Time,
    /// When the packets are ready at the VIC.
    vic_ready: Time,
    groups: Vec<(NodeId, Vec<Packet>)>,
}

impl DvWorld {
    /// Charge `words` packet payloads crossing `node`'s PCIe bus at `now`:
    /// `(until, vic_ready)`. Direct writes occupy the CPU for the whole
    /// transfer; DMA returns after the descriptor enqueue and overlaps.
    pub(crate) fn charge_pcie(&self, now: Time, node: NodeId, words: u64, mode: SendMode) -> (Time, Time) {
        let pcie = &self.pcie[node];
        match mode {
            SendMode::DirectWrite { cached_headers } => {
                let (_, end) = pcie.pio_send(now, words, cached_headers);
                (end, end)
            }
            SendMode::Dma { cached_headers } => {
                let bytes = words * if cached_headers { PAYLOAD_BYTES } else { 2 * PAYLOAD_BYTES };
                let (_, end) = pcie.dma_to_vic(now, bytes);
                (now + DMA_ENQUEUE, end)
            }
        }
    }

    /// `send_packets` up to its wait: the PCIe charge, and the packets
    /// grouped by destination.
    pub(crate) fn start_send(&self, now: Time, node: NodeId, packets: &[Packet], mode: SendMode) -> Sending {
        let (until, vic_ready) = self.charge_pcie(now, node, packets.len() as u64, mode);
        let mut counts = vec![0; self.nodes()];
        for p in packets {
            counts[p.header.dest] += 1;
        }
        let groups = group_by_dest(counts, packets.iter().copied(), |p| p.header.dest);
        Sending { t0: now, until, vic_ready, groups }
    }

    /// The rest of `send_packets`: every batch transmitted, the send span;
    /// returns the estimated delivery time of the last packet.
    pub(crate) fn finish_send(self: &Arc<Self>, k: &mut Kernel, node: NodeId, s: Sending) -> Time {
        let mut last = s.vic_ready;
        for (dst, batch) in s.groups {
            last = last.max(self.transmit(k, node, dst, batch, s.vic_ready));
        }
        self.tracer.span(node, State::Send, s.t0, k.now());
        last
    }

    /// `gc_wait_zero`'s condition.
    pub(crate) fn gc_zero(&self, node: NodeId, gc: u8) -> Option<()> {
        self.vics[node].lock().counter(gc).is_zero().then_some(())
    }

    /// `gc_wait_zero`'s registration.
    pub(crate) fn gc_register(&self, node: NodeId, gc: u8, w: Waker) {
        self.vics[node].lock().counter(gc).waiters().register(w);
    }

    /// A `gc_wait_zero` that began at `t0` ended at `now`, on zero (`ok`) or
    /// at its deadline: its wait span, and the timeout count.
    pub(crate) fn gc_waited(&self, node: NodeId, t0: Time, now: Time, ok: bool) {
        if now > t0 {
            self.tracer.span(node, State::Wait, t0, now);
        }
        if !ok {
            // Timeouts are how programs survive the set/decrement race, so
            // they are a first-class health signal.
            self.metrics.incr_labeled("api.gc.wait_timeouts", &[("node", (node as u64).into())], 1);
        }
    }

    /// A surprise-FIFO pop's condition.
    pub(crate) fn fifo_pop(&self, node: NodeId) -> Option<(Time, Word)> {
        self.vics[node].lock().fifo.pop()
    }

    /// A surprise-FIFO pop's registration.
    pub(crate) fn fifo_register(&self, node: NodeId, w: Waker) {
        self.vics[node].lock().fifo.waiters().register(w);
    }

    /// Drain up to `max` surprise packets of `node` onto `out` at `now`:
    /// when the host transfer of the words moved ends, `None` if none did.
    pub(crate) fn drain_start(&self, now: Time, node: NodeId, max: usize, out: &mut Vec<Word>) -> Option<Time> {
        let n = self.vics[node].lock().fifo.drain_into(max, out);
        (n > 0).then(|| self.pcie[node].dma_from_vic(now, n as u64 * PAYLOAD_BYTES).1)
    }

    /// When a host read of `n` words of `node`'s DV memory, started at
    /// `now`, ends: PIO for up to two words, the 8×-faster DMA beyond.
    pub(crate) fn read_end(&self, now: Time, node: NodeId, n: usize) -> Time {
        let pcie = &self.pcie[node];
        if n <= 2 {
            pcie.pio_read(now, n as u64).1
        } else {
            pcie.dma_from_vic(now, n as u64 * PAYLOAD_BYTES).1
        }
    }

    /// `out.len()` words of `node`'s pushed status page at `address`.
    pub(crate) fn status_words(&self, node: NodeId, address: u32, out: &mut [Word]) {
        let page = self.layout.status_page_words;
        assert!(
            (address as usize + out.len()) <= page,
            "peek_local only covers the pushed status page (first {page} words)"
        );
        self.vics[node].lock().memory.read_range(address, out);
    }
}

// ----------------------------------------------------------------------
// The calls, and the blocking pieces they are built from
// ----------------------------------------------------------------------

const CACHED_PIO: SendMode = SendMode::DirectWrite { cached_headers: true };

impl At {
    /// `send_packets`: the PCIe charge, then the transmit.
    async fn send(&self, packets: &[Packet], mode: SendMode) {
        let s = self.world.start_send(self.p.now(), self.node, packets, mode);
        self.p.until_then(s.until, |k| self.world.finish_send(k, self.node, s)).await;
    }

    /// `gc_wait_zero(gc, deadline)`: `true` on zero.
    async fn gc_wait(&self, gc: u8, deadline: Option<Time>) -> bool {
        let (world, node, t0) = (&self.world, self.node, self.p.now());
        let ok = self.p.turn(deadline, || world.gc_zero(node, gc), |w| world.gc_register(node, gc, w)).await.is_some();
        world.gc_waited(node, t0, self.p.now(), ok);
        ok
    }

    /// `peek_local` into `out`: the status poll's charge, then the read;
    /// returns the time of the read.
    async fn peek(&self, address: u32, out: &mut [Word]) -> Time {
        let now = self.p.delay(STATUS_POLL).await;
        self.world.status_words(self.node, address, out);
        now
    }

    /// The recovery layer's drain: each host transfer of up to
    /// [`DRAIN_CHUNK`] words, then their admission, until the FIFO is empty.
    pub(crate) async fn drain(&self, rel: &mut ReliableFifo, out: &mut Vec<Word>) {
        let mut start = out.len();
        let mut chunk = self.world.drain_start(self.p.now(), self.node, DRAIN_CHUNK, out);
        while let Some(end) = chunk {
            chunk = self
                .p
                .until_then(end, |k| {
                    rel.admit_drained(&self.world, out, start);
                    start = out.len();
                    self.world.drain_start(k.now(), self.node, DRAIN_CHUNK, out)
                })
                .await;
        }
    }

    /// A blocking pop of the next *new* surprise word, or `None` once
    /// `deadline` has passed; duplicates are discarded without satisfying
    /// it.
    async fn recv(&self, rel: &mut ReliableFifo, deadline: Time) -> Option<Word> {
        let (world, node) = (&self.world, self.node);
        loop {
            let (_, w) = self.p.turn(Some(deadline), || world.fifo_pop(node), |w| world.fifo_register(node, w)).await?;
            self.p.delay(FIFO_POP).await;
            if rel.admit(world, w) {
                rel.received += 1;
                return Some(w);
            }
            rel.stats.dup_discarded += 1;
        }
    }

    /// [`ReliableFifo::verify_epoch`]'s parallel acknowledgment round:
    /// preset [`VERIFY_GC`], query every destination this epoch sent to at
    /// once, wait for the replies (or the timeout), and read them — or, on
    /// a timeout, drain our FIFO into `sink`. The destinations still short
    /// afterwards take the serial retransmission path on the thread.
    pub(crate) async fn ack_round(&self, rel: &mut ReliableFifo, sink: &mut Vec<Word>) {
        let (world, me, nodes) = (&self.world, rel.me, rel.nodes);
        let replies = world.layout.verify_replies;
        let dests = (0..nodes).filter(|&d| rel.wire_epoch[d] > 0).count();
        if dests == 0 {
            return;
        }
        self.p.delay(world.config.pcie.pio_write_latency).await;
        self.p.with(|k| world.vics[me].lock().set_counter(k, VERIFY_GC, dests as u64));
        // Stale replies of earlier rounds are monotonic-safe: an old count
        // can only look like a shortfall, which the serial path then
        // re-checks; late ones may drive VERIFY_GC negative, which the
        // next preset overwrites.
        let my_slot = world.layout.accepted + me as u32;
        let queries: Vec<Packet> = (0..nodes)
            .filter(|&d| rel.wire_epoch[d] > 0)
            .map(|d| {
                let ret = PacketHeader::dv_memory(d, me, replies + d as u32, VERIFY_GC);
                Packet::new(PacketHeader::query(me, d, my_slot), ret.encode())
            })
            .collect();
        rel.stats.ack_queries += dests as u64;
        self.send(&queries, CACHED_PIO).await;
        if !self.gc_wait(VERIFY_GC, Some(self.p.now() + QUERY_TIMEOUT)).await {
            rel.stats.ack_query_timeouts += 1;
            return self.drain(rel, sink).await;
        }
        self.p.until(world.read_end(self.p.now(), me, nodes)).await;
        let mut d = 0;
        world.vics[me].lock().memory.lend_range(replies, nodes, |run| {
            for &hw in run {
                if rel.wire_epoch[d] > 0 && hw == rel.hw_confirmed[d] + rel.wire_epoch[d] {
                    rel.hw_confirmed[d] = hw;
                    rel.wire_epoch[d] = 0;
                }
                d += 1;
            }
        });
    }

    /// [`DvCtx::barrier`](crate::DvCtx::barrier): the setup charge, the
    /// arrival, then the release — at the hardware wave's end for the last
    /// arrival, at the epoch's change for the others.
    pub(crate) async fn barrier(self) {
        let (world, t0) = (&self.world, self.p.now());
        self.p.until(t0 + world.config.dv.barrier_setup).await;
        let arrived = self.p.with(|k| {
            let mut b = world.barrier.lock();
            b.count += 1;
            if b.count < world.nodes() {
                return Err(b.epoch);
            }
            b.count = 0;
            b.epoch += 1;
            let release_at = k.now() + world.config.dv.barrier_hw;
            let ws = std::mem::take(&mut b.waiters);
            drop(b);
            k.call_at(release_at, move |k| ws.wake_all(k));
            Ok(release_at)
        });
        match arrived {
            Ok(release_at) => self.p.until(release_at).await,
            Err(my_epoch) => {
                let barrier = &world.barrier;
                let released = || (barrier.lock().epoch != my_epoch).then_some(());
                self.p.turn(None, released, |w| barrier.lock().waiters.register(w)).await;
            }
        }
        self.p.with(|k| world.tracer.span(self.node, State::Barrier, t0, k.now()));
    }

    /// [`DvCtx::fast_barrier`](crate::DvCtx::fast_barrier) past its packet
    /// build: the sends, the wait for this parity's counter, its re-arm.
    pub(crate) async fn fast_barrier(self, gc: u8, packets: Vec<Packet>) {
        let t0 = self.p.now();
        self.send(&packets, CACHED_PIO).await;
        let ok = self.gc_wait(gc, None).await;
        debug_assert!(ok, "fast barrier counter must reach zero");
        // Re-arm this parity for its next use (safe: nobody can re-enter
        // the same parity before every node passed the *other* one).
        let rearm = (self.world.nodes() - 1) as u64;
        self.p.with(|k| {
            self.world.vics[self.node].lock().set_counter(k, gc, rearm);
            self.world.tracer.span(self.node, State::Barrier, t0, k.now());
        });
    }

    /// [`ReliableFifo::await_posts`]: poll a status-page block until every
    /// peer has posted, discarding stray duplicates for 1 µs between polls.
    pub(crate) async fn posts(&self, rel: &mut ReliableFifo, address: u32) -> Vec<Word> {
        let (me, nodes) = (rel.me, rel.nodes);
        let (mut progress, mut slots) = (Progress::default(), vec![0; nodes]);
        loop {
            let now = self.peek(address, &mut slots).await;
            if (0..nodes).filter(|&s| s != me).all(|s| slots[s] != 0) {
                return slots;
            }
            progress.note(now, me, &slots, rel.received);
            // Anything buffered here is a retransmission duplicate: every
            // new word was drained before the posts went out.
            let stray = self.recv(rel, now + time::us(1)).await;
            debug_assert!(stray.is_none(), "new word arrived after its epoch completed");
        }
    }
}

/// How long a wait on the peers' posts may go without a new post or a
/// new word before it names the peers that never posted: a hundred
/// accepted-count query timeouts. A peer's acknowledgment round panics on
/// its own sooner (eight timeouts per query, twelve empty retransmission
/// windows in a row), so a peer silent for this long is stuck, not slow,
/// and a run that would poll for it forever ends here instead.
pub(crate) const POST_STALL: Time = 100 * QUERY_TIMEOUT;

/// What a wait on the peers' posts ([`Close`], [`At::posts`]) last saw move:
/// how many peers had posted, how many new words were in, and since when.
/// Watching it adds no event, so a run that never stalls is unchanged.
#[derive(Default)]
struct Progress(Option<(usize, u64, Time)>);

impl Progress {
    /// Note one poll of the post slots (`posted[s] != 0` once peer `s`
    /// has posted) and return how long neither count has moved.
    ///
    /// # Panics
    /// When some peer has still not posted after [`POST_STALL`] without a
    /// new post or word, naming the peers that never posted.
    fn note(&mut self, now: Time, me: NodeId, posted: &[Word], received: u64) -> Time {
        let missing = || (0..posted.len()).filter(move |&s| s != me && posted[s] == 0);
        let seen = (posted.len() - 1 - missing().count(), received);
        let idle = match self.0 {
            Some((count, words, since)) if (count, words) == seen => now - since,
            _ => {
                self.0 = Some((seen.0, seen.1, now));
                0
            }
        };
        assert!(
            idle < POST_STALL || missing().next().is_none(),
            "node {me}: nodes {never:?} never posted their counts; nothing was posted or \
             received for {ms} ms ({received} new words in)",
            never = missing().collect::<Vec<_>>(),
            ms = idle / time::ms(1),
        );
        idle
    }
}

/// Where an epoch close hands its node's thread the token, and the thread
/// hands the close back to the kernel.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resume {
    /// The flush and the acknowledgment round.
    Start,
    /// The count posts.
    Post,
    /// A drain before the next status poll.
    Drain,
    /// The next status poll.
    Peek,
}

/// [`ReliableFifo::complete_epoch`]: the flush, the acknowledgment round,
/// the count posts, then drain until every promised word is in.
pub(crate) struct Close {
    pub(crate) rel: ReliableFifo,
    /// The aggregator's buffered packets (emptied once sent).
    pub(crate) flush: Vec<Packet>,
    mode: SendMode,
    /// What each peer is owed this epoch.
    owed: Vec<u64>,
    /// Words for the thread to deliver.
    pub(crate) batch: Vec<Word>,
    /// The peers' posts, as last polled.
    posted: Vec<Word>,
    progress: Progress,
}

impl Close {
    pub(crate) fn new(rel: ReliableFifo, flush: Vec<Packet>, mode: SendMode) -> Self {
        let mut owed = vec![0u64; rel.nodes];
        for &d in &rel.epoch_dest {
            owed[usize::from(d)] += 1;
        }
        let posted = vec![0; rel.nodes];
        Self { rel, flush, mode, owed, batch: Vec::new(), posted, progress: Progress::default() }
    }

    /// Run the close on from `from` until the thread must retransmit (some
    /// destination is still short after the acknowledgment round) or
    /// deliver [`Close::batch`], then run it on from the point returned;
    /// `None` once every promised word is in.
    pub(crate) async fn run(&mut self, at: &At, from: Resume) -> Option<Resume> {
        let (rel, batch, posted) = (&mut self.rel, &mut self.batch, &mut self.posted);
        let (me, nodes, slots) = (rel.me, rel.nodes, at.world.layout.epoch_counts);
        let peers = move || (0..nodes).filter(move |&s| s != me);
        if from == Resume::Start {
            if !self.flush.is_empty() {
                at.send(&self.flush, self.mode).await;
                self.flush.clear();
            }
            at.ack_round(rel, batch).await;
            if rel.wire_epoch.iter().any(|&w| w > 0) {
                return Some(Resume::Post);
            }
            rel.end_epoch();
            if !batch.is_empty() {
                return Some(Resume::Post);
            }
        }
        if matches!(from, Resume::Start | Resume::Post) {
            let posts: Vec<Packet> = peers()
                .map(|d| {
                    let header = PacketHeader::dv_memory(me, d, slots + me as u32, SCRATCH_GC);
                    Packet::new(header, self.owed[d] + 1)
                })
                .collect();
            if !posts.is_empty() {
                at.send(&posts, CACHED_PIO).await;
            }
        }
        let mut drain = from != Resume::Peek;
        loop {
            if drain {
                at.drain(rel, batch).await;
                if !batch.is_empty() {
                    return Some(Resume::Peek);
                }
            }
            drain = true;
            let now = at.peek(slots, posted).await;
            let idle = self.progress.note(now, me, posted, rel.received);
            if peers().all(|s| posted[s] != 0) {
                let expected: u64 = peers().map(|s| posted[s] - 1).sum();
                if rel.received == expected {
                    return None;
                }
                debug_assert!(rel.received < expected, "received more than promised");
                assert!(
                    idle < QUERY_TIMEOUT,
                    "node {me}: received {received} of {expected} promised words and \
                     nothing more arrives; a word was sent twice, but every word must \
                     be unique across the run",
                    received = rel.received,
                );
            }
            if let Some(w) = at.recv(rel, now + time::us(2)).await {
                batch.push(w);
                return Some(Resume::Drain);
            }
        }
    }
}
