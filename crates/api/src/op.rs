//! DV's blocking calls: one `async fn` of [`At`] per wait.
//!
//! [`At`] is the async face of [`DvCtx`]: every blocking `DvCtx` call is
//! one future here, with one body, and the blocking call is a thin door
//! onto it. The calls run in one of three places:
//!
//! * **On the node's thread**, by [`SimCtx::block_on`]: a call that parks
//!   once — a send, a counter preset or wait, a local read or write, a
//!   status poll, a FIFO pop or drain, an aggregator flush.
//! * **In the kernel, one call at a time**, by [`DvCtx::run`]: the calls
//!   that park more than once — [`DvCtx::barrier`](crate::DvCtx::barrier),
//!   [`DvCtx::fast_barrier`](crate::DvCtx::fast_barrier), and the
//!   recovery layer's drain, verification (acknowledgment round and
//!   retransmission), epoch close ([`EpochClose`]) and post wait. The
//!   node's thread parks once, each later resume of the node polls the
//!   call on in kernel context, and the thread runs again only when the
//!   call returns (the blocking epoch close returns once per run of words
//!   it hands `deliver`).
//! * **In the kernel, as a whole body.** A kernel may hand
//!   [`DvCtx::run`] the whole rest of a node's program as one `async`
//!   block over `At` — DV GUPS, BFS and heat do — so every wait of it, single
//!   parks included, is polled in kernel context, and the node's thread
//!   runs only to build the inputs and to take the result.
//!
//! A kernel-run call's state travels in by value ([`ReliableFifo`],
//! [`Aggregator`], batches) and out as its output: the future is
//! `'static`, so it borrows nothing from the parked thread. It allocates
//! from the malloc arena of whichever thread dispatches it, so what it
//! will grow is reserved on the node's thread first
//! ([`ReliableFifo::reserve`]). The kernel-run calls await the same waits
//! the thread runs (`ack_round` a `gc_set` and a `lend`, `accepted` a
//! `read_word`, `recv` a `pop`), so no wait has a second, thread-side
//! copy.
//!
//! Between two resumes a call does the same wherever it runs, side effect
//! for side effect: the same events in the same order, the same PCIe and
//! port reservations, VIC reads, tracer spans and `api.*` metrics, and the
//! same panics. Each blocked state is one dv-sim wait, re-run on every
//! poll: a charged delay or transfer is a [`Proc::until`], a condition
//! wait a [`Proc::turn`]. A resume that polls a kernel-run call is
//! committed exactly like one that grants a thread, so where a call runs
//! changes only `SchedStats::thread_resumes`. `tests/dv_wait_traces.rs`
//! pins the traces the thread-run calls produced before the kernel ran
//! any.

use std::future::Future;
use std::sync::Arc;

use dv_core::packet::{Packet, PacketHeader, PAYLOAD_BYTES, SCRATCH_GC};
use dv_core::time::{self, Time};
use dv_core::trace::State;
use dv_core::{NodeId, Word};
use dv_sim::{Kernel, Proc, SimCtx};
use dv_vic::{PciePath, Vic};

use crate::aggregate::Aggregator;
use crate::ctx::{DvCtx, SendMode, DMA_ENQUEUE, FIFO_POP, STATUS_POLL};
use crate::layout::{Layout, FAST_BARRIER_GC, QUERY_GC, VERIFY_GC};
use crate::reliable::{ReliableFifo, Scratch, DRAIN_CHUNK, MAX_ROUNDS, QUERY_TIMEOUT, QUERY_TRIES, WINDOW};
use crate::world::{BlockWrite, DvState, DvWorld};

/// One node's calls as futures: the node a call runs for, and its
/// process. Built by [`DvCtx::run`], which hands it to the call.
pub struct At {
    world: Arc<DvWorld>,
    node: NodeId,
    p: Proc,
}

impl DvCtx {
    /// This node's calls, for `ctx` to run.
    pub(crate) fn at(&self, ctx: &SimCtx) -> At {
        At { world: Arc::clone(self.world()), node: self.node(), p: ctx.proc() }
    }

    /// Run `call` for this node in the kernel, the thread parked until it
    /// returns: `call` is polled now, and then at every later resume of
    /// this node, in whichever thread dispatches, until it completes (see
    /// [`SimCtx::wait_in_kernel`]). It may be one blocking call or the
    /// whole rest of the node's program. Whatever it will grow is best
    /// reserved before this call, on the node's thread (the module doc's
    /// allocation rule).
    pub fn run<T, F>(&self, ctx: &SimCtx, call: impl FnOnce(At) -> F) -> T
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        ctx.wait_in_kernel(call(self.at(ctx)))
    }
}

/// Stable counting sort of `items` into one exact-capacity batch per
/// destination: ascending destination, input order within one — so the
/// transmit sequence is deterministic by construction. `counts[d]` is
/// the number of items bound for `d`. (A packet send groups its packets
/// into one shared buffer instead: [`DvState::send`].)
fn group_by_dest<T>(
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

const CACHED_PIO: SendMode = SendMode::DirectWrite { cached_headers: true };

impl At {
    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The shared world (for its tracer and metrics).
    pub fn world(&self) -> &Arc<DvWorld> {
        &self.world
    }

    /// Where this run's DV-memory blocks and group counters live.
    pub fn layout(&self) -> &Layout {
        &self.world.layout
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.p.now()
    }

    /// Advance virtual time by `d` — a compute charge; returns the time
    /// it ended.
    pub async fn delay(&self, d: Time) -> Time {
        self.p.delay(d).await
    }

    /// `f` on the cluster's kernel-owned state, in one [`Proc::with`].
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut DvState, &mut Kernel) -> R) -> R {
        self.p.with(|k| self.world.state(k, f))
    }

    /// `f` on this node's VIC.
    pub(crate) fn vic<R>(&self, f: impl FnOnce(&mut Vic) -> R) -> R {
        self.with(|st, _| f(&mut st.vics[self.node]))
    }

    /// `f` on this node's PCIe path, at the current time.
    fn pcie<R>(&self, f: impl FnOnce(&mut PciePath, Time) -> R) -> R {
        self.with(|st, k| f(&mut st.pcie[self.node], k.now()))
    }

    /// Whether a surprise-FIFO word may arrive twice by now.
    fn repeats(&self) -> bool {
        self.with(|st, _| st.fifo_repeats)
    }

    /// The PCIe charge for `words` payloads at `now` — direct writes hold
    /// the CPU for the whole transfer, DMA returns after the descriptor
    /// enqueue and overlaps — then `transmit` of the send's batches with
    /// the time they are ready at the VIC, and the send span; returns the
    /// estimated delivery time of the last word.
    async fn send_batches(
        &self,
        words: u64,
        mode: SendMode,
        transmit: impl FnOnce(&mut DvState, &mut Kernel, Time) -> Time,
    ) -> Time {
        let (t0, (until, vic_ready)) = self.pcie(|pcie, t0| match mode {
            SendMode::DirectWrite { cached_headers } => {
                let end = pcie.pio_send(t0, words, cached_headers).1;
                (t0, (end, end))
            }
            SendMode::Dma { cached_headers } => {
                let bytes = words * if cached_headers { PAYLOAD_BYTES } else { 2 * PAYLOAD_BYTES };
                (t0, (t0 + DMA_ENQUEUE, pcie.dma_to_vic(t0, bytes).1))
            }
        });
        self.p
            .until_then(until, |k| {
                self.world.state(k, |st, k| {
                    let last = transmit(st, k, vic_ready);
                    self.world.tracer.span(self.node, State::Send, t0, k.now());
                    last
                })
            })
            .await
    }

    /// [`DvCtx::send_packets`]: one packet per word. Returns the estimated
    /// delivery time of the last packet.
    pub async fn send(&self, packets: &[Packet], mode: SendMode) -> Time {
        if packets.is_empty() {
            return self.p.now();
        }
        let node = self.node;
        self.send_batches(packets.len() as u64, mode, |st, k, ready| st.send(k, node, packets, ready)).await
    }

    /// [`DvCtx::write_blocks`]: contiguous blocks, one PCIe charge for all.
    pub async fn write_blocks(&self, blocks: Vec<BlockWrite>, mode: SendMode) -> Time {
        let words: u64 = blocks.iter().map(|b| b.words.len() as u64).sum();
        if words == 0 {
            return self.p.now();
        }
        let node = self.node;
        let mut counts = vec![0; self.world.nodes()];
        blocks.iter().for_each(|b| counts[b.dest] += 1);
        let batches = group_by_dest(counts, blocks.into_iter(), |b| b.dest);
        self.send_batches(words, mode, |st, k, ready| {
            let transmit = |last: Time, (dst, batch)| last.max(st.transmit_blocks(k, node, dst, batch, ready));
            batches.into_iter().fold(ready, transmit)
        })
        .await
    }

    /// [`DvCtx::gc_set_local`]: the PIO write's charge, then the preset.
    pub async fn gc_set(&self, gc: u8, expected: u64) {
        self.p.delay(self.world.config.pcie.pio_write_latency).await;
        self.with(|st, k| st.vics[self.node].set_counter(k, gc, expected));
    }

    /// [`DvCtx::gc_wait_zero`]: `true` on zero, `false` at the deadline;
    /// the wait span, and the timeout count.
    pub async fn gc_wait(&self, gc: u8, deadline: Option<Time>) -> bool {
        let (node, t0) = (self.node, self.p.now());
        let zero = |st: &mut DvState| st.vics[node].counter(gc).is_zero().then_some(());
        let ok = self.p.turn_in(deadline, zero, |st, w| st.vics[node].watch_counter(gc, w)).await.is_some();
        let now = self.p.now();
        if now > t0 {
            self.world.tracer.span(node, State::Wait, t0, now);
        }
        if !ok {
            // Timeouts are how programs survive the set/decrement race, so
            // they are a first-class health signal.
            self.world.metrics.incr_labeled("api.gc.wait_timeouts", &[("node", (node as u64).into())], 1);
        }
        ok
    }

    /// [`DvCtx::read_word_deadline`]: preset [`QUERY_GC`], fire the query,
    /// wait for the reply (or the deadline), then fetch it across PCIe.
    pub(crate) async fn read_word(&self, dest: NodeId, remote_addr: u32, deadline: Option<Time>) -> Option<Word> {
        let (me, reply_addr) = (self.node, self.world.layout.query_reply);
        self.gc_set(QUERY_GC, 1).await;
        let ret = PacketHeader::dv_memory(dest, me, reply_addr, QUERY_GC);
        let query = Packet::new(PacketHeader::query(me, dest, remote_addr), ret.encode());
        self.send(&[query], SendMode::DirectWrite { cached_headers: false }).await;
        if !self.gc_wait(QUERY_GC, deadline).await {
            return None;
        }
        self.p.until(self.pcie(|pcie, now| pcie.pio_read(now, 1).1)).await;
        Some(self.vic(|vic| vic.memory.read(reply_addr)))
    }

    /// [`DvCtx::write_local`]: PIO for up to 64 words, DMA beyond, then
    /// the write.
    pub async fn write_local(&self, address: u32, words: &[Word]) {
        let n = words.len() as u64;
        let end = self.pcie(|pcie, now| {
            if n <= 64 {
                pcie.pio_send(now, n, true).1
            } else {
                pcie.dma_to_vic(now, n * PAYLOAD_BYTES).1
            }
        });
        self.p.until(end).await;
        self.vic(|vic| vic.memory.write_range(address, words));
    }

    /// [`DvCtx::lend_local`]: one host read of `n` words (PIO for up to
    /// two, the 8×-faster DMA beyond), then `f` over them in place.
    pub async fn lend(&self, address: u32, n: usize, f: impl FnMut(&[Word])) {
        let end = self.pcie(|pcie, now| {
            if n <= 2 {
                pcie.pio_read(now, n as u64).1
            } else {
                pcie.dma_from_vic(now, n as u64 * PAYLOAD_BYTES).1
            }
        });
        self.p.until(end).await;
        self.vic(|vic| vic.memory.lend_range(address, n, f));
    }

    /// [`DvCtx::peek_local`] into `out`: the status poll's charge, then the
    /// read; returns the time of the read.
    pub(crate) async fn peek(&self, address: u32, out: &mut [Word]) -> Time {
        let now = self.p.delay(STATUS_POLL).await;
        let page = self.world.layout.status_page_words;
        assert!(
            (address as usize + out.len()) <= page,
            "peek_local only covers the pushed status page (first {page} words)"
        );
        self.vic(|vic| vic.memory.read_range(address, out));
        now
    }

    /// [`DvCtx::fifo_recv_deadline`]: a blocking pop of one surprise word,
    /// then its host charge; `None` once `deadline` passes first.
    pub(crate) async fn pop(&self, deadline: Option<Time>) -> Option<Word> {
        let node = self.node;
        let pop = |st: &mut DvState| st.vics[node].fifo.pop();
        let w = self.p.turn_in(deadline, pop, |st, w| st.vics[node].fifo.register(w)).await?;
        self.p.delay(FIFO_POP).await;
        Some(w)
    }

    /// [`DvCtx::fifo_drain_into`]: move up to `max` surprise words onto
    /// `out`, then wait out their host transfer; returns how many moved.
    pub(crate) async fn drain_into(&self, max: usize, out: &mut Vec<Word>) -> usize {
        let n = self.vic(|vic| vic.fifo.drain_into(max, out));
        if n > 0 {
            self.p.until(self.pcie(|pcie, now| pcie.dma_from_vic(now, n as u64 * PAYLOAD_BYTES).1)).await;
        }
        n
    }

    /// [`Aggregator::flush`]: everything `agg` buffered, as one send in its
    /// mode; returns the delivery estimate of the last packet (or now,
    /// when nothing is buffered). The buffer keeps its capacity.
    pub async fn flush(&self, agg: &mut Aggregator) -> Time {
        let (mut batch, mode) = agg.take_batch();
        let last = self.send(&batch, mode).await;
        batch.clear();
        agg.restore(batch);
        last
    }

    /// [`ReliableFifo::drain_unique`] onto `out`: each host transfer of up
    /// to 4096 words lands at its tail and is admitted there
    /// (duplicates removed), until the FIFO is empty. An empty FIFO costs
    /// nothing.
    pub async fn drain(&self, rel: &mut ReliableFifo, out: &mut Vec<Word>) {
        loop {
            let start = out.len();
            if self.drain_into(DRAIN_CHUNK, out).await == 0 {
                return;
            }
            rel.admit_drained(self.repeats(), out, start);
        }
    }

    /// A blocking pop of the next *new* surprise word, or `None` once
    /// `deadline` has passed; duplicates are discarded without satisfying
    /// it.
    async fn recv(&self, rel: &mut ReliableFifo, deadline: Time) -> Option<Word> {
        loop {
            let w = self.pop(Some(deadline)).await?;
            if rel.admit(self.repeats(), w) {
                rel.received += 1;
                return Some(w);
            }
            rel.stats.dup_discarded += 1;
        }
    }

    /// [`ReliableFifo::verify_epoch`]: the acknowledgment round, the
    /// serial path for every destination whose count came back short (or
    /// unknown), then the epoch log closes.
    pub(crate) async fn verify(&self, rel: &mut ReliableFifo, sink: &mut Vec<Word>) {
        self.ack_round(rel, sink).await;
        for d in 0..rel.nodes {
            if rel.wire_epoch[d] > 0 {
                self.verify_dest(rel, d, sink).await;
            }
        }
        rel.end_epoch();
    }

    /// The parallel acknowledgment round: preset [`VERIFY_GC`], query
    /// every destination this epoch sent to at once, wait for the replies
    /// (or the timeout), and read them — or, on a timeout, drain our FIFO
    /// into `sink`. The destinations still short afterwards take
    /// [`At::verify_dest`].
    async fn ack_round(&self, rel: &mut ReliableFifo, sink: &mut Vec<Word>) {
        let (world, me, nodes) = (&self.world, rel.me, rel.nodes);
        let replies = world.layout.verify_replies;
        let dests = (0..nodes).filter(|&d| rel.wire_epoch[d] > 0).count();
        if dests == 0 {
            return;
        }
        self.gc_set(VERIFY_GC, dests as u64).await;
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
        let mut d = 0;
        self.lend(replies, nodes, |run| {
            for &hw in run {
                if rel.wire_epoch[d] > 0 && hw == rel.hw_confirmed[d] + rel.wire_epoch[d] {
                    rel.hw_confirmed[d] = hw;
                    rel.wire_epoch[d] = 0;
                }
                d += 1;
            }
        })
        .await;
    }

    /// One destination's serial verification. On a shortfall some of this
    /// epoch's words never made the FIFO; which ones is unknowable from a
    /// count, so its part of the epoch log is retransmitted in
    /// stop-and-wait windows. A window whose accepted delta comes back
    /// short (losses struck again) is split in half and each half
    /// re-shipped and confirmed on its own — loss concentrates into
    /// ever-smaller chunks, so the attempt budget is spent on the words
    /// that actually keep dropping instead of on clean ones.
    async fn verify_dest(&self, rel: &mut ReliableFifo, dest: NodeId, sink: &mut Vec<Word>) {
        let (me, expected) = (rel.me, rel.hw_confirmed[dest] + rel.wire_epoch[dest]);
        let mut hw = self.accepted(rel, dest, sink).await;
        if hw < expected {
            rel.stats.retx_rounds += 1;
            // What we are about to resend may already sit in `dest`'s
            // FIFO: from here on every receiver must check for repeats.
            self.with(|st, _| st.fifo_repeats = true);
            // This destination's words, in send order (the rare path:
            // the shared epoch log is filtered only on a shortfall).
            let sent = rel.epoch_log.iter().zip(&rel.epoch_dest);
            let log: Vec<Word> = sent.filter(|&(_, &d)| usize::from(d) == dest).map(|(&w, _)| w).collect();
            let windows = log.len().div_ceil(WINDOW) as u32;
            // A dead data path shows up as *consecutive* attempts that
            // accept nothing; splitting after a partial loss is normal
            // progress and must not count against it. The total-attempt
            // budget is a structural backstop only: binary splitting
            // costs O(log window) attempts per actually-dropped word, so
            // it scales with the log length, not the window count.
            let mut budget = MAX_ROUNDS.saturating_mul(windows.max(1) + log.len() as u32);
            let mut stalls = 0u32;
            let mut work: Vec<Vec<Word>> = log.chunks(WINDOW).rev().map(|c| c.to_vec()).collect();
            while let Some(mut chunk) = work.pop() {
                assert!(
                    budget > 0,
                    "node {me}: retransmission budget exhausted toward node {dest} \
                     (accepted {hw}, expected {expected}); the data path is dead{}",
                    self.fifo_report(dest),
                );
                budget -= 1;
                rel.stats.retx_windows += 1;
                rel.stats.retx_words += chunk.len() as u64;
                let packets: Vec<Packet> =
                    chunk.iter().map(|&w| Packet::new(PacketHeader::fifo(me, dest, SCRATCH_GC), w)).collect();
                self.send(&packets, SendMode::Dma { cached_headers: true }).await;
                let after = self.accepted(rel, dest, sink).await;
                // Per-source counts and per-link ordering make the delta
                // exact: it counts precisely this attempt's accepted
                // pushes, nobody else's.
                let delta = after - hw;
                hw = after;
                if delta == chunk.len() as u64 {
                    stalls = 0;
                    continue;
                }
                if delta == 0 {
                    stalls += 1;
                    assert!(
                        stalls < MAX_ROUNDS,
                        "node {me}: {stalls} consecutive retransmissions toward node \
                         {dest} accepted nothing (at {hw}, expected {expected}); \
                         the data path is dead{}",
                        self.fifo_report(dest),
                    );
                    // A wholly rejected window usually means the peer's
                    // FIFO is at capacity (it is busy verifying its own
                    // epoch). Back off — linearly, in free virtual time —
                    // so its drain loop can make room before we re-offer.
                    self.p.delay(time::us(100) * stalls as u64).await;
                } else {
                    stalls = 0;
                }
                if chunk.len() > 1 {
                    work.push(chunk.split_off(chunk.len() / 2));
                }
                work.push(chunk);
            }
        }
        rel.hw_confirmed[dest] = hw;
        rel.wire_epoch[dest] = 0;
    }

    /// What a dead data path toward `dest` looks like at its end: the
    /// peer's FIFO length, capacity and drop count, appended to the panic
    /// (`assert!` formats it only on failure).
    fn fifo_report(&self, dest: NodeId) -> String {
        self.with(|st, _| {
            let fifo = &st.vics[dest].fifo;
            format!("; node {dest}'s FIFO holds {} of {} words, {} dropped", fifo.len(), fifo.capacity(), fifo.dropped())
        })
    }

    /// Read back our accepted-count slot at `dest` with timeout + bounded
    /// retries. Stale replies from timed-out attempts are safe: the count
    /// is monotonic, so an old value is merely conservative.
    async fn accepted(&self, rel: &mut ReliableFifo, dest: NodeId, sink: &mut Vec<Word>) -> u64 {
        let (me, addr) = (rel.me, self.world.layout.accepted + rel.me as u32);
        for _ in 0..QUERY_TRIES {
            // Drain our own FIFO on *every* attempt, not just timeouts:
            // peers verify concurrently, and if every node only pushed
            // retransmissions without popping, the finite FIFOs would
            // fill to capacity and reject everything — a distributed
            // livelock where all deltas come back short forever.
            self.drain(rel, sink).await;
            rel.stats.ack_queries += 1;
            match self.read_word(dest, addr, Some(self.p.now() + QUERY_TIMEOUT)).await {
                Some(v) => return v,
                None => rel.stats.ack_query_timeouts += 1,
            }
        }
        panic!(
            "node {me}: accepted-count query to node {dest} timed out {QUERY_TRIES} times; \
             the acknowledgment path is dead",
        );
    }

    /// [`DvCtx::barrier`](crate::DvCtx::barrier): the setup charge, the
    /// arrival, then the release — at the hardware wave's end for the last
    /// arrival, at the epoch's change for the others.
    pub async fn barrier(&self) {
        let (world, t0) = (&self.world, self.p.now());
        self.p.until(t0 + world.config.dv.barrier_setup).await;
        let arrived = self.with(|st, k| {
            st.barrier_count += 1;
            if st.barrier_count < world.nodes() {
                return Err(st.barrier_epoch);
            }
            st.barrier_count = 0;
            st.barrier_epoch += 1;
            let release_at = k.now() + world.config.dv.barrier_hw;
            let waiters = std::mem::take(&mut st.barrier_waiters);
            st.release_barrier(k, release_at, waiters);
            Ok(release_at)
        });
        match arrived {
            Ok(release_at) => self.p.until(release_at).await,
            Err(my_epoch) => {
                let released = |st: &mut DvState| (st.barrier_epoch != my_epoch).then_some(());
                self.p.turn_in(None, released, |st, w| st.barrier_waiters.push(w)).await;
            }
        }
        self.p.with(|k| world.tracer.span(self.node, State::Barrier, t0, k.now()));
    }

    /// [`DvCtx::fast_barrier`](crate::DvCtx::fast_barrier): flip this
    /// node's parity, signal every peer's counter of that parity — the
    /// local one is the peers' to decrement — wait for ours, and re-arm
    /// it. A one-node cluster has nobody to wait for.
    pub async fn fast_barrier(&self) {
        let (node, n) = (self.node, self.world.nodes());
        if n == 1 {
            return;
        }
        let parity = self.with(|st, _| {
            let parity = st.fast_barrier_parity[node];
            st.fast_barrier_parity[node] = !parity;
            parity
        });
        let (gc, sink) = (FAST_BARRIER_GC[usize::from(parity)], self.world.layout.fast_barrier_sink);
        let packets: Vec<Packet> = (0..n)
            .filter(|&d| d != node)
            .map(|d| Packet::new(PacketHeader::dv_memory(node, d, sink, gc), 0))
            .collect();
        let t0 = self.p.now();
        self.send(&packets, CACHED_PIO).await;
        let ok = self.gc_wait(gc, None).await;
        debug_assert!(ok, "fast barrier counter must reach zero");
        // Re-arm this parity for its next use (safe: nobody can re-enter
        // the same parity before every node passed the *other* one).
        let rearm = (n - 1) as u64;
        self.with(|st, k| {
            st.vics[node].set_counter(k, gc, rearm);
            self.world.tracer.span(node, State::Barrier, t0, k.now());
        });
    }

    /// [`ReliableFifo::await_posts`]: poll a status-page block until every
    /// peer has posted, discarding stray duplicates for 1 µs between polls;
    /// returns the block, polled into the endpoint's scratch.
    pub async fn await_posts<'r>(&self, rel: &'r mut ReliableFifo, address: u32) -> &'r [Word] {
        let (me, nodes) = (rel.me, rel.nodes);
        let (mut progress, mut slots) = (Progress::default(), std::mem::take(&mut rel.scratch.posted));
        slots.resize(nodes, 0);
        loop {
            let now = self.peek(address, &mut slots).await;
            if (0..nodes).filter(|&s| s != me).all(|s| slots[s] != 0) {
                rel.scratch.posted = slots;
                return &rel.scratch.posted;
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

/// What a wait on the peers' posts ([`EpochClose`], [`At::await_posts`])
/// last saw move: how many peers had posted, how many new words were in,
/// and since when. Watching it adds no event, so a run that never stalls
/// is unchanged.
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

/// Where an epoch close hands its node the words to deliver, and the node
/// hands the close back.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Resume {
    /// The flush and the verification.
    Start,
    /// The count posts.
    Post,
    /// A drain before the next status poll.
    Drain,
    /// The next status poll.
    Peek,
}

/// [`ReliableFifo::complete_epoch`] as a loop the node drives: the flush,
/// the verification, the count posts, then drain until every promised
/// word is in. [`ReliableFifo::close_epoch`] opens it, each
/// [`EpochClose::next`] runs it on to the next run of words to deliver,
/// and [`EpochClose::finish`] gives the endpoint and the aggregator's
/// buffer back. The blocking `complete_epoch` drives the same loop.
pub struct EpochClose {
    rel: ReliableFifo,
    /// The aggregator's buffered packets (emptied once sent).
    flush: Vec<Packet>,
    mode: SendMode,
    /// The endpoint's scratch, back in [`EpochClose::finish`].
    scratch: Scratch,
    progress: Progress,
    /// Where the next [`EpochClose::next`] runs on from; `None` once every
    /// promised word is in.
    from: Option<Resume>,
}

impl EpochClose {
    pub(crate) fn new(mut rel: ReliableFifo, flush: Vec<Packet>, mode: SendMode) -> Self {
        let mut scratch = std::mem::take(&mut rel.scratch);
        scratch.owed.clear();
        scratch.owed.resize(rel.nodes, 0);
        for &d in &rel.epoch_dest {
            scratch.owed[usize::from(d)] += 1;
        }
        scratch.posted.resize(rel.nodes, 0);
        Self { rel, flush, mode, scratch, progress: Progress::default(), from: Some(Resume::Start) }
    }

    /// Run the close on until the node has words to deliver — they replace
    /// `out`'s contents, in arrival order, never an empty run — or until
    /// every promised word is in: then `false`, with `out` empty, and so
    /// at every later call.
    pub async fn next(&mut self, at: &At, out: &mut Vec<Word>) -> bool {
        out.clear();
        let Some(from) = self.from else { return false };
        self.from = self.run(at, from, out).await;
        self.from.is_some()
    }

    /// The endpoint back into `rel` and the emptied buffer back into
    /// `agg`; returns the new words this node received in the epoch (the
    /// count then restarts at zero).
    ///
    /// # Panics
    /// Panics if the close has not run to its end.
    pub fn finish(self, rel: &mut ReliableFifo, agg: &mut Aggregator) -> u64 {
        assert!(self.from.is_none(), "finish before the close ran to its end");
        *rel = self.rel;
        rel.scratch = self.scratch;
        agg.restore(self.flush);
        std::mem::take(&mut rel.received)
    }

    /// Run the close on from `from` until the node must deliver `batch`
    /// (empty on entry), then return the point to run on from; `None`
    /// once every promised word is in.
    async fn run(&mut self, at: &At, from: Resume, batch: &mut Vec<Word>) -> Option<Resume> {
        let (rel, Scratch { owed, posted, posts }) = (&mut self.rel, &mut self.scratch);
        let (me, nodes, slots) = (rel.me, rel.nodes, at.world.layout.epoch_counts);
        let peers = move || (0..nodes).filter(move |&s| s != me);
        if from == Resume::Start {
            at.send(&self.flush, self.mode).await;
            self.flush.clear();
            at.verify(rel, batch).await;
            if !batch.is_empty() {
                return Some(Resume::Post);
            }
        }
        if matches!(from, Resume::Start | Resume::Post) {
            posts.clear();
            posts.extend(peers().map(|d| {
                let header = PacketHeader::dv_memory(me, d, slots + me as u32, SCRATCH_GC);
                Packet::new(header, owed[d] + 1)
            }));
            at.send(posts, CACHED_PIO).await;
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
