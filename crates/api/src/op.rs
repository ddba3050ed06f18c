//! DV's blocking calls that park more than once, run as kernel steps.
//!
//! A call here — [`DvCtx::barrier`](crate::DvCtx::barrier),
//! [`DvCtx::fast_barrier`](crate::DvCtx::fast_barrier), and the recovery
//! layer's drain, epoch close, and post wait — is a [`Call`] executed by
//! [`SimCtx::wait_in_kernel`]: the node's thread parks once, each later
//! resume of the node runs the call on in kernel context, and the thread
//! runs again only when the call returns or has words to hand the
//! application (the epoch close's `deliver` runs on the thread, because a
//! kernel's `deliver` charges virtual time). Each closing phase of BFS or
//! GUPS is then one handoff per delivery instead of one per poll.
//!
//! Between two resumes a call does exactly what the node's thread did
//! between the same two parks, side effect for side effect: the same
//! events in the same order, the same PCIe and port reservations, VIC
//! reads, tracer spans and `api.*` metrics, and the same panics. Each
//! blocked state is one dv-sim turn, re-run on every resume: a charged
//! delay or transfer is a [`Kernel::until`], a condition wait a
//! [`Kernel::turn`] — the turn [`SimCtx::wait_for`] loops over on the
//! thread. `tests/dv_wait_traces.rs` pins the traces the thread-run calls
//! produced.
//!
//! Waits that park once (`gc_wait_zero`, `fifo_recv_deadline`, `delay`,
//! `wait_until`, a single send) stay on the thread: a step would save
//! nothing there. They share with the steps the `DvWorld` helpers below,
//! which do what a call does at one instant.

use std::sync::Arc;

use dv_core::packet::{Packet, PacketHeader, PAYLOAD_BYTES, SCRATCH_GC};
use dv_core::time::{self, Time};
use dv_core::trace::State;
use dv_core::{NodeId, Word};
use dv_sim::{Call, Kernel, Pid, SimCtx, Waker};

use crate::ctx::{group_by_dest, SendMode, DMA_ENQUEUE, FIFO_POP, STATUS_POLL};
use crate::layout::VERIFY_GC;
use crate::reliable::{ReliableFifo, DRAIN_CHUNK, QUERY_TIMEOUT};
use crate::world::DvWorld;

/// Run `call` until it returns, the calling thread parked throughout;
/// gives the call back with its output.
pub(crate) fn run<C: Call>(call: C, ctx: &SimCtx) -> (C, C::Out) {
    ctx.wait_in_kernel(call)
}

/// The node a call runs for.
pub(crate) struct At {
    pub(crate) world: Arc<DvWorld>,
    pub(crate) node: NodeId,
}

// ----------------------------------------------------------------------
// What a DvCtx call does at one instant: shared by the thread-run calls
// and the steps.
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

    /// `n` words of `node`'s pushed status page at `address`.
    pub(crate) fn status_words(&self, node: NodeId, address: u32, n: usize) -> Vec<Word> {
        let page = self.layout.status_page_words;
        assert!(
            (address as usize + n) <= page,
            "peek_local only covers the pushed status page (first {page} words)"
        );
        let mut out = vec![0; n];
        self.vics[node].lock().memory.read_range(address, &mut out);
        out
    }
}

// ----------------------------------------------------------------------
// Sub-steps: one blocking piece of a call each. `poll` returns `None`
// while the piece is parked.
// ----------------------------------------------------------------------

/// `send_packets`: the PCIe wait, then the transmit.
struct SendStep(Option<Sending>);

impl SendStep {
    fn start(at: &At, k: &Kernel, packets: &[Packet], mode: SendMode) -> Self {
        Self(Some(at.world.start_send(k.now(), at.node, packets, mode)))
    }

    fn poll(&mut self, at: &At, k: &mut Kernel, pid: Pid) -> Option<()> {
        let until = self.0.as_ref().expect("a finished send is not polled").until;
        if !k.until(pid, until) {
            return None;
        }
        at.world.finish_send(k, at.node, self.0.take().expect("checked above"));
        Some(())
    }
}

/// `gc_wait_zero(gc, deadline)`, begun at `t0`: `true` on zero.
struct GcStep {
    gc: u8,
    deadline: Option<Time>,
    t0: Time,
}

impl GcStep {
    fn poll(&self, at: &At, k: &mut Kernel, pid: Pid) -> Option<bool> {
        let (world, node, gc) = (&at.world, at.node, self.gc);
        let ok = k.turn(pid, self.deadline, || world.gc_zero(node, gc), |w| world.gc_register(node, gc, w))?.is_some();
        world.gc_waited(node, self.t0, k.now(), ok);
        Some(ok)
    }
}

/// `peek_local`: the status poll's charge, from its first poll, then the
/// read.
#[derive(Default)]
struct PeekStep {
    until: Option<Time>,
}

impl PeekStep {
    fn poll(&mut self, at: &At, k: &mut Kernel, pid: Pid, address: u32, n: usize) -> Option<Vec<Word>> {
        let until = *self.until.get_or_insert(k.now() + STATUS_POLL);
        k.until(pid, until).then(|| at.world.status_words(at.node, address, n))
    }
}

/// The recovery layer's drain: each host transfer of up to
/// [`DRAIN_CHUNK`] words, then their admission, until the FIFO is empty.
#[derive(Default)]
struct DrainStep {
    /// The chunk in flight: where it starts in `out`, when its DMA ends.
    chunk: Option<(usize, Time)>,
}

impl DrainStep {
    fn poll(&mut self, at: &At, k: &mut Kernel, pid: Pid, rel: &mut ReliableFifo, out: &mut Vec<Word>) -> Option<()> {
        loop {
            if let Some((start, end)) = self.chunk {
                if !k.until(pid, end) {
                    return None;
                }
                self.chunk = None;
                rel.admit_drained(&at.world, out, start);
            }
            let start = out.len();
            match at.world.drain_start(k.now(), at.node, DRAIN_CHUNK, out) {
                Some(end) => self.chunk = Some((start, end)),
                None => return Some(()),
            }
        }
    }
}

/// A blocking pop of the next *new* surprise word, or `None` once
/// `within` has passed since its first poll; duplicates are discarded
/// without satisfying it.
struct RecvStep {
    within: Time,
    deadline: Option<Time>,
    /// A popped word and the end of its pop charge.
    popped: Option<(Time, Word)>,
}

impl RecvStep {
    fn new(within: Time) -> Self {
        Self { within, deadline: None, popped: None }
    }

    fn poll(&mut self, at: &At, k: &mut Kernel, pid: Pid, rel: &mut ReliableFifo) -> Option<Option<Word>> {
        let deadline = *self.deadline.get_or_insert(k.now() + self.within);
        loop {
            if let Some((until, w)) = self.popped {
                if !k.until(pid, until) {
                    return None;
                }
                self.popped = None;
                if rel.admit(&at.world, w) {
                    rel.received += 1;
                    return Some(Some(w));
                }
                rel.stats.dup_discarded += 1;
                continue;
            }
            let (world, node) = (&at.world, at.node);
            let Some((_, w)) = k.turn(pid, Some(deadline), || world.fifo_pop(node), |w| world.fifo_register(node, w))?
            else {
                return Some(None);
            };
            self.popped = Some((k.now() + FIFO_POP, w));
        }
    }
}

/// [`ReliableFifo::verify_epoch`]'s parallel acknowledgment round: preset
/// [`VERIFY_GC`], query every destination at once, wait for the replies
/// (or the timeout), and read them — or, on a timeout, drain our FIFO.
/// It ends with the destinations this epoch sent to; the ones still short
/// take the serial retransmission path on the thread.
#[derive(Default)]
struct AckStep {
    dests: Vec<NodeId>,
    wait: AckWait,
}

#[derive(Default)]
enum AckWait {
    #[default]
    Start,
    Preset(Time),
    Query(SendStep),
    Replies(GcStep),
    Read(Time),
    Drain(DrainStep),
}

impl AckStep {
    fn poll(
        &mut self,
        at: &At,
        k: &mut Kernel,
        pid: Pid,
        rel: &mut ReliableFifo,
        sink: &mut Vec<Word>,
    ) -> Option<Vec<NodeId>> {
        let (me, nodes) = (rel.me, rel.nodes);
        let replies = at.world.layout.verify_replies;
        loop {
            match &mut self.wait {
                AckWait::Start => {
                    self.dests = (0..nodes).filter(|&d| rel.wire_epoch[d] > 0).collect();
                    if self.dests.is_empty() {
                        return Some(Vec::new());
                    }
                    self.wait = AckWait::Preset(k.now() + at.world.config.pcie.pio_write_latency);
                }
                AckWait::Preset(until) => {
                    if !k.until(pid, *until) {
                        return None;
                    }
                    at.world.vics[me].lock().set_counter(k, VERIFY_GC, self.dests.len() as u64);
                    // Stale replies of earlier rounds are monotonic-safe: an
                    // old count can only look like a shortfall, which the
                    // serial path then re-checks; late ones may drive
                    // VERIFY_GC negative, which the next preset overwrites.
                    let my_slot = at.world.layout.accepted + me as u32;
                    let queries: Vec<Packet> = self
                        .dests
                        .iter()
                        .map(|&d| {
                            let ret = PacketHeader::dv_memory(d, me, replies + d as u32, VERIFY_GC);
                            Packet::new(PacketHeader::query(me, d, my_slot), ret.encode())
                        })
                        .collect();
                    rel.stats.ack_queries += queries.len() as u64;
                    let mode = SendMode::DirectWrite { cached_headers: true };
                    self.wait = AckWait::Query(SendStep::start(at, k, &queries, mode));
                }
                AckWait::Query(send) => {
                    send.poll(at, k, pid)?;
                    let deadline = Some(k.now() + QUERY_TIMEOUT);
                    self.wait = AckWait::Replies(GcStep { gc: VERIFY_GC, deadline, t0: k.now() });
                }
                AckWait::Replies(gc) => {
                    if gc.poll(at, k, pid)? {
                        self.wait = AckWait::Read(at.world.read_end(k.now(), me, nodes));
                    } else {
                        rel.stats.ack_query_timeouts += 1;
                        self.wait = AckWait::Drain(DrainStep::default());
                    }
                }
                AckWait::Read(until) => {
                    if !k.until(pid, *until) {
                        return None;
                    }
                    let mut vals = Vec::with_capacity(nodes);
                    at.world.vics[me].lock().memory.lend_range(replies, nodes, |run| vals.extend_from_slice(run));
                    for &d in &self.dests {
                        let hw = vals[d];
                        if hw == rel.hw_confirmed[d] + rel.wire_epoch[d] {
                            rel.hw_confirmed[d] = hw;
                            rel.wire_epoch[d] = 0;
                        }
                    }
                    return Some(std::mem::take(&mut self.dests));
                }
                AckWait::Drain(drain) => {
                    drain.poll(at, k, pid, rel, sink)?;
                    return Some(std::mem::take(&mut self.dests));
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// The calls
// ----------------------------------------------------------------------

/// [`DvCtx::barrier`](crate::DvCtx::barrier): the setup charge, the
/// arrival, then the release — at the hardware wave's end for the last
/// arrival, at the epoch's change for the others.
pub(crate) struct Barrier {
    at: At,
    t0: Time,
    wait: BarrierWait,
}

enum BarrierWait {
    Start,
    Setup(Time),
    Release(Time),
    Epoch(u64),
}

impl Barrier {
    pub(crate) fn new(at: At) -> Self {
        Self { at, t0: 0, wait: BarrierWait::Start }
    }
}

impl Call for Barrier {
    type Out = ();

    fn step(&mut self, k: &mut Kernel, pid: Pid) -> Option<()> {
        let at = &self.at;
        loop {
            self.wait = match self.wait {
                BarrierWait::Start => {
                    self.t0 = k.now();
                    BarrierWait::Setup(k.now() + at.world.config.dv.barrier_setup)
                }
                BarrierWait::Setup(t) => {
                    if !k.until(pid, t) {
                        return None;
                    }
                    let mut b = at.world.barrier.lock();
                    let my_epoch = b.epoch;
                    b.count += 1;
                    if b.count < at.world.nodes() {
                        BarrierWait::Epoch(my_epoch)
                    } else {
                        b.count = 0;
                        b.epoch += 1;
                        let release_at = k.now() + at.world.config.dv.barrier_hw;
                        let ws = std::mem::take(&mut b.waiters);
                        drop(b);
                        k.call_at(release_at, move |k| ws.wake_all(k));
                        BarrierWait::Release(release_at)
                    }
                }
                BarrierWait::Release(t) => {
                    if !k.until(pid, t) {
                        return None;
                    }
                    break;
                }
                BarrierWait::Epoch(my_epoch) => {
                    let barrier = &at.world.barrier;
                    k.turn(
                        pid,
                        None,
                        || (barrier.lock().epoch != my_epoch).then_some(()),
                        |w| barrier.lock().waiters.register(w),
                    )?;
                    break;
                }
            };
        }
        at.world.tracer.span(at.node, State::Barrier, self.t0, k.now());
        Some(())
    }
}

/// [`DvCtx::fast_barrier`](crate::DvCtx::fast_barrier) past its packet
/// build: the sends, the wait for this parity's counter, its re-arm.
pub(crate) struct FastBarrier {
    at: At,
    t0: Time,
    gc: u8,
    packets: Vec<Packet>,
    wait: FastWait,
}

enum FastWait {
    Start,
    Send(SendStep),
    Zero(GcStep),
}

impl FastBarrier {
    pub(crate) fn new(at: At, gc: u8, packets: Vec<Packet>) -> Self {
        Self { at, t0: 0, gc, packets, wait: FastWait::Start }
    }
}

impl Call for FastBarrier {
    type Out = ();

    fn step(&mut self, k: &mut Kernel, pid: Pid) -> Option<()> {
        let at = &self.at;
        loop {
            match &mut self.wait {
                FastWait::Start => {
                    self.t0 = k.now();
                    let mode = SendMode::DirectWrite { cached_headers: true };
                    self.wait = FastWait::Send(SendStep::start(at, k, &self.packets, mode));
                }
                FastWait::Send(send) => {
                    send.poll(at, k, pid)?;
                    self.wait = FastWait::Zero(GcStep { gc: self.gc, deadline: None, t0: k.now() });
                }
                FastWait::Zero(gc) => {
                    let ok = gc.poll(at, k, pid)?;
                    debug_assert!(ok, "fast barrier counter must reach zero");
                    break;
                }
            }
        }
        // Re-arm this parity for its next use (safe: nobody can re-enter
        // the same parity before every node passed the *other* one).
        let rearm = (at.world.nodes() - 1) as u64;
        at.world.vics[at.node].lock().set_counter(k, self.gc, rearm);
        at.world.tracer.span(at.node, State::Barrier, self.t0, k.now());
        Some(())
    }
}

/// [`ReliableFifo::drain_unique`]'s drain into `out`.
pub(crate) struct Drain {
    at: At,
    pub(crate) rel: ReliableFifo,
    pub(crate) out: Vec<Word>,
    drain: DrainStep,
}

impl Drain {
    pub(crate) fn new(at: At, rel: ReliableFifo, out: Vec<Word>) -> Self {
        Self { at, rel, out, drain: DrainStep::default() }
    }
}

impl Call for Drain {
    type Out = ();

    fn step(&mut self, k: &mut Kernel, pid: Pid) -> Option<()> {
        self.drain.poll(&self.at, k, pid, &mut self.rel, &mut self.out)
    }
}

/// [`ReliableFifo::verify_epoch`]'s acknowledgment round, drained words
/// into `sink`; returns the destinations this epoch sent to.
pub(crate) struct Verify {
    at: At,
    pub(crate) rel: ReliableFifo,
    pub(crate) sink: Vec<Word>,
    ack: AckStep,
}

impl Verify {
    pub(crate) fn new(at: At, rel: ReliableFifo, sink: Vec<Word>) -> Self {
        Self { at, rel, sink, ack: AckStep::default() }
    }
}

impl Call for Verify {
    type Out = Vec<NodeId>;

    fn step(&mut self, k: &mut Kernel, pid: Pid) -> Option<Vec<NodeId>> {
        self.ack.poll(&self.at, k, pid, &mut self.rel, &mut self.sink)
    }
}

/// How long a wait on the peers' posts may go without a new post or a
/// new word before it names the peers that never posted: a hundred
/// accepted-count query timeouts. A peer's acknowledgment round panics on
/// its own sooner (eight timeouts per query, twelve empty retransmission
/// windows in a row), so a peer silent for this long is stuck, not slow,
/// and a run that would poll for it forever ends here instead.
pub(crate) const POST_STALL: Time = 100 * QUERY_TIMEOUT;

/// What a wait on the peers' posts ([`Close`], [`Posts`]) last saw move:
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
    fn poll(&mut self, now: Time, me: NodeId, posted: &[Word], received: u64) -> Time {
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

/// Where [`Close`] hands its node's thread the token.
pub(crate) enum Closed {
    /// Deliver [`Close::batch`] (never empty) and empty it, then run on.
    Deliver,
    /// These destinations are still short after the acknowledgment round:
    /// retransmit on the thread (draining into [`Close::batch`]), close
    /// the epoch log, then run on.
    Shortfall(Vec<NodeId>),
    /// The epoch is complete: the new words it received.
    Done(u64),
}

/// [`ReliableFifo::complete_epoch`]: the flush, the acknowledgment round,
/// the count posts, then drain until every promised word is in.
pub(crate) struct Close {
    at: At,
    pub(crate) rel: ReliableFifo,
    /// The aggregator's buffered packets (emptied once sent).
    pub(crate) flush: Vec<Packet>,
    mode: SendMode,
    /// What each peer is owed this epoch.
    owed: Vec<u64>,
    /// Words for the thread to deliver.
    pub(crate) batch: Vec<Word>,
    progress: Progress,
    phase: Phase,
}

enum Phase {
    Flush(Option<SendStep>),
    Ack(AckStep),
    /// Deliver what the acknowledgment round drained (the retransmission
    /// path's too), then post.
    Verified,
    Post(SendStep),
    Drain(DrainStep),
    Peek(PeekStep),
    Recv(RecvStep),
}

impl Close {
    pub(crate) fn new(at: At, rel: ReliableFifo, flush: Vec<Packet>, mode: SendMode) -> Self {
        let mut owed = vec![0u64; rel.nodes];
        for &d in &rel.epoch_dest {
            owed[usize::from(d)] += 1;
        }
        Self { at, rel, flush, mode, owed, batch: Vec::new(), progress: Progress::default(), phase: Phase::Flush(None) }
    }
}

impl Call for Close {
    type Out = Closed;

    fn step(&mut self, k: &mut Kernel, pid: Pid) -> Option<Closed> {
        let at = &self.at;
        let rel = &mut self.rel;
        let (me, nodes, slots) = (rel.me, rel.nodes, at.world.layout.epoch_counts);
        let peers = move || (0..nodes).filter(move |&s| s != me);
        loop {
            match &mut self.phase {
                Phase::Flush(send) => {
                    if send.is_none() && !self.flush.is_empty() {
                        *send = Some(SendStep::start(at, k, &self.flush, self.mode));
                        self.flush.clear();
                    }
                    if let Some(send) = send {
                        send.poll(at, k, pid)?;
                    }
                    self.phase = Phase::Ack(AckStep::default());
                }
                Phase::Ack(ack) => {
                    let dests = ack.poll(at, k, pid, rel, &mut self.batch)?;
                    self.phase = Phase::Verified;
                    if dests.iter().any(|&d| rel.wire_epoch[d] > 0) {
                        return Some(Closed::Shortfall(dests));
                    }
                    rel.end_epoch();
                }
                Phase::Verified => {
                    if !self.batch.is_empty() {
                        // The thread delivers, then comes back here.
                        return Some(Closed::Deliver);
                    }
                    let posts: Vec<Packet> = peers()
                        .map(|d| {
                            let header = PacketHeader::dv_memory(me, d, slots + me as u32, SCRATCH_GC);
                            Packet::new(header, self.owed[d] + 1)
                        })
                        .collect();
                    let mode = SendMode::DirectWrite { cached_headers: true };
                    self.phase = if posts.is_empty() {
                        Phase::Drain(DrainStep::default())
                    } else {
                        Phase::Post(SendStep::start(at, k, &posts, mode))
                    };
                }
                Phase::Post(send) => {
                    send.poll(at, k, pid)?;
                    self.phase = Phase::Drain(DrainStep::default());
                }
                Phase::Drain(drain) => {
                    drain.poll(at, k, pid, rel, &mut self.batch)?;
                    self.phase = Phase::Peek(PeekStep::default());
                    if !self.batch.is_empty() {
                        return Some(Closed::Deliver);
                    }
                }
                Phase::Peek(peek) => {
                    let posted = peek.poll(at, k, pid, slots, nodes)?;
                    let idle = self.progress.poll(k.now(), me, &posted, rel.received);
                    if peers().all(|s| posted[s] != 0) {
                        let expected: u64 = peers().map(|s| posted[s] - 1).sum();
                        if rel.received == expected {
                            return Some(Closed::Done(std::mem::take(&mut rel.received)));
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
                    self.phase = Phase::Recv(RecvStep::new(time::us(2)));
                }
                Phase::Recv(recv) => {
                    let word = recv.poll(at, k, pid, rel)?;
                    self.phase = Phase::Drain(DrainStep::default());
                    if let Some(w) = word {
                        self.batch.push(w);
                        return Some(Closed::Deliver);
                    }
                }
            }
        }
    }
}

/// [`ReliableFifo::await_posts`]: poll a status-page block until every
/// peer has posted, discarding stray duplicates for 1 µs between polls.
pub(crate) struct Posts {
    at: At,
    pub(crate) rel: ReliableFifo,
    address: u32,
    progress: Progress,
    phase: PostsPhase,
}

enum PostsPhase {
    Peek(PeekStep),
    Recv(RecvStep),
}

impl Posts {
    pub(crate) fn new(at: At, rel: ReliableFifo, address: u32) -> Self {
        Self { at, rel, address, progress: Progress::default(), phase: PostsPhase::Peek(PeekStep::default()) }
    }
}

impl Call for Posts {
    type Out = Vec<Word>;

    fn step(&mut self, k: &mut Kernel, pid: Pid) -> Option<Vec<Word>> {
        let (at, rel) = (&self.at, &mut self.rel);
        let (me, nodes) = (rel.me, rel.nodes);
        loop {
            self.phase = match &mut self.phase {
                PostsPhase::Peek(peek) => {
                    let slots = peek.poll(at, k, pid, self.address, nodes)?;
                    if (0..nodes).filter(|&s| s != me).all(|s| slots[s] != 0) {
                        return Some(slots);
                    }
                    self.progress.poll(k.now(), me, &slots, rel.received);
                    PostsPhase::Recv(RecvStep::new(time::us(1)))
                }
                PostsPhase::Recv(recv) => {
                    // Anything buffered here is a retransmission duplicate:
                    // every new word was drained before the posts went out.
                    let stray = recv.poll(at, k, pid, rel)?;
                    debug_assert!(stray.is_none(), "new word arrived after its epoch completed");
                    PostsPhase::Peek(PeekStep::default())
                }
            };
        }
    }
}
