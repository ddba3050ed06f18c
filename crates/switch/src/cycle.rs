//! Cycle-accurate Data Vortex switch simulation.
//!
//! One simulation cycle moves every in-flight packet exactly one hop —
//! packets are never buffered inside the switch (the defining property of
//! the deflection design). Contention for a switching node is resolved by
//! the *deflection signal*: the same-cylinder input always wins and blocks
//! the outer-cylinder (descending) input, which must take its deflection
//! path instead, "slightly increasing routing latency without need for
//! buffers" (Section II).
//!
//! The only queues are at the injection ports (packets waiting to enter the
//! outermost cylinder), which is also where the real switch applies
//! backpressure.
//!
//! ## Hot-path layout
//!
//! [`SwitchSim`]'s `step_into` is the throughput bottleneck of every load
//! sweep, so it is built to do zero heap allocation per cycle
//! (`tests/switch_alloc.rs` proves it with a counting global allocator):
//!
//! * The node grid is one flat double-buffered `Vec<Slot>` arena indexed
//!   `[c * ports + a * H + h]`; the two buffers swap each cycle instead of
//!   reallocating, and neither is ever cleared — a cell's slot bytes are
//!   meaningful only while its occupancy bit is set, so stale slots simply
//!   lose.
//! * A per-cylinder `u64` occupancy bitmap, one bit per cell, is the single
//!   source of occupancy truth *and* the active worklist: the per-cycle
//!   cost scales with in-flight packets (plus an `O(ports/64)` word scan),
//!   not `cylinders × ports` slot reads, and the "is the inner cell free?"
//!   probe of the routing decision is a register-resident bit test instead
//!   of a random load into the next cylinder's arena. Iterating set bits
//!   LSB-first yields cells in ascending index order, which reproduces the
//!   `(a, h)` scan of the frozen reference implementation
//!   ([`crate::reference::ReferenceSwitchSim`]) bit-for-bit — the
//!   `Delivered` stream is identical, as `crates/switch/tests/equivalence.rs`
//!   asserts — without ever sorting anything. Words are consumed (zeroed)
//!   as they are scanned, so after the end-of-cycle swap the scratch side
//!   is already clear.
//! * Occupancy statistics are tracked by popcounting the bitmaps instead of
//!   rescanning every cell.
//! * The routing-invariant payload (ports, tag, timestamps) lives in a
//!   stable pool written once at injection and read once at ejection; the
//!   arena moves only a 12-byte `{pool handle, deflections, destination}`
//!   `Slot` per hop. Hop counts are not carried at all — a flit moves
//!   exactly one hop per in-flight cycle, so
//!   `hops = eject_cycle − inject_cycle − 1` (the equivalence suite checks
//!   this reproduces the reference's per-packet counts exactly).

use dv_core::metrics::MetricsRegistry;
use dv_core::stats::Log2Histogram;

use crate::engine::{hist, CycleEngine, Ingress, Names, Tally};
use crate::topology::Topology;

/// A packet's routing-invariant payload: written into the pool once at
/// injection, read back once at ejection. Nothing here changes while the
/// packet is in flight, so hops never copy it.
/// Port indices are `u16` (`Ingress::new` rejects switches past 2^16
/// ports) so the record is exactly 32 bytes: a random ejection-time pool
/// read then touches one cache line, never two.
#[derive(Debug, Clone, Copy)]
struct Flit {
    src_port: u16,
    dst_port: u16,
    tag: u64,
    inject_cycle: u64,
    enqueue_cycle: u64,
    /// Contention deflections suffered so far. The narrow and scalar-wide
    /// paths keep this count in the moving [`Slot`] instead (a slot write
    /// is cheaper there than a pool write); the batched wide path keeps
    /// the low 8 bits in the cache-resident `defl_counts` side array and
    /// spills only `u8` wrap-arounds here, so this field holds the count
    /// rounded down to a multiple of 256 until ejection reassembles the
    /// exact value.
    deflections: u32,
}

/// Placeholder payload for free pool entries (never read: a pool entry is
/// only consulted through a live slot's handle).
const EMPTY_FLIT: Flit =
    Flit { src_port: 0, dst_port: 0, tag: 0, inject_cycle: 0, enqueue_cycle: 0, deflections: 0 };

/// One arena cell: meaningful only while the cell's occupancy bit is set
/// (see the module docs — the bitmap is the single source of occupancy
/// truth, and neither arena buffer is ever cleared). 12 bytes, so a hop
/// moves 12 bytes instead of a whole packet record — and it carries the
/// destination coordinates, so routing a flit never has to chase its pool
/// handle.
///
/// Padded to 16 aligned bytes so a hop's slot copy is a single 16-byte
/// vector load and store.
#[derive(Debug, Clone, Copy)]
#[repr(align(16))]
struct Slot {
    /// Index of the packet's payload in the pool.
    handle: u32,
    /// Contention deflections suffered so far — the only per-packet state
    /// that mutates in flight, so it rides in the slot.
    deflections: u32,
    /// Destination height (duplicated from the pool: every hop's routing
    /// decision needs it, and a dependent pool load would stall the hop).
    dst_h: u16,
    /// Destination angle (same reasoning; read on the innermost cylinder).
    dst_a: u16,
}

/// A packet that reached its output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// Input port it entered through.
    pub src_port: usize,
    /// Output port it left through.
    pub dst_port: usize,
    /// Caller-supplied tag.
    pub tag: u64,
    /// Cycle the packet was queued at the input port.
    pub enqueue_cycle: u64,
    /// Cycle the packet entered the outermost cylinder.
    pub inject_cycle: u64,
    /// Cycle the packet left through its output port.
    pub eject_cycle: u64,
    /// Switching hops taken.
    pub hops: u32,
    /// Contention deflections suffered (blocked descents).
    pub deflections: u32,
}

impl Delivered {
    /// In-switch latency in cycles (injection to ejection).
    pub fn switch_cycles(&self) -> u64 {
        self.eject_cycle - self.inject_cycle
    }

    /// Total latency in cycles including input queueing.
    pub fn total_cycles(&self) -> u64 {
        self.eject_cycle - self.enqueue_cycle
    }
}

/// Movement kernel, resolved from the topology alone at construction. The
/// three make identical routing decisions and deliver bit-identical
/// [`Delivered`] streams (`tests/equivalence.rs`); each exists because it
/// is the only one, or the measurably fastest one, for its shapes. Two
/// merges were timed and rejected (`switch_sweep`'s four points per
/// network, best of 5, one pinned core): routing Vortex 64 through
/// `WideScalar` is 21–37 % slower (29.5 → 35.8 ms; 32 → 44 ms), and
/// u32-only pool handles cost Vortex 4096 up to 5 % (61 → 64.5 ms; within
/// noise on a re-run) — u32 stays as the only width past 2^16 cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// ≤ 64 ports: whole cylinder bitmap in one register.
    Narrow,
    /// Over 64 ports with height < 64, flit-at-a-time: a bitmap word
    /// spans several angles there, so the word-parallel pass does not
    /// apply.
    WideScalar,
    /// Over 64 ports and height ≥ 64: word-parallel bit-plane kernel, one
    /// descend/deflect decision per 64-cell occupancy word
    /// (FastLanes-style bit-plane arithmetic).
    WideBatched,
}

/// `PLANE_PAT[b]`: bit `i` set iff `i & (1 << b) != 0` — the value of
/// height bit `b` across the 64 cells of one occupancy word (heights run
/// LSB-first along a word when `height >= 64`).
const PLANE_PAT: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Masked plane *blend* for a later writer: lanes under `mask` take the
/// source, every other lane keeps what the first writer stored. Used by
/// the descend path, which lands on words the same-cylinder pass may
/// already have written this cycle.
#[inline(always)]
fn move_planes(dst: &mut [u64], src: &[u64], mask: u64) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d & !mask) | (*s & mask);
    }
}

/// Masked 64-lane handle blend (the handle analogue of [`move_planes`]):
/// dense masks take the if-converted select (vectorizes to masked
/// blends), sparse masks walk set bits.
#[inline(never)]
fn move_handles<T: Copy>(dst: &mut [T], src: &[T], mask: u64) {
    let dst: &mut [T; 64] = dst.try_into().expect("a word group is 64 handles");
    let src: &[T; 64] = src.try_into().expect("a word group is 64 handles");
    for i in 0..64 {
        if mask & 1 << i != 0 {
            dst[i] = src[i];
        }
    }
}

/// Straight down: the `mask` lanes of one word's planes and 64 handles land
/// on the same lanes one cylinder in, dropping the just-resolved plane `b`
/// — a blend, because the inner word's own pass already wrote there.
#[inline(always)]
fn descend<H: Copy>(
    dst_planes: &mut [u64],
    src_planes: &[u64],
    b: usize,
    dst_handles: &mut [H],
    src_handles: &[H],
    mask: u64,
) {
    let npl = src_planes.len();
    move_planes(&mut dst_planes[..b], &src_planes[..b], mask);
    move_planes(&mut dst_planes[b..npl - 1], &src_planes[b + 1..], mask);
    move_handles(&mut dst_handles[..64], src_handles, mask);
}

/// Charge a contention deflection to every `blocked` lane of one word's
/// 64 `handles`. The low byte lives in `defl_counts` — a handle-indexed
/// `u8` array the size of the cell count, small enough to stay
/// cache-resident, so the counts never touch the plane streams (the kernel
/// is bandwidth-bound; count planes would cost ~25% extra plane traffic).
/// A wrap past 255 — vanishingly rare even at saturation — spills 256 into
/// the pool. Callers run it before a deflection swap rewrites the handles.
#[inline(always)]
fn charge_blocked<H: PoolHandle>(
    blocked: u64,
    handles: &[H],
    defl_counts: &mut [u8],
    pool: &mut [Flit],
) {
    let mut bits = blocked;
    while bits != 0 {
        let h = handles[bits.trailing_zeros() as usize].idx();
        bits &= bits - 1;
        defl_counts[h] = defl_counts[h].wrapping_add(1);
        if defl_counts[h] == 0 {
            pool[h].deflections += 256;
        }
    }
}

/// Eject flit `p` at `cycle` with its exact `deflections`: both histogram
/// pushes and the [`Delivered`] record, shared by the three kernels.
#[inline(always)]
fn retire(
    p: &Flit,
    deflections: u32,
    cycle: u64,
    hop_hist: &mut Log2Histogram,
    deflection_hist: &mut Log2Histogram,
    out: &mut Vec<Delivered>,
) {
    // A flit moves exactly one hop per in-flight cycle, and the ejecting
    // cycle is not a hop.
    // dv-lint: allow(DV-W011, reason = "flight time is bounded by the run's cycle count, far below 2^32; Delivered.hops is u32 and this is the per-ejection hot loop")
    let hops = (cycle - p.inject_cycle - 1) as u32;
    hop_hist.push(hops as u64);
    deflection_hist.push(deflections as u64);
    out.push(Delivered {
        src_port: p.src_port as usize,
        dst_port: p.dst_port as usize,
        tag: p.tag,
        enqueue_cycle: p.enqueue_cycle,
        inject_cycle: p.inject_cycle,
        eject_cycle: cycle,
        hops,
        deflections,
    });
}

/// Pool-handle storage width for the batched kernel. The per-cell handle
/// arrays are the kernel's largest memory stream (three masked 64-lane
/// blends per occupancy word and cycle), so switches whose cell count
/// fits 16 bits — everything through kilo-port scale — store them as
/// `u16`, halving that traffic. The kernel core is generic over the
/// width; the simulation picks the storage at construction.
trait PoolHandle: Copy {
    /// The handle as a pool index.
    fn idx(self) -> usize;
    /// A freshly allocated handle, narrowed into this storage width.
    fn of(handle: u32) -> Self;
    /// Back to the `u32` free-list representation.
    fn widen(self) -> u32;
}

impl PoolHandle for u16 {
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
    #[inline(always)]
    fn of(handle: u32) -> Self {
        // u16 handle storage is only constructed when the pool size fits
        // 2^16 (see `SwitchSim::new`), so every allocated handle fits.
        handle as u16
    }
    #[inline(always)]
    fn widen(self) -> u32 {
        self as u32
    }
}

impl PoolHandle for u32 {
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
    #[inline(always)]
    fn of(handle: u32) -> Self {
        handle
    }
    #[inline(always)]
    fn widen(self) -> u32 {
        self
    }
}

/// Field borrows of [`SwitchSim`] threaded to [`batched_move`], which is
/// generic over the pool-handle width.
struct BatchedCtx<'a> {
    cylinders: usize,
    words: usize,
    wpa: usize,
    h_bits: usize,
    a_bits: usize,
    angles: usize,
    ports: usize,
    cycle: u64,
    rot: usize,
    plane_base: &'a [usize],
    occ: &'a mut [u64],
    planes: &'a mut [u64],
    pool: &'a mut [Flit],
    free_list: &'a mut Vec<u32>,
    defl_counts: &'a mut [u8],
    hop_hist: &'a mut Log2Histogram,
    deflection_hist: &'a mut Log2Histogram,
}

/// The batched word-parallel movement pass (see
/// [`SwitchSim::move_flits_wide_batched`] for the dispatch and the
/// module docs for the data layout). Returns `(ejected, contended)`.
///
/// ## The rotating origin: movement without an angle advance
///
/// Every Data Vortex hop advances the angle by exactly one — descend goes
/// `(c, a, h) -> (c+1, a+1, h)`, deflect `(c, a, h) -> (c, a+1, h ^ bit)`,
/// and the innermost circle `(a, h) -> (a+1, h)`. A uniform coordinate
/// shift applied to *everything* is not data movement, so this kernel
/// virtualizes it: physical angle column `p` holds logical angle
/// `(p + rot) % angles`, and `rot` advances by one per cycle instead of
/// any flit changing columns. Under the rotated frame the per-cycle data
/// movement collapses to:
///
/// * **circle** (innermost): the flit stays in the *same word* — zero
///   bytes move; only ejected lanes leave the occupancy word.
/// * **descend**: straight down — same word index, one cylinder in
///   (dropping the just-resolved dst_h plane), a masked blend.
/// * **deflect, `b < 6`**: an in-word swap of the `1 << b`-strided lane
///   halves — the word is rewritten in place.
/// * **deflect, `b >= 6`**: a full swap with the partner word
///   `hw ^ (1 << (b - 6))` in the same angle column — the two words
///   exchange their deflected populations at identical lanes.
///
/// That removes the double buffer entirely: the pass mutates the single
/// occupancy/plane/handle state in place. Write hazards are resolved
/// structurally — cylinders are processed innermost-first, so an outer
/// cylinder's descend blends into a word whose own pass is already
/// final; within a word, descents and blocked-count reads consume the
/// source *before* the deflection swap rewrites it; and `b >= 6` partner
/// words are processed jointly as a pair. Lanes a swap drags along that
/// hold no flit carry garbage, which the occupancy contract allows.
///
/// Decision parity with the scalar kernels is unchanged: same
/// innermost-first cylinder order, same descend/deflect predicate against
/// the inner cylinder's post-move occupancy, and ejections walk the
/// innermost cylinder in *logical* angle order (the rotation maps each
/// logical angle back to its physical column), so the `Delivered` stream
/// stays bit-identical to [`crate::reference::ReferenceSwitchSim`].
/// (Earlier shapes measured on the way here: a double-buffered
/// first-writer/pure-store pass peaked ~2.8x over the scalar wide loop,
/// and a two-pass decide/gather split that assembled each target word
/// exactly once was ~35% slower than that — at these state sizes the
/// planes are cache-resident, so extra sweeps cost more than the
/// destination re-reads they save. Keeping the flits still is what
/// breaks past 3x.)
#[inline(never)]
fn batched_move<H: PoolHandle>(
    ctx: BatchedCtx<'_>,
    handles: &mut [H],
    out: &mut Vec<Delivered>,
) -> (u64, u64) {
    let BatchedCtx {
        cylinders,
        words,
        wpa,
        h_bits,
        a_bits,
        angles,
        ports,
        cycle,
        rot,
        plane_base,
        occ,
        planes,
        pool,
        free_list,
        defl_counts,
        hop_hist,
        deflection_hist,
    } = ctx;
    let mut ejected = 0u64;
    let mut contended = 0u64;

    // Innermost cylinder first, exactly as in the scalar kernels: by the
    // time an outer cylinder claims its descent, the inner occupancy is
    // final, and ejections complete before any outer word is touched.
    {
        let c = cylinders - 1;
        let cbase = c * ports;
        let wbase = c * words;
        let npl = a_bits; // only the dst_a planes remain here
        // Walk logical angles ascending (mapping each back to its
        // physical column) so ejections pop in the reference's (a, h)
        // order.
        for la in 0..angles {
            let pa = la + angles - rot;
            let pa = if pa >= angles { pa - angles } else { pa };
            for hw in 0..wpa {
                let w = pa * wpa + hw;
                let occ_w = occ[wbase + w];
                if occ_w == 0 {
                    continue;
                }
                // Eject where every dst_a plane bit agrees with this
                // word's *logical* angle; everyone else circles on —
                // which under the rotating origin means: stays put.
                let spl = plane_base[c] + w * npl;
                let mut diff = 0u64;
                for q in 0..a_bits {
                    let want = if la >> q & 1 == 1 { !0u64 } else { 0 };
                    diff |= planes[spl + q] ^ want;
                }
                let eject = occ_w & !diff;
                occ[wbase + w] = occ_w & diff;
                if eject == 0 {
                    continue;
                }
                let src_cells = cbase + (w << 6);
                let mut bits = eject;
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let handle = handles[src_cells + i];
                    let h = handle.idx();
                    // Reassemble the exact deflection count: pool
                    // spills (multiples of 256) plus the low byte from
                    // the counts side array, cleared here so the handle
                    // re-enters the free list with a zero count.
                    let deflections = pool[h].deflections | defl_counts[h] as u32;
                    defl_counts[h] = 0;
                    retire(&pool[h], deflections, cycle, hop_hist, deflection_hist, out);
                    ejected += 1;
                    free_list.push(handle.widen());
                }
            }
        }
    }

    for c in (0..cylinders - 1).rev() {
        let b = h_bits - 1 - c; // height bit under scrutiny
        let cbase = c * ports;
        let wbase = c * words;
        // Pruned plane count for this cylinder: dst_h bits `0..=b` plus
        // the dst_a planes.
        let npl = h_bits - c + a_bits;
        let pbase = plane_base[c];
        // Split the flat state at the inner cylinder's boundary so the
        // descend blend can borrow source (this cylinder, `lo`) and
        // destination (the next one in, `hi`) simultaneously.
        let (pl_lo, pl_hi) = planes.split_at_mut(plane_base[c + 1]);
        let (hn_lo, hn_hi) = handles.split_at_mut((c + 1) * ports);
        // Deflection toggles height bit `b`. For `b < 6` it lies inside a
        // word, which is then its own partner: the deflection swaps its
        // `1 << b`-strided lane halves in place. For `b >= 6` deflections
        // from word `w` land at identical lanes of the partner word
        // `hw ^ (1 << (b - 6))` in the same angle column, and vice versa:
        // each pair is processed jointly, so the exchange is one full swap
        // after both sides' descents have consumed their sources.
        let in_word = b < 6;
        let m = if in_word { 0 } else { 1usize << (b - 6) };
        let sides = if in_word { 1 } else { 2 };
        for w0 in 0..words {
            if w0 & m != 0 {
                continue; // the low sibling drives the pair
            }
            let w1 = w0 | m;
            if occ[wbase + w0] | occ[wbase + w1] == 0 {
                continue;
            }
            let mut defl = [0u64; 2];
            for (side, w) in [w0, w1].into_iter().enumerate().take(sides) {
                let occ_w = occ[wbase + w];
                let spl = pbase + w * npl;
                // The current heights' bit `b` across this word is a
                // constant pattern ([`PLANE_PAT`] in-word; all-zeros on
                // the low sibling, all-ones on the high one); XOR against
                // the destinations' plane splits the word into matched
                // and mismatched lanes.
                let pat = if in_word { PLANE_PAT[b] } else { (side as u64).wrapping_neg() };
                let mism = (pat ^ pl_lo[spl + b]) & occ_w;
                let matched = occ_w & !mism;
                let t_in = wbase + words + w; // (c+1, same column)
                let inner = occ[t_in];
                let desc = matched & !inner;
                let blocked = matched & inner;
                defl[side] = blocked | mism;
                contended += blocked.count_ones() as u64;
                occ[t_in] = inner | desc;
                let cells = cbase + (w << 6);
                let src_hn = &hn_lo[cells..cells + 64];
                if desc != 0 {
                    descend(
                        &mut pl_hi[w * (npl - 1)..],
                        &pl_lo[spl..spl + npl],
                        b,
                        &mut hn_hi[w << 6..],
                        src_hn,
                        desc,
                    );
                }
                charge_blocked(blocked, src_hn, defl_counts, pool);
            }
            // Lanes without a deflected flit come along as garbage
            // (occupancy contract); the descents above already consumed
            // the sources, so the rewrite is safe.
            let (spl0, cells0) = (pbase + w0 * npl, cbase + (w0 << 6));
            if in_word {
                let (s, pat) = (1usize << b, PLANE_PAT[b]);
                occ[wbase + w0] = ((defl[0] & pat) >> s) | ((defl[0] & !pat) << s);
                if defl[0] != 0 {
                    for p in &mut pl_lo[spl0..spl0 + npl] {
                        let x = *p;
                        *p = ((x & pat) >> s) | ((x & !pat) << s);
                    }
                    // In-place block swap of the `s`-strided lane halves
                    // (`out[i] = in[i ^ s]`), no gathers and no temporary.
                    for blk in hn_lo[cells0..cells0 + 64].chunks_exact_mut(2 * s) {
                        let (lo, hi) = blk.split_at_mut(s);
                        lo.swap_with_slice(hi);
                    }
                }
            } else {
                // The exchange: each side's deflected lanes land at the
                // same lane of the partner, so a full swap of the plane
                // runs and handle groups is exact on live lanes.
                occ[wbase + w0] = defl[1];
                occ[wbase + w1] = defl[0];
                if defl[0] | defl[1] != 0 {
                    let (spl1, cells1) = (pbase + w1 * npl, cbase + (w1 << 6));
                    let (pa0, pa1) = pl_lo[spl0..spl1 + npl].split_at_mut(spl1 - spl0);
                    pa0[..npl].swap_with_slice(&mut pa1[..npl]);
                    let (ha0, ha1) = hn_lo[cells0..cells1 + 64].split_at_mut(cells1 - cells0);
                    ha0[..64].swap_with_slice(&mut ha1[..64]);
                }
            }
        }
    }

    (ejected, contended)
}

/// The cycle-accurate switch.
///
/// ```
/// use dv_switch::{CycleEngine, SwitchSim, Topology};
///
/// let topo = Topology::new(8, 4); // H=8, A=4 -> 32 ports, 4 cylinders
/// let mut sw = SwitchSim::new(topo);
/// sw.enqueue(0, 21, 7);
/// let delivered = sw.drain(1_000);
/// assert_eq!(delivered[0].dst_port, 21);
/// assert_eq!(delivered[0].deflections, 0); // empty switch never contends
/// ```
pub struct SwitchSim {
    topo: Topology,
    // Topology scalars hoisted out of the per-cycle loop at construction
    // (the step path never touches `topo` and never clones it).
    angles: usize,
    cylinders: usize,
    ports: usize,
    /// `height - 1` (height is a power of two): `h = cell & h_mask`.
    h_mask: usize,
    /// `log2(height)`: `a = cell >> h_shift`.
    h_shift: u32,
    /// `topo.height_mask(c)` for every routing cylinder.
    bit_masks: Vec<usize>,
    /// Resolved movement path (see [`Mode`]).
    mode: Mode,
    /// Bitmap words per angle, `height / 64` (batched mode only; heights
    /// are word-aligned there because `height >= 64` is a power of two).
    wpa: usize,
    /// Bits needed for an angle index (`0` when `angles == 1`).
    a_bits: u32,
    /// Current-cycle arena, `[c * ports + a * H + h]` (unused — empty —
    /// in batched mode, which moves handles and bit planes instead).
    cur: Vec<Slot>,
    /// Next-cycle arena (swapped with `cur` at the end of each step).
    nxt: Vec<Slot>,
    /// Batched mode: per-cell pool handles (same indexing as `cur`;
    /// meaningful only under a set occupancy bit). A single buffer: the
    /// rotating-origin kernel moves flits in place (see
    /// [`batched_move`]). Empty when the cell count fits `u16` —
    /// `handles16_cur` is used instead, halving the kernel's largest
    /// memory stream (see [`PoolHandle`]).
    handles_cur: Vec<u32>,
    /// Batched mode, narrow-handle variant (cell count ≤ 2^16).
    handles16_cur: Vec<u16>,
    /// Batched mode: the rotating angle origin. Physical angle column `p`
    /// of every cylinder holds logical angle `(p + rot) % angles`; the
    /// movement pass advances `rot` instead of moving every flit one
    /// angle forward (see [`batched_move`]). Always 0 in the other modes.
    rot: usize,
    /// Batched mode: per-packet contention-deflection counts (low byte),
    /// indexed by pool handle. One `u8` per cell keeps the whole array
    /// cache-resident at kilo-port scale, so blocked descents charge
    /// their deflection with a cheap increment instead of widening every
    /// word's plane run (the movement pass is memory-bandwidth-bound).
    /// Wraps past 255 spill `256` into the pool's `deflections`;
    /// ejection reassembles `pool | low byte` and clears the entry, so
    /// free handles always re-enter with a zero count.
    defl_counts: Vec<u8>,
    /// Batched mode: destination coordinates transposed into bit planes,
    /// laid out word-major with *pruned* per-cylinder plane sets. A flit
    /// in cylinder `c` has height bits `b+1..` already matched (`b =
    /// height_bits - 1 - c` is the bit under scrutiny), so cylinder `c`
    /// carries only `height_bits - c` dst_h planes (bits `0..=b`,
    /// LSB-first) followed by the `a_bits` dst_a planes — descending
    /// drops the just-matched plane, and the innermost cylinder carries
    /// only the angle planes. Cylinder `c`'s region starts at
    /// `plane_base[c]`; word `w`'s planes are the contiguous run
    /// `plane_base[c] + w * npl(c) ..` of length `npl(c) = height_bits -
    /// c + a_bits`. Word-major keeps one word's planes in 1–2 cache
    /// lines and lets the per-word move loops auto-vectorize. Like the
    /// arenas, plane bits are meaningful only under a set occupancy bit —
    /// the in-place swaps and blends leave garbage on unoccupied lanes,
    /// which therefore never leaks.
    planes_cur: Vec<u64>,
    /// Batched mode: start of cylinder `c`'s plane region (see
    /// `planes_cur`); `cylinders + 1` entries, the last the total length.
    plane_base: Vec<usize>,
    /// `u64` words per cylinder in the occupancy bitmaps.
    words: usize,
    /// Occupancy bitmap (and active worklist) for `cur`: bit `cell % 64`
    /// of word `c * words + cell / 64` is set iff the cell holds a live
    /// flit. LSB-first iteration visits cells in ascending `a * H + h`
    /// order; words are zeroed as they are consumed, so after the
    /// end-of-step swap the scratch side is already clear.
    occ_cur: Vec<u64>,
    /// Occupancy bitmap under construction for `nxt` (same layout).
    /// Narrow and scalar-wide modes only — the batched kernel mutates
    /// `occ_cur` in place (empty then).
    occ_nxt: Vec<u64>,
    /// Injection FIFOs. Injection scans `!occ_nxt & pending` — the ports
    /// that both hold a packet and face a free outermost-cylinder cell —
    /// instead of probing every port.
    ingress: Ingress,
    /// Stable packet-payload pool; slots refer into it by handle. Sized to
    /// the cell count (the maximum possible in-flight population), so a
    /// free handle always exists when injection finds a free cell.
    pool: Vec<Flit>,
    /// Free pool handles (LIFO).
    free: Vec<u32>,
    tally: Tally,
    // The deflection network's own accumulators, published beside the
    // tally's; like its histogram they cover the span since the last flush.
    deflection_hist: Log2Histogram,
    contention_deflections: u64,
    /// Per-cylinder sum of occupied cells over all cycles (cell-cycles).
    occupancy_sum: Vec<u64>,
}

const NAMES: Names =
    ["switch.cycle.cycles", "switch.cycle.injected", "switch.cycle.ejected", "switch.cycle.hops"];

impl SwitchSim {
    /// A switch with the given topology, empty. At most 2^16 ports.
    pub fn new(topo: Topology) -> Self {
        let ports = topo.ports();
        let ingress = Ingress::new(ports);
        let cylinders = topo.cylinders();
        let cells = ports * cylinders;
        let words = ports.div_ceil(64);
        let mode = if words == 1 {
            Mode::Narrow
        } else if topo.height >= 64 {
            Mode::WideBatched
        } else {
            Mode::WideScalar
        };
        let batched = mode == Mode::WideBatched;
        // Narrow (u16) pool handles whenever every cell index fits: the
        // handle arrays are the batched kernel's largest memory stream.
        let h16 = cells <= (u16::MAX as usize) + 1;
        let a_bits = if topo.angles <= 1 { 0 } else { (topo.angles - 1).ilog2() + 1 };
        let slot_cells = if batched { 0 } else { cells };
        // Pruned plane regions: cylinder `c` carries `height_bits - c`
        // dst_h planes plus the dst_a planes (see the `planes_cur` doc).
        let h_bits = topo.height_bits() as usize;
        let mut plane_base = Vec::new();
        let mut plane_words = 0;
        if batched {
            for c in 0..=cylinders {
                plane_base.push(plane_words);
                if c < cylinders {
                    plane_words += words * (h_bits - c + a_bits as usize);
                }
            }
        }
        let empty = Slot { handle: 0, deflections: 0, dst_h: 0, dst_a: 0 };
        Self {
            angles: topo.angles,
            cylinders,
            ports,
            h_mask: topo.height - 1,
            h_shift: topo.height_bits(),
            bit_masks: (0..cylinders - 1).map(|c| topo.height_mask(c)).collect(),
            mode,
            wpa: topo.height / 64,
            a_bits,
            cur: vec![empty; slot_cells],
            nxt: vec![empty; slot_cells],
            handles_cur: vec![0; if batched && !h16 { cells } else { 0 }],
            handles16_cur: vec![0; if batched && h16 { cells } else { 0 }],
            rot: 0,
            defl_counts: vec![0; if batched { cells } else { 0 }],
            planes_cur: vec![0; plane_words],
            plane_base,
            words,
            occ_cur: vec![0; ports.div_ceil(64) * cylinders],
            occ_nxt: vec![0; if batched { 0 } else { ports.div_ceil(64) * cylinders }],
            ingress,
            pool: vec![EMPTY_FLIT; cells],
            free: (0..cells as u32).collect(),
            topo,
            tally: Tally::new(&NAMES),
            deflection_hist: hist(),
            contention_deflections: 0,
            occupancy_sum: vec![0; cylinders],
        }
    }

    /// The switch's topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
}

impl CycleEngine for SwitchSim {
    fn cycle(&self) -> u64 {
        self.tally.cycle
    }

    fn outstanding(&self) -> usize {
        self.tally.in_flight + self.ingress.queued()
    }

    fn injected(&self) -> u64 {
        self.tally.injected
    }

    fn ejected(&self) -> u64 {
        self.tally.ejected
    }

    fn enqueue(&mut self, src_port: usize, dst_port: usize, tag: u64) {
        self.ingress.push(src_port, dst_port, tag, self.tally.cycle);
    }

    /// The allocation-free hot path: with `out` capacity pre-grown (one
    /// port can eject at most one packet per cycle), a step performs no
    /// heap allocation at all.
    fn step_into(&mut self, out: &mut Vec<Delivered>) {
        let words = self.words;
        match self.mode {
            Mode::Narrow => self.move_flits_narrow(out),
            Mode::WideScalar => self.move_flits_wide_scalar(out),
            Mode::WideBatched => self.move_flits_wide_batched(out),
        }

        // Injection last: an input port only fires into an empty cell of
        // the outermost cylinder (backpressure otherwise). Port index ==
        // cell index in cylinder 0 (`position_port(h, a) = a*H + h`), so
        // the free-port scan is `!occ & pending` over the post-movement
        // occupancy of cylinder 0.
        if self.ingress.queued() > 0 {
            let batched = self.mode == Mode::WideBatched;
            let h16 = !self.handles16_cur.is_empty();
            let n_planes = self.h_shift as usize + self.a_bits as usize;
            // Batched mode's `wpa` is a power of two (see the field doc).
            let wpa_shift = if batched { self.wpa.trailing_zeros() } else { 0 };
            for lw in 0..self.words {
                // Port indices are logical coordinates. Under the batched
                // kernel's rotating origin the backing word of cylinder 0
                // is the physical column of the port's angle; identity in
                // the other modes (where `occ_nxt` holds the built state).
                let pw = if batched {
                    let la = lw >> wpa_shift;
                    let hw = lw & (self.wpa - 1);
                    let pa = la + self.angles - self.rot;
                    let pa = if pa >= self.angles { pa - self.angles } else { pa };
                    pa * self.wpa + hw
                } else {
                    lw
                };
                let occ_w = if batched { self.occ_cur[pw] } else { self.occ_nxt[lw] };
                let mut bits = !occ_w & self.ingress.pending()[lw];
                if bits == 0 {
                    continue;
                }
                // Batched mode transposes destinations into per-word
                // register accumulators and commits each plane once per
                // word — saturated kilo-port injection admits dozens of
                // flits per word, so per-flit plane read-modify-writes
                // would dominate the phase.
                let mut wmask = 0u64;
                let mut set = [0u64; 16];
                while bits != 0 {
                    let lane = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let port = (lw << 6) | lane;
                    let q = self.ingress.pop(port);
                    self.tally.injected += 1;
                    self.tally.in_flight += 1;
                    let dst = q.dst_port as usize;
                    let handle = self.free.pop().expect("pool is sized to the cell count");
                    self.pool[handle as usize] = Flit {
                        // Checked conversions would put branches in the
                        // per-flit inject loop.
                        src_port: port as u16, // dv-lint: allow(DV-W011, reason = "port < ports <= 2^16: Ingress::new rejects wider switches")
                        dst_port: q.dst_port as u16, // dv-lint: allow(DV-W011, reason = "dst_port < ports <= 2^16: Ingress::push checks the port, Ingress::new the bound")
                        tag: q.tag,
                        inject_cycle: self.tally.cycle,
                        enqueue_cycle: q.enqueue_cycle,
                        deflections: 0,
                    };
                    let bit = 1u64 << lane;
                    wmask |= bit;
                    if batched {
                        // Plane `p` is exactly bit `p` of the destination
                        // port index (`dst = dst_a << h_shift | dst_h`).
                        for (b, m) in set[..n_planes].iter_mut().enumerate() {
                            *m |= bit * (dst >> b & 1) as u64;
                        }
                        if h16 {
                            self.handles16_cur[(pw << 6) | lane] = PoolHandle::of(handle);
                        } else {
                            self.handles_cur[(pw << 6) | lane] = handle;
                        }
                    } else {
                        self.nxt[port] = Slot {
                            handle,
                            deflections: 0,
                            // `port_position` via the hoisted mask/shift:
                            // height is a power of two, but a runtime `%`/`/`
                            // would still compile to real divisions.
                            // dv-lint: allow(DV-W011, reason = "masked to h_mask, and height <= ports <= 2^16 (Ingress::new); checked conversion would put a branch in the per-cycle inject loop")
                            dst_h: (dst & self.h_mask) as u16,
                            // dv-lint: allow(DV-W011, reason = "dst >> h_shift is an angle index < angles <= ports <= 2^16 (Ingress::new); checked conversion would put a branch in the per-cycle inject loop")
                            dst_a: (dst >> self.h_shift) as u16,
                        };
                    }
                }
                if batched {
                    self.occ_cur[pw] |= wmask;
                    // Commit the word's transposed destinations (one
                    // read-modify-write per plane — a blend, preserving
                    // the in-place survivors). Deflection counts need no
                    // reset: ejection zeroed the handle's `defl_counts`
                    // entry before freeing it.
                    let base = pw * n_planes;
                    for (b, pl) in self.planes_cur[base..base + n_planes].iter_mut().enumerate() {
                        *pl = (*pl & !wmask) | set[b];
                    }
                } else {
                    self.occ_nxt[lw] |= wmask;
                }
            }
        }

        // Commit: the next buffer becomes current. The consumed bitmap is
        // already all-zero, so after the swap it is ready to be next
        // cycle's scratch; occupancy is popcounted off the bitmaps instead
        // of rescanning the arena. The narrow movement path already
        // accumulated cylinders 1.. while their words were in registers,
        // leaving only cylinder 0 (injection just changed it). The batched
        // kernel has nothing to commit — it moved everything in place.
        if self.mode != Mode::WideBatched {
            std::mem::swap(&mut self.cur, &mut self.nxt);
            std::mem::swap(&mut self.occ_cur, &mut self.occ_nxt);
        }
        if words == 1 {
            self.occupancy_sum[0] += self.occ_cur[0].count_ones() as u64;
        } else {
            for (c, sum) in self.occupancy_sum.iter_mut().enumerate() {
                *sum += self.occ_cur[c * words..(c + 1) * words]
                    .iter()
                    .map(|w| w.count_ones() as u64)
                    .sum::<u64>();
            }
        }
        self.tally.cycle += 1;
    }

    /// Statistics go under `switch.cycle.*`. Histograms cover delivered
    /// packets; occupancy is reported per cylinder both as raw cell-cycles
    /// and as the mean fraction of occupied cells per cycle.
    fn flush_metrics(&mut self, metrics: &MetricsRegistry) {
        if let Some(cycles) = self.tally.flush(metrics) {
            self.publish_deflection(metrics, cycles);
            self.deflection_hist = hist();
            self.contention_deflections = 0;
            self.occupancy_sum.fill(0);
        }
    }
}

/// The movement phase of one cycle — walk every cylinder's occupancy
/// bitmap innermost-first, moving (or ejecting) each live flit — once per
/// [`Mode`].
impl SwitchSim {
    /// Movement phase for switches of at most 64 ports (`words == 1`),
    /// where a cylinder's whole occupancy bitmap is a single `u64`.
    ///
    /// Scanning innermost-first, only two occupancy words are ever live at
    /// once — the one being built for the cylinder under scan
    /// (deflections and circles) and the finished one of the cylinder
    /// inside it (the descend target) — so both stay in registers for the
    /// whole pass and `occ_nxt` is written once per cylinder. The descend
    /// "is the inner cell free?" probe and the occupancy updates are plain
    /// register ALU ops; per-move memory traffic is one slot load and one
    /// slot store.
    ///
    /// Extracted `#[inline(never)]`: inlined into `step_into`'s (and its
    /// callers') much larger frame the register allocator spills the loop
    /// state to the stack and the hot loop runs ~40% slower. The routing
    /// decision is branchless — `select_unpredictable` picks the descend
    /// vs. deflect target arithmetically, because contention outcomes are
    /// data-dependent and mispredict badly under load.
    #[inline(never)]
    fn move_flits_narrow(&mut self, out: &mut Vec<Delivered>) {
        let h_mask = self.h_mask;
        let h_shift = self.h_shift;
        let angles = self.angles;
        let ports = self.ports;
        let cycle = self.tally.cycle;
        let cur = &self.cur[..];
        let nxt = &mut self.nxt[..];
        let occ_cur = &mut self.occ_cur[..];
        let occ_nxt = &mut self.occ_nxt[..];
        let pool = &self.pool[..];
        let free_list = &mut self.free;
        let hop_hist = &mut self.tally.hop_hist;
        let deflection_hist = &mut self.deflection_hist;
        let occupancy_sum = &mut self.occupancy_sum[..];
        let mut ejected = 0u64;
        let mut contended = 0u64;

        // Occupancy of the cylinder just inside the one under scan; for
        // the cylinder under scan, deflections and circles accumulate in
        // `occ_this` and descents into `occ_inner`.
        let mut occ_inner = 0u64;
        for c in (0..self.cylinders).rev() {
            let innermost = c == self.cylinders - 1;
            let base = c * ports;
            let mut bits = std::mem::take(&mut occ_cur[c]);
            let mut occ_this = 0u64;
            if innermost {
                while bits != 0 {
                    let cell = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let slot = cur[base + cell];
                    let h = cell & h_mask;
                    let a = cell >> h_shift;
                    let a1 = if a + 1 == angles { 0 } else { a + 1 };
                    debug_assert_eq!(h, slot.dst_h as usize);
                    if a == slot.dst_a as usize {
                        let p = &pool[slot.handle as usize];
                        retire(p, slot.deflections, cycle, hop_hist, deflection_hist, out);
                        ejected += 1;
                        free_list.push(slot.handle);
                    } else {
                        let tgt = (a1 << h_shift) | h;
                        debug_assert_eq!(occ_this >> tgt & 1, 0);
                        nxt[base + tgt] = slot;
                        occ_this |= 1 << tgt;
                    }
                }
            } else {
                let bmask = self.bit_masks[c];
                while bits != 0 {
                    let cell = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let slot = cur[base + cell];
                    let h = cell & h_mask;
                    let a = cell >> h_shift;
                    let a1 = if a + 1 == angles { 0 } else { a + 1 };
                    let matched = (h ^ slot.dst_h as usize) & bmask == 0;
                    let probe = (a1 << h_shift) | h;
                    let free = occ_inner >> probe & 1 == 0;
                    let descend = matched & free;
                    let defl = (matched & !free) as u32;
                    contended += defl as u64;
                    let xm = std::hint::select_unpredictable(descend, 0, bmask);
                    let off = std::hint::select_unpredictable(descend, ports, 0);
                    let tgt = (a1 << h_shift) | (h ^ xm);
                    nxt[base + off + tgt] =
                        Slot { deflections: slot.deflections + defl, ..slot };
                    let down = (descend as u64).wrapping_neg();
                    let bit = 1u64 << tgt;
                    debug_assert_eq!((occ_inner & down | occ_this & !down) & bit, 0);
                    occ_inner |= bit & down;
                    occ_this |= bit & !down;
                }
                // The inner cylinder can no longer gain flits: publish it,
                // and record its end-of-cycle occupancy while the word is
                // still in a register (cylinder 0 is summed after
                // injection instead — see `step_into`'s commit).
                occ_nxt[c + 1] = occ_inner;
                occupancy_sum[c + 1] += occ_inner.count_ones() as u64;
            }
            occ_inner = occ_this;
        }
        occ_nxt[0] = occ_inner;
        self.tally.ejected += ejected;
        self.tally.in_flight -= ejected as usize;
        self.contention_deflections += contended;
    }

    /// Flit-at-a-time movement phase for switches wider than 64 ports
    /// (multi-word occupancy bitmaps); same algorithm as
    /// [`SwitchSim::move_flits_narrow`] with the occupancy words read and
    /// written in memory. See that method for the layout and codegen
    /// commentary.
    ///
    /// Serves wide switches with `height < 64` (see [`Mode`]).
    #[inline(never)]
    fn move_flits_wide_scalar(&mut self, out: &mut Vec<Delivered>) {
        let words = self.words;
        let h_mask = self.h_mask;
        let h_shift = self.h_shift;
        let angles = self.angles;
        let ports = self.ports;
        let cycle = self.tally.cycle;
        // Disjoint local reborrows: every data pointer stays in a register
        // (a store through one slice provably cannot alias another, which
        // indexing through `self` would not guarantee).
        let cur = &self.cur[..];
        let nxt = &mut self.nxt[..];
        let occ_cur = &mut self.occ_cur[..];
        let occ_nxt = &mut self.occ_nxt[..];
        let pool = &self.pool[..];
        let free_list = &mut self.free;
        let hop_hist = &mut self.tally.hop_hist;
        let deflection_hist = &mut self.deflection_hist;
        let mut ejected = 0u64;
        let mut contended = 0u64;

        // Inner cylinders first: same-cylinder movement has priority (it
        // carries the deflection signal), so by the time an outer cylinder
        // tries to descend, the inner cylinder's claims are final.
        for c in (0..self.cylinders).rev() {
            let innermost = c == self.cylinders - 1;
            let bmask = if innermost { 0 } else { self.bit_masks[c] };
            let base = c * ports;
            let wbase = c * words;
            for w in 0..words {
                // Consume the word (leaving it clear for after the swap);
                // LSB-first set-bit iteration matches the reference's
                // ascending (a, h) cell scan.
                let mut bits = std::mem::take(&mut occ_cur[wbase + w]);
                let cell_base = w << 6;
                while bits != 0 {
                    let cell = cell_base | bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let slot = cur[base + cell];
                    let h = cell & h_mask;
                    let a = cell >> h_shift;
                    let a1 = if a + 1 == angles { 0 } else { a + 1 };
                    if innermost {
                        debug_assert_eq!(
                            h,
                            slot.dst_h as usize,
                            "innermost height must be matched"
                        );
                        if a == slot.dst_a as usize {
                            let p = &pool[slot.handle as usize];
                            retire(p, slot.deflections, cycle, hop_hist, deflection_hist, out);
                            ejected += 1;
                            free_list.push(slot.handle);
                        } else {
                            // Circle toward the output angle.
                            let tgt = (a1 << h_shift) | h;
                            debug_assert_eq!(occ_nxt[wbase + (tgt >> 6)] >> (tgt & 63) & 1, 0);
                            nxt[base + tgt] = slot;
                            occ_nxt[wbase + (tgt >> 6)] |= 1 << (tgt & 63);
                        }
                    } else {
                        // Descend if the height bit under scrutiny matches
                        // and the inner cell is free; otherwise stay in the
                        // cylinder on the deflection path (toggling the
                        // bit), counting a contention deflection when the
                        // deflection signal — not a bit mismatch — forced
                        // it. The freeness probe is a bit test on the inner
                        // cylinder's occupancy word — no arena load.
                        let matched = (h ^ slot.dst_h as usize) & bmask == 0;
                        let probe = (a1 << h_shift) | h;
                        let free =
                            occ_nxt[wbase + words + (probe >> 6)] >> (probe & 63) & 1 == 0;
                        let descend = matched & free;
                        let defl = (matched & !free) as u32;
                        contended += defl as u64;
                        let xm = std::hint::select_unpredictable(descend, 0, bmask);
                        let off = std::hint::select_unpredictable(descend, ports, 0);
                        let woff = std::hint::select_unpredictable(descend, words, 0);
                        let tgt = (a1 << h_shift) | (h ^ xm);
                        debug_assert_eq!(
                            occ_nxt[wbase + woff + (tgt >> 6)] >> (tgt & 63) & 1,
                            0,
                            "same-cylinder moves cannot conflict"
                        );
                        nxt[base + off + tgt] =
                            Slot { deflections: slot.deflections + defl, ..slot };
                        occ_nxt[wbase + woff + (tgt >> 6)] |= 1 << (tgt & 63);
                    }
                }
            }
        }
        self.tally.ejected += ejected;
        self.tally.in_flight -= ejected as usize;
        self.contention_deflections += contended;
    }

    /// Word-parallel movement phase for wide switches with `height >= 64`:
    /// one descend/deflect decision per 64-cell occupancy word instead of
    /// per flit.
    ///
    /// With `height >= 64` every occupancy word lies inside a single
    /// angle, heights ascending LSB-first along it, so a cylinder's
    /// routing question — "does height bit `b` match the destination
    /// bit?" — is answered for all 64 cells at once: the current heights'
    /// bit `b` across a word is a constant pattern ([`PLANE_PAT`] for
    /// `b < 6`, all-zeros/all-ones by the word's height base otherwise),
    /// and the destinations' bit `b` is exactly the transposed plane
    /// word. One XOR yields the mismatch mask, one probe of the inner
    /// cylinder's occupancy word splits the matched bits into descents
    /// and blocked deflections, and all claims commit with word-wide
    /// ORs. Plane payloads move under the same masks — a deflection is
    /// an in-word swap of the `1 << b`-strided halves for `b < 6`, or a
    /// straight retarget to the partner word for `b >= 6`. Only
    /// pool-handle copies, ejections, and blocked-flit deflection counts
    /// fall back to per-set-bit scalar work.
    ///
    /// Decision parity with [`SwitchSim::move_flits_wide_scalar`] is
    /// structural: same innermost-first cylinder order, same ascending
    /// cell order within a cylinder (words ascending, ejections
    /// LSB-first), same descend/deflect predicate, and same-cylinder
    /// claims are injective, so word-batching cannot reorder contention.
    /// `tests/equivalence.rs` pins the `Delivered` stream bit-identical
    /// against the frozen reference at H = 128/256.
    fn move_flits_wide_batched(&mut self, out: &mut Vec<Delivered>) {
        // Disjoint field borrows for the generic core, as in the scalar
        // kernels; the handle width (see [`PoolHandle`]) picks the
        // instantiation.
        let ctx = BatchedCtx {
            cylinders: self.cylinders,
            words: self.words,
            wpa: self.wpa,
            h_bits: self.h_shift as usize,
            a_bits: self.a_bits as usize,
            angles: self.angles,
            ports: self.ports,
            cycle: self.tally.cycle,
            rot: self.rot,
            plane_base: &self.plane_base,
            occ: &mut self.occ_cur,
            planes: &mut self.planes_cur,
            pool: &mut self.pool,
            free_list: &mut self.free,
            defl_counts: &mut self.defl_counts,
            hop_hist: &mut self.tally.hop_hist,
            deflection_hist: &mut self.deflection_hist,
        };
        let (ejected, contended) = if self.handles16_cur.is_empty() {
            batched_move(ctx, &mut self.handles_cur, out)
        } else {
            batched_move(ctx, &mut self.handles16_cur, out)
        };
        // Every move just advanced its flit's logical angle by one; the
        // rotating origin absorbs all of them at once.
        self.rot += 1;
        if self.rot == self.angles {
            self.rot = 0;
        }
        self.tally.ejected += ejected;
        self.tally.in_flight -= ejected as usize;
        self.contention_deflections += contended;
    }

    /// The deflection network's own statistics over the `cycles` since
    /// the previous [`CycleEngine::flush_metrics`].
    fn publish_deflection(&self, metrics: &MetricsRegistry, cycles: u64) {
        metrics.incr("switch.cycle.contention_deflections", self.contention_deflections);
        metrics.observe_histogram("switch.cycle.deflections", &[], &self.deflection_hist);
        for (c, &sum) in self.occupancy_sum.iter().enumerate() {
            metrics.incr_labeled("switch.cycle.occupancy_cell_cycles", &[("cyl", c.into())], sum);
            if cycles > 0 {
                let cells = (self.ports as u64 * cycles) as f64;
                metrics.gauge_labeled(
                    "switch.cycle.mean_occupancy",
                    &[("cyl", c.into())],
                    sum as f64 / cells,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_metrics_reports_hops_and_occupancy() {
        let mut sw = SwitchSim::new(Topology::new(8, 4));
        sw.enqueue(0, 21, 7);
        sw.enqueue(3, 9, 8);
        let delivered = sw.drain(1_000);
        assert_eq!(delivered.len(), 2);
        let m = MetricsRegistry::enabled();
        sw.flush_metrics(&m);
        let s = m.snapshot();
        assert_eq!(s.counter("switch.cycle.injected", &[]), Some(2));
        assert_eq!(s.counter("switch.cycle.ejected", &[]), Some(2));
        let hops = s
            .histograms()
            .iter()
            .find(|((n, _), _)| n == "switch.cycle.hops")
            .map(|(_, h)| h.total)
            .unwrap();
        assert_eq!(hops, 2);
        // Every cylinder reports an occupancy counter.
        let cyls = sw.topology().cylinders();
        let occ = s
            .counters()
            .iter()
            .filter(|((n, _), _)| n == "switch.cycle.occupancy_cell_cycles")
            .count();
        assert_eq!(occ, cyls);
        // A disabled registry stays empty.
        let off = MetricsRegistry::disabled();
        sw.flush_metrics(&off);
        assert!(off.snapshot().is_empty());
    }

    #[test]
    #[should_panic(expected = "at most 65536 ports")]
    fn more_than_65536_ports_is_rejected() {
        // 131072 ports used to build and then truncate port indices to
        // `u16` in flight: 70000 -> 100001 arrived as 4464 -> 34465.
        SwitchSim::new(Topology::new(32, 4096));
    }
}
