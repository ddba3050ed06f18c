//! A pluggable distributed-transpose engine.
//!
//! The vorticity solver (and any other transpose-dominated spectral code)
//! is written once against [`TransposeEngine`]; the MPI engine exchanges
//! blocks with `alltoall`, the Data Vortex engine scatters its columns into
//! the destination VICs' DV memory (two alternating regions + group
//! counters), which is the paper's "data reordering and redistribution ...
//! integrated with normal data transfers without substantial additional
//! overhead". Each pipeline chunk ships one tile per destination, and the
//! destination puts every element in its transposed position as it copies
//! the chunk out of DV memory — a copy it makes anyway, charged per word
//! either way. PCIe, switch and delivery costs depend only on word counts
//! and batch order, which the tiles keep, so where the placement happens
//! moves no virtual time.
//!
//! The host side of either engine is one buffer: the caller hands its
//! rows over by value and gets the same allocation back, the delivered
//! data unpacked over the input once nothing reads from it any more.

use dv_api::world::BlockWrite;
use dv_api::{DvCtx, SendMode};
use dv_core::config::ComputeParams;
use dv_core::Word;
use crate::fft::Complex;
use crate::util::charge_mem_bytes;
use dv_sim::SimCtx;
use mini_mpi::{Comm, Payload};

use dv_api::coll as dvcoll;

/// A distributed matrix transpose between row-distributed layouts.
pub trait TransposeEngine {
    /// Transpose `local` (my `rows` rows of length `row_len`, row-major)
    /// into my rows of the transposed matrix (length `new_row_len`),
    /// returned in `local`'s own allocation: the payload per node is the
    /// same in both layouts, and the engine owns the buffer in between.
    fn transpose(
        &mut self,
        ctx: &SimCtx,
        local: Vec<Complex>,
        row_len: usize,
        new_row_len: usize,
    ) -> Vec<Complex>;

    /// Sum a scalar across all nodes.
    fn allreduce_sum(&mut self, ctx: &SimCtx, x: f64) -> f64;

    /// My node index.
    fn node(&self) -> usize;

    /// Node count.
    fn nodes(&self) -> usize;

    /// Host compute rates of the machine this engine runs on (the
    /// spec's), so drivers written over the engine charge the same model.
    fn compute(&self) -> &ComputeParams;
}

/// MPI-backed engine.
pub struct MpiTranspose<'a> {
    /// The communicator.
    pub comm: &'a Comm,
    compute: ComputeParams,
    /// The blocks the previous transpose received: the next one packs
    /// into them (the same sizes by construction).
    spare: Vec<Vec<f64>>,
}

impl<'a> MpiTranspose<'a> {
    /// Wrap a communicator; `compute` is the spec's `machine.compute`.
    pub fn new(comm: &'a Comm, compute: ComputeParams) -> Self {
        Self { comm, compute, spare: Vec::new() }
    }
}

impl TransposeEngine for MpiTranspose<'_> {
    fn transpose(
        &mut self,
        ctx: &SimCtx,
        mut local: Vec<Complex>,
        row_len: usize,
        new_row_len: usize,
    ) -> Vec<Complex> {
        let p = self.comm.size();
        let rows = local.len() / row_len;
        // Anything else is a slice panic in the pack loop, or silently wrong columns.
        assert!(
            row_len.is_multiple_of(p) && rows * row_len == local.len() && new_row_len == rows * p,
            "{} elements are not rows of {row_len} that {p} ranks transpose into rows of {new_row_len}",
            local.len()
        );
        let my_new_rows = row_len / p; // my columns become rows
        // Columns `dst·my_new_rows..` of every local row, row-major,
        // interleaved straight into the message.
        let blocks: Vec<Payload> = (0..p)
            .map(|dst| {
                let cols = dst * my_new_rows..(dst + 1) * my_new_rows;
                let mut block = self.spare.pop().unwrap_or_default();
                block.clear();
                block.reserve_exact(2 * rows * my_new_rows);
                for row in local.chunks_exact(row_len) {
                    block.extend(row[cols.clone()].iter().flat_map(|v| [v.re, v.im]));
                }
                Payload::C64(block)
            })
            .collect();
        // Packing cost: one pass over the local data.
        charge_mem_bytes(ctx, &self.compute, (local.len() * 16) as u64);
        let incoming: Vec<Vec<f64>> =
            self.comm.alltoall(ctx, blocks).into_iter().map(Payload::into_c64).collect();
        // `src`'s row `i` becomes column `src·rows + i` of my new rows:
        // new-row-major, so each block fills one contiguous run per row.
        for (new_row, out) in local.chunks_exact_mut(new_row_len).enumerate() {
            for (out, block) in out.chunks_exact_mut(rows).zip(&incoming) {
                for (o, row) in out.iter_mut().zip(block.chunks_exact(2 * my_new_rows)) {
                    *o = Complex::new(row[2 * new_row], row[2 * new_row + 1]);
                }
            }
        }
        self.spare = incoming;
        // Unpacking cost: one pass over the received data.
        charge_mem_bytes(ctx, &self.compute, (local.len() * 16) as u64);
        local
    }

    fn allreduce_sum(&mut self, ctx: &SimCtx, x: f64) -> f64 {
        self.comm
            .allreduce(ctx, mini_mpi::ReduceOp::Sum, Payload::F64(vec![x]))
            .into_f64()[0]
    }

    fn node(&self) -> usize {
        self.comm.rank()
    }
    fn nodes(&self) -> usize {
        self.comm.size()
    }
    fn compute(&self) -> &ComputeParams {
        &self.compute
    }
}

/// Data Vortex engine: scatter transposes through DV memory, one tile per
/// pipeline chunk and destination. Two receive regions, the run's bulk
/// region of the [`Layout`](dv_api::Layout), alternate by transpose
/// parity; each is split into pipeline chunks (row ranges) with their own
/// group counters, so the host drains row-range *k* while range *k+1* is
/// still arriving — the multi-buffered overlap the paper credits for DV
/// FFT performance.
/// Both regions are DV memory; on the host the engine holds nothing
/// between transposes and, during one, only the caller's vector.
pub struct DvTranspose<'a> {
    /// The API handle.
    pub dv: &'a DvCtx,
    compute: ComputeParams,
    /// What each parity's transposes deliver to this node.
    halves: [Half; 2],
    /// Re-arm a chunk's counter as it is consumed (an engine reused
    /// across many transposes) or not (armed once, one transpose per
    /// parity). The re-arm is a PIO write: it costs virtual time.
    rearm: bool,
    epoch: usize,
}

/// The receive side of one parity.
#[derive(Clone, Copy)]
struct Half {
    /// DV-memory word address of the receive region.
    region: u32,
    /// First of the [`CHUNKS`] group counters.
    gc_base: u8,
    /// My rows of the transposed matrix.
    rows: usize,
    /// Their length.
    row_len: usize,
}

/// Pipeline chunks per transpose.
const CHUNKS: usize = 4;

/// Split `rows` local rows into up to [`CHUNKS`] contiguous ranges.
fn row_chunks(rows: usize) -> Vec<(usize, usize)> {
    let k = CHUNKS.min(rows).max(1);
    (0..k).map(|c| (c * rows / k, (c + 1) * rows / k)).filter(|(a, b)| b > a).collect()
}

impl<'a> DvTranspose<'a> {
    /// Build an engine for any number of square transposes and arm both
    /// parities. **Collective**: every node must construct it at the same
    /// point; it ends with a barrier. `max_local_elems` is the per-node
    /// transpose payload in complex elements (rows × row length);
    /// `compute` is the spec's `machine.compute`.
    pub fn new(dv: &'a DvCtx, ctx: &SimCtx, compute: ComputeParams, max_local_elems: usize) -> Self {
        let p = dv.nodes();
        let m = ((max_local_elems * p) as f64).sqrt().round() as usize;
        assert_eq!(m * m, max_local_elems * p, "DvTranspose::new requires a square matrix");
        Self::armed(dv, ctx, compute, [(m / p, m); 2], true)
    }

    /// Build an engine for exactly two transposes — the first delivers
    /// `shapes[0] = (my rows, row length)` to this node, the second
    /// `shapes[1]` — whose counters are armed here, once, and never
    /// again. **Collective**, ends with a barrier, like
    /// [`DvTranspose::new`].
    pub fn one_shot(dv: &'a DvCtx, ctx: &SimCtx, compute: ComputeParams, shapes: [(usize, usize); 2]) -> Self {
        Self::armed(dv, ctx, compute, shapes, false)
    }

    /// Arm both parities' chunk counters, then synchronize so no data can
    /// outrun a preset (the discipline Section III prescribes).
    fn armed(dv: &'a DvCtx, ctx: &SimCtx, compute: ComputeParams, shapes: [(usize, usize); 2], rearm: bool) -> Self {
        let elems = shapes[0].0 * shapes[0].1;
        assert_eq!(elems, shapes[1].0 * shapes[1].1, "both transposes move the same payload");
        // Page-aligned, so no lent run splits an element's word pair.
        let region_base = dv.layout().bulk(4 * elems);
        let gc_base = dv.layout().kernel_gcs(2 * CHUNKS).start;
        let half = |parity: usize| Half {
            region: region_base + (parity * 2 * elems) as u32,
            gc_base: gc_base + (parity * CHUNKS) as u8,
            rows: shapes[parity].0,
            row_len: shapes[parity].1,
        };
        let this = Self { dv, compute, halves: [half(0), half(1)], rearm, epoch: 0 };
        for half in &this.halves {
            for (c, (r0, r1)) in row_chunks(half.rows).into_iter().enumerate() {
                dv.gc_set_local(ctx, half.gc_base + c as u8, this.chunk_words(half, r0, r1));
            }
        }
        dv.barrier(ctx);
        this
    }

    /// Words a chunk's counter expects: its row range × the *remote* part
    /// of each row (own columns bypass the VIC).
    fn chunk_words(&self, half: &Half, r0: usize, r1: usize) -> u64 {
        let remote_cols = half.row_len - half.row_len / self.dv.nodes();
        ((r1 - r0) * remote_cols * 2) as u64
    }
}

impl TransposeEngine for DvTranspose<'_> {
    fn transpose(
        &mut self,
        ctx: &SimCtx,
        mut local: Vec<Complex>,
        row_len: usize,
        new_row_len: usize,
    ) -> Vec<Complex> {
        assert!(self.rearm || self.epoch < 2, "a one-shot DvTranspose serves two transposes");
        let half = self.halves[self.epoch % 2];
        self.epoch += 1;
        let me = self.dv.node();
        let rows = local.len() / row_len;
        let new_rows_per_node = row_len / self.dv.nodes();
        // Armed for another shape, the scatter below would land on wrong
        // DV-memory addresses and the counters would still reach zero.
        assert_eq!(
            (new_rows_per_node, new_row_len),
            (half.rows, half.row_len),
            "transpose shape differs from the one its receive region was armed for"
        );
        // My rows become columns `my_col_offset..my_col_offset + rows` of
        // every new row.
        let my_col_offset = me * rows;

        // Scatter: each destination row chunk ships as its own PCIe batch,
        // so network injection of chunk k overlaps the DMA of chunk k+1,
        // and carries one block per destination: the tile of my columns
        // for its new rows `r0..r1`, new-row-major, `rows` elements per new
        // row. It lands as tile `me` of the chunk's DV-memory range, which
        // holds the nodes' tiles in node order; the read-out below puts
        // each element in its transposed place. The chunk's words and
        // counter total are what `chunk_words` arms, and costs count only
        // words and batches, so how the tiles lie within the range moves
        // no virtual time. Columns that stay on this node never touch the
        // VIC: they wait in `own`, new-row-major, until `local` is free.
        let mut own: Vec<Complex> = Vec::with_capacity(new_rows_per_node * rows);
        // One pass over the local data to form the scatter.
        charge_mem_bytes(ctx, &self.compute, (local.len() * 16) as u64);
        for (c, (r0, r1)) in row_chunks(new_rows_per_node).into_iter().enumerate() {
            let tile = (r1 - r0) * rows;
            let mut blocks = Vec::with_capacity(self.dv.nodes() - 1);
            for dest in 0..self.dv.nodes() {
                let cols = dest * new_rows_per_node + r0..dest * new_rows_per_node + r1;
                let column = |col: usize| local[col..].iter().step_by(row_len);
                if dest == me {
                    cols.for_each(|col| own.extend(column(col)));
                    continue;
                }
                let mut words: Vec<Word> = Vec::with_capacity(2 * tile);
                for col in cols {
                    words.extend(column(col).flat_map(|v| [v.re.to_bits(), v.im.to_bits()]));
                }
                let address = half.region + (2 * (r0 * new_row_len + me * tile)) as u32;
                blocks.push(BlockWrite { dest, address, gc: half.gc_base + c as u8, words });
            }
            self.dv.write_blocks(ctx, blocks, SendMode::Dma { cached_headers: true });
        }

        // Collect chunk by chunk, overlapping the PCIe drain of range k
        // with the arrival of range k+1. A reusable engine re-arms each
        // chunk for this parity's next use (safe: a peer reaches its next
        // same-parity transpose only after consuming data we send
        // strictly later than this point).
        for (c, (r0, r1)) in row_chunks(new_rows_per_node).into_iter().enumerate() {
            let gc = half.gc_base + c as u8;
            let ok = self.dv.gc_wait_zero(ctx, gc, None);
            assert!(ok, "transpose chunk never completed");
            if self.rearm {
                self.dv.gc_set_local(ctx, gc, self.chunk_words(&half, r0, r1));
            }
            // The chunk's range is one run of DV memory: tile `src` holds
            // `src`'s `rows` columns of each new row `r0..r1`, in row
            // order. The copy out of it places every run of `rows` at
            // `src`'s column offset of its new row; the cursor `(src,
            // new_row, i)` carries over when a lent run ends mid-tile.
            let (mut src, mut new_row, mut i) = (0, r0, 0);
            let address = half.region + (2 * r0 * new_row_len) as u32;
            self.dv.lend_local(ctx, address, 2 * (r1 - r0) * new_row_len, |mut run| {
                while !run.is_empty() {
                    let n = (rows - i).min(run.len() / 2);
                    // Nobody writes my own tile.
                    if src != me {
                        let at = new_row * new_row_len + src * rows + i;
                        for (o, pair) in local[at..at + n].iter_mut().zip(run.chunks_exact(2)) {
                            *o = Complex::new(f64::from_bits(pair[0]), f64::from_bits(pair[1]));
                        }
                    }
                    run = &run[2 * n..];
                    i += n;
                    if i == rows {
                        (i, new_row) = (0, new_row + 1);
                        if new_row == r1 {
                            (new_row, src) = (r0, src + 1);
                        }
                    }
                }
            });
            for row in r0..r1 {
                let mine = row * new_row_len + my_col_offset;
                local[mine..mine + rows].copy_from_slice(&own[row * rows..(row + 1) * rows]);
            }
        }
        local
    }

    fn allreduce_sum(&mut self, ctx: &SimCtx, x: f64) -> f64 {
        dvcoll::allreduce_sum_f64(self.dv, ctx, x)
    }

    fn node(&self) -> usize {
        self.dv.node()
    }
    fn nodes(&self) -> usize {
        self.dv.nodes()
    }
    fn compute(&self) -> &ComputeParams {
        &self.compute
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_api::DvCluster;
    use mini_mpi::MpiCluster;
    use dv_core::spec::SimSpec;
    use dv_core::time::Time;

    /// Full distributed transpose equals the local transpose, both engines.
    fn check_roundtrip_values(outs: Vec<Vec<Complex>>, m: usize, p: usize) {
        // Input matrix element (r, c) = r*m + c (re), transposed: out row
        // j (global) has element (j, r) = r*m + j at column r.
        let rows_per = m / p;
        for (node, out) in outs.into_iter().enumerate() {
            for lr in 0..rows_per {
                let j = node * rows_per + lr;
                for r in 0..m {
                    let expect = (r * m + j) as f64;
                    assert_eq!(out[lr * m + r].re, expect, "node {node} lr {lr} r {r}");
                }
            }
        }
    }

    fn local_input(me: usize, m: usize, p: usize) -> Vec<Complex> {
        let rows_per = m / p;
        (0..rows_per * m)
            .map(|i| {
                let r = me * rows_per + i / m;
                let c = i % m;
                Complex::new((r * m + c) as f64, -((r * m + c) as f64))
            })
            .collect()
    }

    #[test]
    fn row_chunk_partition_is_exact() {
        for rows in [1usize, 2, 3, 4, 7, 16, 33] {
            let chunks = row_chunks(rows);
            assert_eq!(chunks[0].0, 0);
            assert_eq!(chunks.last().unwrap().1, rows);
            for w in chunks.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
        }
    }

    #[test]
    fn mpi_transpose_is_correct() {
        let (m, p) = (16usize, 4usize);
        let outs = MpiCluster::from_spec(SimSpec::new(p))
            .run(move |comm, ctx| {
                let mut eng = MpiTranspose::new(comm, ComputeParams::default());
                eng.transpose(ctx, local_input(comm.rank(), m, p), m, m)
            })
            .result;
        check_roundtrip_values(outs, m, p);
    }

    #[test]
    fn dv_transpose_is_correct() {
        let (m, p) = (16usize, 4usize);
        let outs = DvCluster::from_spec(SimSpec::new(p))
            .run(move |dv, ctx| {
                let mut eng = DvTranspose::new(dv, ctx, ComputeParams::default(), m * m / p);
                eng.transpose(ctx, local_input(dv.node(), m, p), m, m)
            })
            .result;
        check_roundtrip_values(outs, m, p);
    }

    #[test]
    fn dv_double_transpose_is_identity() {
        let (m, p) = (16usize, 4usize);
        let ok = DvCluster::from_spec(SimSpec::new(p))
            .run(move |dv, ctx| {
                let mut eng = DvTranspose::new(dv, ctx, ComputeParams::default(), m * m / p);
                let input = local_input(dv.node(), m, p);
                // The caller's copy survives: nothing aliases the buffer
                // the engine owns in between.
                let t = eng.transpose(ctx, input.clone(), m, m);
                let tt = eng.transpose(ctx, t, m, m);
                tt == input
            })
            .result;
        assert!(ok.into_iter().all(|b| b));
    }

    fn elem(i: usize, j: usize, c: usize) -> Complex {
        let x = (i * c + j) as f64;
        Complex::new(x, -x - 0.5)
    }

    /// Node `me`'s rows of the `r × c` matrix `elem`.
    fn rect_input(me: usize, r: usize, c: usize, p: usize) -> Vec<Complex> {
        let rows = r / p;
        (0..rows * c).map(|i| elem(me * rows + i / c, i % c, c)).collect()
    }

    /// Node `me`'s rows of its plain `c × r` transpose.
    fn rect_transposed(me: usize, r: usize, c: usize, p: usize) -> Vec<Complex> {
        let rows = c / p;
        (0..rows * r).map(|i| elem(i % r, me * rows + i / r, c)).collect()
    }

    #[test]
    fn both_engines_match_the_plain_transpose_on_non_square_shapes() {
        // `(p, r, c)`, then `(elapsed, OrderAudit hash)` of an r×c → c×r →
        // r×c round trip on each engine, as captured on the commit before
        // the pack/unpack loops were rewritten: the rewrite may not move a
        // block, a word or an event. The last two shapes leave a node one
        // row (fewer than `CHUNKS` receive chunks) on the way forth / back.
        type Pin = (Time, u64);
        const CASES: [(usize, usize, usize, Pin, Pin); 5] = [
            (2, 4, 16, (7770799, 0xd08cb8f0864c53ba), (3599766, 0x33c0a74b67cd2ef8)),
            (4, 8, 32, (8144679, 0xb8c21ca80b247745), (10763815, 0x085fef4476e5394c)),
            (8, 16, 64, (8950809, 0xda968c926c8b64a1), (25080935, 0xbea10c03feaaa63f)),
            (8, 32, 8, (7300238, 0x450a76da5244f6c1), (24223386, 0x2e3bdb239b22de4b)),
            (4, 4, 64, (7619231, 0xbd83965613bee1e6), (10763815, 0x085fef4476e5394c)),
        ];
        let mut actual = String::new();
        let mut moved = false;
        for (p, r, c, dv_pin, mpi_pin) in CASES {
            let dv = DvCluster::from_spec(SimSpec::new(p)).run(move |dv, ctx| {
                let shapes = [(c / p, r), (r / p, c)];
                let compute = ComputeParams::default();
                let mut eng = DvTranspose::one_shot(dv, ctx, compute, shapes);
                let input = rect_input(dv.node(), r, c, p);
                let t = eng.transpose(ctx, input.clone(), c, r);
                assert_eq!(t, rect_transposed(dv.node(), r, c, p), "dv p={p} {r}x{c}");
                assert_eq!(eng.transpose(ctx, t, r, c), input, "dv back p={p} {r}x{c}");
            });
            let mpi = MpiCluster::from_spec(SimSpec::new(p)).run(move |comm, ctx| {
                let mut eng = MpiTranspose::new(comm, ComputeParams::default());
                let input = rect_input(comm.rank(), r, c, p);
                let t = eng.transpose(ctx, input.clone(), c, r);
                assert_eq!(t, rect_transposed(comm.rank(), r, c, p), "mpi p={p} {r}x{c}");
                assert_eq!(eng.transpose(ctx, t, r, c), input, "mpi back p={p} {r}x{c}");
            });
            let (dv, mpi) = ((dv.elapsed, dv.trace_hash), (mpi.elapsed, mpi.trace_hash));
            moved |= (dv, mpi) != (dv_pin, mpi_pin);
            actual += &format!(
                "            ({p}, {r}, {c}, ({}, {:#018x}), ({}, {:#018x})),\n",
                dv.0, dv.1, mpi.0, mpi.1
            );
        }
        assert!(!moved, "virtual time or event trace moved; actual:\n{actual}");
    }

    /// Whether some DV-memory page boundary (`dv_vic::memory::PAGE_WORDS`
    /// = 4096 words) inside the two receive regions of an `m × m`
    /// transpose on `p` nodes falls inside a run of `m / p` elements, and
    /// so ends a lent run mid-tile and mid-row. The regions start on a
    /// page; chunks, tiles and runs all start at multiples of `m / p`
    /// elements.
    fn a_page_ends_mid_row(m: usize, p: usize) -> bool {
        let page_elems = 4096 / 2;
        let rows = m / p;
        (1..).map(|k| k * page_elems).take_while(|&e| e < 2 * rows * m).any(|e| e % rows != 0)
    }

    #[test]
    fn tiles_survive_page_boundaries_and_the_rearm() {
        // Three transposes through one reusable engine: parity 0, parity 1
        // (where the 72, 90 and 84 shapes' second regions cross a page
        // mid-row; 90 and 84 also have unequal chunks), then parity 0
        // again after its re-arm. The 40 and 48 shapes fit in one page.
        let shapes = [(72usize, 3usize), (40, 5), (48, 6), (90, 5), (84, 6)];
        assert_eq!(shapes.iter().filter(|&&(m, p)| a_page_ends_mid_row(m, p)).count(), 3);
        for (m, p) in shapes {
            DvCluster::from_spec(SimSpec::new(p)).run(move |dv, ctx| {
                let mut eng = DvTranspose::new(dv, ctx, ComputeParams::default(), m * m / p);
                let input = rect_input(dv.node(), m, m, p);
                let t = eng.transpose(ctx, input.clone(), m, m);
                assert_eq!(t, rect_transposed(dv.node(), m, m, p), "p={p} {m}x{m}");
                let back = eng.transpose(ctx, t.clone(), m, m);
                assert_eq!(back, input, "back p={p} {m}x{m}");
                assert_eq!(eng.transpose(ctx, back, m, m), t, "re-armed p={p} {m}x{m}");
            });
        }
    }

    #[test]
    #[should_panic(expected = "armed for")]
    fn one_shot_shapes_in_the_wrong_order_are_rejected() {
        // Release builds included: the check is an `assert!`.
        let (p, r, c) = (2usize, 4usize, 16usize);
        DvCluster::from_spec(SimSpec::new(p)).run(move |dv, ctx| {
            let swapped = [(r / p, c), (c / p, r)];
            let compute = ComputeParams::default();
            let mut eng = DvTranspose::one_shot(dv, ctx, compute, swapped);
            eng.transpose(ctx, rect_input(dv.node(), r, c, p), c, r);
        });
    }

    #[test]
    #[should_panic(expected = "are not rows of 6")]
    fn mpi_transpose_rejects_a_shape_it_cannot_split() {
        // Release builds included, like the DV engine's shape check: six
        // columns over four ranks used to ship wrong columns silently.
        MpiCluster::from_spec(SimSpec::new(4)).run(|comm, ctx| {
            let mut eng = MpiTranspose::new(comm, ComputeParams::default());
            eng.transpose(ctx, rect_input(comm.rank(), 8, 6, 4), 6, 8);
        });
    }

    #[test]
    fn many_alternating_transposes_stay_correct() {
        // Exercises the parity re-arm across 10 epochs.
        let (m, p) = (8usize, 2usize);
        let ok = DvCluster::from_spec(SimSpec::new(p))
            .run(move |dv, ctx| {
                let mut eng = DvTranspose::new(dv, ctx, ComputeParams::default(), m * m / p);
                let input = local_input(dv.node(), m, p);
                let mut cur = input.clone();
                for _ in 0..5 {
                    let t = eng.transpose(ctx, cur, m, m);
                    cur = eng.transpose(ctx, t, m, m);
                }
                cur == input
            })
            .result;
        assert!(ok.into_iter().all(|b| b));
    }
}
