//! A pluggable distributed-transpose engine.
//!
//! The vorticity solver (and any other transpose-dominated spectral code)
//! is written once against [`TransposeEngine`]; the MPI engine exchanges
//! blocks with `alltoall`, the Data Vortex engine scatters every element
//! straight to its transposed position in the destination VICs' DV memory
//! (two alternating regions + group counters), which is the paper's
//! "data reordering and redistribution ... integrated with normal data
//! transfers without substantial additional overhead".

use dv_api::world::BlockWrite;
use dv_api::{DvCtx, SendMode};
use dv_core::config::ComputeParams;
use dv_core::Word;
use crate::fft::plan::{from_interleaved, gather_block, scatter_block, to_interleaved};
use crate::fft::Complex;
use crate::util::charge_mem_bytes;
use dv_sim::SimCtx;
use mini_mpi::{Comm, Payload};

use dv_api::coll as dvcoll;

/// A distributed matrix transpose between row-distributed layouts.
pub trait TransposeEngine {
    /// Transpose `local` (my `rows` rows of length `row_len`, row-major)
    /// into my rows of the transposed matrix (length `new_row_len`).
    fn transpose(
        &mut self,
        ctx: &SimCtx,
        local: &[Complex],
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
}

impl<'a> MpiTranspose<'a> {
    /// Wrap a communicator; `compute` is the spec's `machine.compute`.
    pub fn new(comm: &'a Comm, compute: ComputeParams) -> Self {
        Self { comm, compute }
    }
}

impl TransposeEngine for MpiTranspose<'_> {
    fn transpose(
        &mut self,
        ctx: &SimCtx,
        local: &[Complex],
        row_len: usize,
        new_row_len: usize,
    ) -> Vec<Complex> {
        let p = self.comm.size();
        let rows = local.len() / row_len;
        let my_new_rows = row_len / p; // my columns become rows
        let mut blocks: Vec<Payload> = Vec::with_capacity(p);
        for dst in 0..p {
            let block = gather_block(local, row_len, dst * my_new_rows, my_new_rows);
            blocks.push(Payload::C64(to_interleaved(&block)));
        }
        // Packing cost: one pass over the local data.
        charge_mem_bytes(ctx, &self.compute, (local.len() * 16) as u64);
        let incoming = self.comm.alltoall(ctx, blocks);
        let mut out = vec![Complex::zero(); my_new_rows * new_row_len];
        for (src, payload) in incoming.into_iter().enumerate() {
            let block = from_interleaved(&payload.into_c64());
            scatter_block(&mut out, new_row_len, src * rows, &block, my_new_rows);
        }
        // Unpacking cost: one pass over the received data.
        charge_mem_bytes(ctx, &self.compute, (out.len() * 16) as u64);
        out
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

/// Data Vortex engine: element-addressed scatter transposes through DV
/// memory. Two receive regions alternate by transpose parity; each is
/// split into pipeline chunks (row ranges) with their own group counters,
/// so the host drains row-range *k* while range *k+1* is still arriving —
/// the multi-buffered overlap the paper credits for DV FFT performance.
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

/// Inverse of the [`row_chunks`] partition.
fn chunk_of(row: usize, rows: usize) -> usize {
    let k = CHUNKS.min(rows).max(1);
    (0..k).find(|&c| row < (c + 1) * rows / k).unwrap_or(k - 1)
}

impl<'a> DvTranspose<'a> {
    /// First group counter of [`DvTranspose::new`] engines; parities use
    /// `GC_BASE + parity·CHUNKS + chunk`.
    pub const GC_BASE: u8 = 24;

    /// Build an engine for any number of square transposes and arm both
    /// parities. **Collective**: every node must construct it at the same
    /// point; it ends with a barrier. `max_local_elems` is the per-node
    /// transpose payload in complex elements (rows × row length);
    /// `compute` is the spec's `machine.compute`.
    pub fn new(
        dv: &'a DvCtx,
        ctx: &SimCtx,
        compute: ComputeParams,
        region_base: u32,
        max_local_elems: usize,
    ) -> Self {
        let p = dv.nodes();
        let m = ((max_local_elems * p) as f64).sqrt().round() as usize;
        assert_eq!(m * m, max_local_elems * p, "DvTranspose::new requires a square matrix");
        Self::armed(dv, ctx, compute, region_base, Self::GC_BASE, [(m / p, m); 2], true)
    }

    /// Build an engine for exactly two transposes — the first delivers
    /// `shapes[0] = (my rows, row length)` to this node, the second
    /// `shapes[1]` — whose counters `gc_base..gc_base + 2·CHUNKS` are
    /// armed here, once, and never again. **Collective**, ends with a
    /// barrier, like [`DvTranspose::new`].
    pub fn one_shot(
        dv: &'a DvCtx,
        ctx: &SimCtx,
        compute: ComputeParams,
        region_base: u32,
        gc_base: u8,
        shapes: [(usize, usize); 2],
    ) -> Self {
        Self::armed(dv, ctx, compute, region_base, gc_base, shapes, false)
    }

    /// Arm both parities' chunk counters, then synchronize so no data can
    /// outrun a preset (the discipline Section III prescribes).
    fn armed(
        dv: &'a DvCtx,
        ctx: &SimCtx,
        compute: ComputeParams,
        region_base: u32,
        gc_base: u8,
        shapes: [(usize, usize); 2],
        rearm: bool,
    ) -> Self {
        let elems = shapes[0].0 * shapes[0].1;
        assert_eq!(elems, shapes[1].0 * shapes[1].1, "both transposes move the same payload");
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
        local: &[Complex],
        row_len: usize,
        new_row_len: usize,
    ) -> Vec<Complex> {
        assert!(self.rearm || self.epoch < 2, "a one-shot DvTranspose serves two transposes");
        let half = self.halves[self.epoch % 2];
        self.epoch += 1;
        let me = self.dv.node();
        let rows = local.len() / row_len;
        let new_rows_per_node = row_len / self.dv.nodes();
        debug_assert_eq!((new_rows_per_node, new_row_len), (half.rows, half.row_len));
        // My rows become columns `my_col_offset..my_col_offset + rows` of
        // every new row.
        let my_col_offset = me * rows;

        // Scatter: column `col` of my block lands contiguously in the
        // destination's new row, at my column offset; the group counter is
        // chosen by the destination row chunk, each chunk shipping as its
        // own PCIe batch so network injection of chunk k overlaps the DMA
        // of chunk k+1. Columns that stay on this node never touch the
        // VIC: they are a plain host copy.
        let mut out = vec![Complex::zero(); new_rows_per_node * new_row_len];
        // One pass over the local data to form the scatter.
        charge_mem_bytes(ctx, &self.compute, (local.len() * 16) as u64);
        for c in 0..row_chunks(new_rows_per_node).len() {
            let mut blocks = Vec::new();
            for col in 0..row_len {
                let dest = col / new_rows_per_node;
                let new_row = col % new_rows_per_node;
                if chunk_of(new_row, new_rows_per_node) != c {
                    continue;
                }
                if dest == me {
                    for r in 0..rows {
                        out[new_row * new_row_len + my_col_offset + r] = local[r * row_len + col];
                    }
                    continue;
                }
                let column: Vec<Word> = (0..rows)
                    .flat_map(|r| {
                        let v = local[r * row_len + col];
                        [v.re.to_bits(), v.im.to_bits()]
                    })
                    .collect();
                let address = half.region + ((new_row * new_row_len + my_col_offset) * 2) as u32;
                blocks.push(BlockWrite { dest, address, gc: half.gc_base + c as u8, words: column });
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
            let words = self.dv.read_local(
                ctx,
                half.region + (r0 * new_row_len * 2) as u32,
                (r1 - r0) * new_row_len * 2,
            );
            for (i, pair) in words.chunks_exact(2).enumerate() {
                let row = r0 + i / new_row_len;
                let col = i % new_row_len;
                if col >= my_col_offset && col < my_col_offset + rows {
                    continue; // self columns were copied host-side
                }
                out[row * new_row_len + col] =
                    Complex::new(f64::from_bits(pair[0]), f64::from_bits(pair[1]));
            }
        }
        out
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
            // chunk_of agrees with the partition.
            for r in 0..rows {
                let c = chunk_of(r, rows);
                let (a, b) = chunks[c];
                assert!(r >= a && r < b, "rows={rows} r={r} c={c}");
            }
        }
    }

    #[test]
    fn mpi_transpose_is_correct() {
        let (m, p) = (16usize, 4usize);
        let outs = MpiCluster::from_spec(SimSpec::new(p))
            .run(move |comm, ctx| {
                let mut eng = MpiTranspose::new(comm, ComputeParams::default());
                eng.transpose(ctx, &local_input(comm.rank(), m, p), m, m)
            })
            .result;
        check_roundtrip_values(outs, m, p);
    }

    #[test]
    fn dv_transpose_is_correct() {
        let (m, p) = (16usize, 4usize);
        let outs = DvCluster::from_spec(SimSpec::new(p))
            .run(move |dv, ctx| {
                let mut eng = DvTranspose::new(dv, ctx, ComputeParams::default(), 4096, m * m / p);
                eng.transpose(ctx, &local_input(dv.node(), m, p), m, m)
            })
            .result;
        check_roundtrip_values(outs, m, p);
    }

    #[test]
    fn dv_double_transpose_is_identity() {
        let (m, p) = (16usize, 4usize);
        let ok = DvCluster::from_spec(SimSpec::new(p))
            .run(move |dv, ctx| {
                let mut eng = DvTranspose::new(dv, ctx, ComputeParams::default(), 4096, m * m / p);
                let input = local_input(dv.node(), m, p);
                let t = eng.transpose(ctx, &input, m, m);
                let tt = eng.transpose(ctx, &t, m, m);
                tt == input
            })
            .result;
        assert!(ok.into_iter().all(|b| b));
    }

    #[test]
    fn many_alternating_transposes_stay_correct() {
        // Exercises the parity re-arm across 10 epochs.
        let (m, p) = (8usize, 2usize);
        let ok = DvCluster::from_spec(SimSpec::new(p))
            .run(move |dv, ctx| {
                let mut eng = DvTranspose::new(dv, ctx, ComputeParams::default(), 4096, m * m / p);
                let input = local_input(dv.node(), m, p);
                let mut cur = input.clone();
                for _ in 0..5 {
                    let t = eng.transpose(ctx, &cur, m, m);
                    cur = eng.transpose(ctx, &t, m, m);
                }
                cur == input
            })
            .result;
        assert!(ok.into_iter().all(|b| b));
    }
}
