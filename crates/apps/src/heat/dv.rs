//! Heat equation on the Data Vortex: halos written straight into the
//! neighbors' DV memory.
//!
//! "For the Data Vortex implementation, as in the previous case, we
//! re-structured the algorithm to take full advantage of the underlying
//! hardware features" (Section VII). The restructuring: every step, each
//! node writes its six boundary planes directly into per-face regions of
//! the neighbors' VIC memory (one DMA batch for all six), arrival is
//! tracked by one group counter per step parity, and the global-heat
//! diagnostic uses the DV-memory collective instead of an MPI allreduce.

use dv_api::coll as dvcoll;
use dv_api::world::BlockWrite;
use dv_api::{DvCluster, DvCtx, SendMode};
use dv_core::config::ComputeParams;
use dv_core::spec::SimSpec;
use dv_kernels::util::{spend, spend_mem_bytes};
use dv_sim::SimCtx;

use super::mpi::HeatRunResult;
use super::{Face, HeatConfig, LocalBlock};

fn max_face(cfg: &HeatConfig) -> u32 {
    let (nxl, nyl, nzl) = cfg.local();
    (nyl * nzl).max(nxl * nzl).max(nxl * nyl) as u32
}

/// Run the heat solver on the Data Vortex cluster described by `spec` —
/// compute rates, metrics and streaming come from the spec, so streaming
/// benches can watch halo-exchange traffic at virtual-time intervals.
pub fn run_spec(cfg: HeatConfig, spec: SimSpec) -> HeatRunResult {
    assert_eq!(spec.nodes, cfg.nodes(), "spec.nodes must match the grid");
    let compute = spec.machine.compute.clone();
    let report = DvCluster::from_spec(spec).run(move |dv, ctx| node(dv, ctx, cfg, &compute));
    let (elapsed, results) = (report.elapsed, report.result);
    let last_heat = results[0].1;
    HeatRunResult { elapsed, fields: results.into_iter().map(|(f, _)| f).collect(), last_heat }
}

/// One node's solver: its thread builds the block and reserves the ghost
/// buffer, then hands every step to the kernel as one body
/// ([`DvCtx::run`]), and takes back the interior and the last global heat.
fn node(dv: &DvCtx, ctx: &SimCtx, cfg: HeatConfig, compute: &ComputeParams) -> (Vec<f64>, f64) {
    let compute = compute.clone();
    // Parity-major ghost faces: each parity's six face regions are
    // contiguous so the receiver drains a step's ghosts in **one** DMA
    // read. One group counter per parity.
    let max_face = max_face(&cfg);
    let faces = dv.layout().bulk(12 * max_face as usize);
    let face_region = move |f: Face, parity: usize| faces + (parity * 6 + f.index()) as u32 * max_face;
    let halo_gc = dv.layout().kernel_gcs(2).start;
    let mut block = LocalBlock::new(&cfg, dv.node());
    let c = block.coords;
    let neighbor = move |f: Face| {
        let o = f.offset();
        cfg.node_at((c.0 as isize + o.0, c.1 as isize + o.1, c.2 as isize + o.2))
    };
    // Expected halo words per step = sum of present-neighbor faces.
    let expected: u64 = Face::ALL
        .iter()
        .filter(|&&f| neighbor(f).is_some())
        .map(|&f| block.face_len(f) as u64)
        .sum();
    let ghost_words = 6 * max_face as usize;
    let mut region = Vec::with_capacity(ghost_words);

    dv.run(ctx, move |at| async move {
        at.gc_set(halo_gc, expected).await;
        at.gc_set(halo_gc + 1, expected).await;
        at.barrier().await;
        let mut last_heat = 0.0;

        for step in 0..cfg.steps {
            let parity = step % 2;
            let gc = halo_gc + parity as u8;
            // One DMA batch carrying all six outgoing faces.
            let mut blocks = Vec::with_capacity(6);
            for f in Face::ALL {
                if let Some(n) = neighbor(f) {
                    let words: Vec<u64> = block.face(f).map(f64::to_bits).collect();
                    spend_mem_bytes(&at, &compute, 8 * words.len() as u64).await;
                    // It lands in the neighbor's ghost region for the
                    // opposite face.
                    blocks.push(BlockWrite { dest: n, address: face_region(f.opposite(), parity), gc, words });
                }
            }
            at.write_blocks(blocks, SendMode::Dma { cached_headers: true }).await;

            // Wait for my halos, re-arm the parity, pull ghosts to host.
            let ok = at.gc_wait(gc, None).await;
            assert!(ok, "halo exchange never completed");
            at.gc_set(gc, expected).await;
            // One DMA drains all six ghost planes (parity-major layout).
            // A plane may straddle the lent runs, so they are gathered
            // first, into the buffer every step reuses.
            region.clear();
            at.lend(face_region(Face::Xm, parity), ghost_words, |run| region.extend_from_slice(run)).await;
            for f in Face::ALL {
                if neighbor(f).is_some() {
                    let off = (f.index() as u32 * max_face) as usize;
                    let words = &region[off..off + block.face_len(f)];
                    spend_mem_bytes(&at, &compute, 8 * words.len() as u64).await;
                    block.set_ghost(f, words.iter().map(|&w| f64::from_bits(w)));
                }
            }

            block.step(cfg.r);
            spend(&at, block.cells() as u64, compute.stencil_mcups * 1e6).await;

            if (step + 1) % cfg.report_every == 0 {
                last_heat = dvcoll::allreduce_sum(&at, block.local_heat()).await;
            }
        }
        at.fast_barrier().await;
        (block.interior(), last_heat)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heat::mpi::{self, assemble};
    use crate::heat::{Halo, SerialHeat};

    #[test]
    fn dv_heat_matches_serial_exactly() {
        let cfg = HeatConfig::test_small();
        let r = run_spec(cfg, SimSpec::new(cfg.nodes()));
        let mut serial = SerialHeat::new(&cfg);
        for _ in 0..cfg.steps {
            serial.step();
        }
        assert_eq!(assemble(&cfg, &r.fields), serial.u);
    }

    #[test]
    fn a_node_reaches_its_thread_only_to_start_and_to_return() {
        // Every step — the face writes, the counter wait and re-arm, the
        // ghost read, compute charges, the heat allreduce — is one
        // kernel-run body.
        const NODES: usize = 32;
        let cfg = HeatConfig { n: (16, 16, 16), grid: (4, 4, 2), r: 0.1, steps: 4, report_every: 2, halo: Halo::Face };
        let spec = SimSpec::new(NODES);
        let compute = spec.machine.compute.clone();
        let report = DvCluster::from_spec(spec).run(move |dv, ctx| {
            node(dv, ctx, cfg, &compute);
            // The last node to read sees every node's handoffs.
            ctx.with_kernel(|k| k.sched_stats())
        });
        let stats = report.result.iter().max_by_key(|s| s.thread_resumes).expect("32 nodes");
        assert_eq!(stats.thread_resumes, 2 * NODES as u64, "{stats:?}");
        assert!(stats.resumes > 20 * stats.thread_resumes, "the body waits in the kernel: {stats:?}");
    }

    #[test]
    fn dv_and_mpi_agree_bitwise() {
        let cfg = HeatConfig { n: (16, 16, 8), grid: (2, 2, 2), r: 0.09, steps: 5, report_every: 2, halo: Halo::Line };
        let dv = run_spec(cfg, SimSpec::new(cfg.nodes()));
        let mpi = mpi::run(cfg);
        assert_eq!(assemble(&cfg, &dv.fields), assemble(&cfg, &mpi.fields));
        assert!((dv.last_heat - mpi.last_heat).abs() < 1e-9);
    }

    #[test]
    fn dv_heat_is_faster_than_mpi() {
        // Figure 9's "Heat" bar (~2.46x at 32 nodes); any clear win here.
        let cfg = HeatConfig { n: (16, 16, 16), grid: (2, 2, 2), r: 0.1, steps: 8, report_every: 4, halo: Halo::Line };
        let dv = run_spec(cfg, SimSpec::new(cfg.nodes()));
        let mpi = mpi::run(cfg);
        assert!(dv.elapsed < mpi.elapsed, "dv {} mpi {}", dv.elapsed, mpi.elapsed);
    }
}
