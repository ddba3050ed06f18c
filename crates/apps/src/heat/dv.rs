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

use dv_api::world::BlockWrite;
use dv_api::SendMode;
use dv_api::coll as dvcoll;
use dv_core::spec::SimSpec;
use dv_kernels::util::{charge, charge_mem_bytes};

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
    let cluster = dv_api::DvCluster::from_spec(spec);
    let report = cluster.run(move |dv, ctx| {
        let me = dv.node();
        // Parity-major ghost faces: each parity's six face regions are
        // contiguous so the receiver drains a step's ghosts in **one** DMA
        // read. One group counter per parity.
        let faces = dv.layout().bulk(12 * max_face(&cfg) as usize);
        let face_region = |f: Face, parity: usize| faces + (parity * 6 + f.index()) as u32 * max_face(&cfg);
        let halo_gc = dv.layout().kernel_gcs(2).start;
        let mut block = LocalBlock::new(&cfg, me);
        let c = block.coords;
        let neighbor = |f: Face| {
            let o = f.offset();
            cfg.node_at((c.0 as isize + o.0, c.1 as isize + o.1, c.2 as isize + o.2))
        };
        // Expected halo words per step = sum of present-neighbor faces.
        let expected: u64 = Face::ALL
            .iter()
            .filter(|&&f| neighbor(f).is_some())
            .map(|&f| block.face_len(f) as u64)
            .sum();
        dv.gc_set_local(ctx, halo_gc, expected);
        dv.gc_set_local(ctx, halo_gc + 1, expected);
        dv.barrier(ctx);
        let mut last_heat = 0.0;
        let ghost_words = 6 * max_face(&cfg) as usize;
        let mut region = Vec::with_capacity(ghost_words);

        for step in 0..cfg.steps {
            let parity = step % 2;
            let gc = halo_gc + parity as u8;
            // One DMA batch carrying all six outgoing faces.
            let mut blocks = Vec::new();
            for f in Face::ALL {
                if let Some(n) = neighbor(f) {
                    let face = block.gather_face(f);
                    charge_mem_bytes(ctx, &compute, 8 * face.len() as u64);
                    blocks.push(BlockWrite {
                        dest: n,
                        // It lands in the neighbor's ghost region for the
                        // opposite face.
                        address: face_region(f.opposite(), parity),
                        gc,
                        words: face.iter().map(|v| v.to_bits()).collect(),
                    });
                }
            }
            dv.write_blocks(ctx, blocks, SendMode::Dma { cached_headers: true });

            // Wait for my halos, re-arm the parity, pull ghosts to host.
            let ok = dv.gc_wait_zero(ctx, gc, None);
            assert!(ok, "halo exchange never completed");
            dv.gc_set_local(ctx, gc, expected);
            // One DMA drains all six ghost planes (parity-major layout).
            // A plane may straddle the lent runs, so they are gathered
            // first, into the buffer every step reuses.
            region.clear();
            dv.lend_local(ctx, face_region(Face::Xm, parity), ghost_words, |run| {
                region.extend_from_slice(run)
            });
            for f in Face::ALL {
                if neighbor(f).is_some() {
                    let off = (f.index() as u32 * max_face(&cfg)) as usize;
                    let words = &region[off..off + block.face_len(f)];
                    charge_mem_bytes(ctx, &compute, 8 * words.len() as u64);
                    block.set_ghost(f, words.iter().map(|&w| f64::from_bits(w)));
                }
            }

            block.step(cfg.r);
            charge(ctx, block.cells() as u64, compute.stencil_mcups * 1e6);

            if (step + 1) % cfg.report_every == 0 {
                last_heat = dvcoll::allreduce_sum_f64(dv, ctx, block.local_heat());
            }
        }
        dv.fast_barrier(ctx);
        (block.interior(), last_heat)
    });
    let (elapsed, results) = (report.elapsed, report.result);
    let last_heat = results[0].1;
    HeatRunResult { elapsed, fields: results.into_iter().map(|(f, _)| f).collect(), last_heat }
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
