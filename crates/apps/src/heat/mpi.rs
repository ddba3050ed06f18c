//! Heat equation over MPI: six halo messages per node per step.

use dv_core::spec::SimSpec;
use dv_core::time::Time;
use dv_kernels::util::{charge, charge_mem_bytes};
use mini_mpi::{MpiCluster, Payload, ReduceOp};

use super::{Face, Halo, HeatConfig, LocalBlock};

/// Result of a distributed heat run.
#[derive(Debug, Clone)]
pub struct HeatRunResult {
    /// Elapsed virtual time.
    pub elapsed: Time,
    /// Per-node interior fields (node order).
    pub fields: Vec<Vec<f64>>,
    /// Global heat at the last report.
    pub last_heat: f64,
}

/// Run the heat solver over MPI on the paper's cluster.
///
/// The one spec-less entry left in the workspace: the frozen `benchmark/`
/// package calls `heat::mpi::run(cfg)` by this name and signature.
pub fn run(cfg: HeatConfig) -> HeatRunResult {
    run_spec(cfg, SimSpec::new(cfg.nodes()))
}

/// Run the heat solver over MPI on the cluster described by `spec`.
pub fn run_spec(cfg: HeatConfig, spec: SimSpec) -> HeatRunResult {
    assert_eq!(spec.nodes, cfg.nodes(), "spec.nodes must match the grid");
    let compute = spec.machine.compute.clone();
    let report = MpiCluster::from_spec(spec).run(move |comm, ctx| {
        let me = comm.rank();
        let mut block = LocalBlock::new(&cfg, me);
        let c = block.coords;
        let neighbor = |f: Face| {
            let o = f.offset();
            cfg.node_at((c.0 as isize + o.0, c.1 as isize + o.1, c.2 as isize + o.2))
        };
        let mut last_heat = 0.0;
        comm.barrier(ctx);

        for step in 0..cfg.steps {
            let face_tag = |f: Face, line: usize| ((step * 8 + f.index()) * 4096 + line) as u64;
            match cfg.halo {
                // Textbook halo exchange: six sequential shifts. Each
                // shift's wire latency lands on the critical path.
                Halo::Face => {
                    for f in Face::ALL {
                        let mut req = None;
                        if let Some(n) = neighbor(f) {
                            let face = block.gather_face(f);
                            charge_mem_bytes(ctx, &compute, 8 * face.len() as u64);
                            req = Some(comm.isend(ctx, n, face_tag(f, 0), Payload::F64(face)));
                        }
                        // In shift f every rank receives the ghost for the
                        // opposite face from its opposite neighbor.
                        let of = f.opposite();
                        if let Some(n) = neighbor(of) {
                            let data =
                                comm.recv_from(ctx, n, face_tag(f, 0)).payload.into_f64();
                            charge_mem_bytes(ctx, &compute, 8 * data.len() as u64);
                            block.set_ghost(of, data.into_iter());
                        }
                        if let Some(r) = req {
                            comm.wait(ctx, r);
                        }
                    }
                }
                // Post everything up front, then drain: the overlapped
                // variants (per face, or the paper's per-line messages).
                Halo::FaceOverlapped | Halo::Line => {
                    let mut reqs = Vec::new();
                    for f in Face::ALL {
                        if let Some(n) = neighbor(f) {
                            let face = block.gather_face(f);
                            charge_mem_bytes(ctx, &compute, 8 * face.len() as u64);
                            if cfg.halo == Halo::FaceOverlapped {
                                reqs.push(comm.isend(ctx, n, face_tag(f, 0), Payload::F64(face)));
                            } else {
                                let ll = block.line_len(f);
                                for (line, chunk) in face.chunks(ll).enumerate() {
                                    reqs.push(comm.isend(
                                        ctx,
                                        n,
                                        face_tag(f, line),
                                        Payload::F64(chunk.to_vec()),
                                    ));
                                }
                            }
                        }
                    }
                    for f in Face::ALL {
                        if let Some(n) = neighbor(f) {
                            let of = f.opposite();
                            let data = if cfg.halo == Halo::FaceOverlapped {
                                comm.recv_from(ctx, n, face_tag(of, 0)).payload.into_f64()
                            } else {
                                let mut buf = Vec::with_capacity(block.face_len(f));
                                for line in 0..block.face_lines(f) {
                                    buf.extend(
                                        comm.recv_from(ctx, n, face_tag(of, line))
                                            .payload
                                            .into_f64(),
                                    );
                                }
                                buf
                            };
                            charge_mem_bytes(ctx, &compute, 8 * data.len() as u64);
                            block.set_ghost(f, data.into_iter());
                        }
                    }
                    comm.wait_all(ctx, reqs);
                }
            }

            block.step(cfg.r);
            charge(ctx, block.cells() as u64, compute.stencil_mcups * 1e6);

            if (step + 1) % cfg.report_every == 0 {
                last_heat = comm
                    .allreduce(ctx, ReduceOp::Sum, Payload::F64(vec![block.local_heat()]))
                    .into_f64()[0];
            }
        }
        comm.barrier(ctx);
        (block.interior(), last_heat)
    });
    let (elapsed, results) = (report.elapsed, report.result);
    let last_heat = results[0].1;
    HeatRunResult { elapsed, fields: results.into_iter().map(|(f, _)| f).collect(), last_heat }
}

/// Assemble per-node interiors into the global `[z][y][x]` field.
pub fn assemble(cfg: &HeatConfig, fields: &[Vec<f64>]) -> Vec<f64> {
    let (nx, ny, nz) = cfg.n;
    let (nxl, nyl, nzl) = cfg.local();
    let mut out = vec![0.0; nx * ny * nz];
    for (node, field) in fields.iter().enumerate() {
        let (cx, cy, cz) = cfg.coords(node);
        for k in 0..nzl {
            for j in 0..nyl {
                for i in 0..nxl {
                    let g = ((cz * nzl + k) * ny + (cy * nyl + j)) * nx + cx * nxl + i;
                    out[g] = field[(k * nyl + j) * nxl + i];
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heat::SerialHeat;

    #[test]
    fn mpi_heat_matches_serial_exactly() {
        let cfg = HeatConfig::test_small();
        let r = run(cfg);
        let mut serial = SerialHeat::new(&cfg);
        for _ in 0..cfg.steps {
            serial.step();
        }
        assert_eq!(assemble(&cfg, &r.fields), serial.u);
        let serial_heat = serial.total_heat();
        assert!((r.last_heat - serial_heat).abs() < 1e-9 * serial_heat.abs().max(1.0));
    }

    #[test]
    fn anisotropic_grid_works() {
        let cfg = HeatConfig { n: (16, 8, 8), grid: (4, 1, 2), r: 0.08, steps: 3, report_every: 3, halo: Halo::Line };
        let r = run(cfg);
        let mut serial = SerialHeat::new(&cfg);
        for _ in 0..cfg.steps {
            serial.step();
        }
        assert_eq!(assemble(&cfg, &r.fields), serial.u);
    }
}
