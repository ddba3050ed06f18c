//! SNAP over MPI: the reference pipelined KBA sweep.

use dv_core::spec::SimSpec;
use dv_core::time::Time;
use dv_kernels::util::{charge, charge_mem_bytes};
use mini_mpi::{MpiCluster, Payload};

use super::{octant_dirs, LocalSweep, SnapConfig};

/// Result of a distributed SNAP run.
#[derive(Debug, Clone)]
pub struct SnapRunResult {
    /// Elapsed virtual time.
    pub elapsed: Time,
    /// Per-node local flux fields.
    pub fields: Vec<Vec<f64>>,
}

fn face_tag(g: usize, o: usize, chunk_pos: usize, dir: usize) -> u64 {
    (((g * 8 + o) * 4096 + chunk_pos) * 2 + dir) as u64
}

/// Run one full sweep (all groups × octants) over MPI on the cluster
/// described by `spec`.
pub fn run_spec(cfg: SnapConfig, spec: SimSpec) -> SnapRunResult {
    assert_eq!(spec.nodes, cfg.nodes(), "spec.nodes must match the grid");
    let compute = spec.machine.compute.clone();
    let report = MpiCluster::from_spec(spec).run(move |comm, ctx| {
        let me = comm.rank();
        let (cy, cz) = cfg.coords(me);
        let (_, nyl, nzl) = cfg.local();
        let mut local = LocalSweep::new(&cfg);
        comm.barrier(ctx);

        for g in 0..cfg.groups {
            for o in 0..8 {
                let (_, ry, rz) = octant_dirs(o);
                // Up/downstream neighbors for this octant's direction.
                let ystep: isize = if ry { -1 } else { 1 };
                let zstep: isize = if rz { -1 } else { 1 };
                let y_up = cfg.node_at(cy as isize - ystep, cz as isize);
                let y_dn = cfg.node_at(cy as isize + ystep, cz as isize);
                let z_up = cfg.node_at(cy as isize, cz as isize - zstep);
                let z_dn = cfg.node_at(cy as isize, cz as isize + zstep);

                let mut xin = vec![0.0; nyl * nzl];
                let mut pending = Vec::new();
                for (pos, range) in LocalSweep::chunk_ranges(&cfg, o).into_iter().enumerate() {
                    let cx = range.1 - range.0;
                    let yface = match y_up {
                        Some(n) => comm.recv_from(ctx, n, face_tag(g, o, pos, 0)).payload.into_f64(),
                        None => vec![0.0; cx * nzl],
                    };
                    let zface = match z_up {
                        Some(n) => comm.recv_from(ctx, n, face_tag(g, o, pos, 1)).payload.into_f64(),
                        None => vec![0.0; cx * nyl],
                    };

                    let (oy, oz) =
                        local.sweep_chunk(&cfg, g, o, range, &mut xin, &yface, &zface);
                    // Per-cell work, weighted by the angle count.
                    charge(
                        ctx,
                        (cx * nyl * nzl * cfg.angles) as u64,
                        compute.stencil_mcups * 1e6,
                    );

                    if let Some(n) = y_dn {
                        charge_mem_bytes(ctx, &compute, 8 * oy.len() as u64);
                        pending.push(comm.isend(ctx, n, face_tag(g, o, pos, 0), Payload::F64(oy)));
                    }
                    if let Some(n) = z_dn {
                        charge_mem_bytes(ctx, &compute, 8 * oz.len() as u64);
                        pending.push(comm.isend(ctx, n, face_tag(g, o, pos, 1), Payload::F64(oz)));
                    }
                }
                comm.wait_all(ctx, pending);
            }
        }
        comm.barrier(ctx);
        local.phi
    });
    SnapRunResult { elapsed: report.elapsed, fields: report.result }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::{assemble_phi, SerialSnap};

    #[test]
    fn mpi_snap_matches_serial_exactly() {
        let cfg = SnapConfig::test_small();
        let r = run_spec(cfg, SimSpec::new(cfg.nodes()));
        let mut serial = SerialSnap::new(cfg);
        serial.sweep_all();
        assert_eq!(assemble_phi(&cfg, &r.fields), serial.phi);
    }

    #[test]
    fn asymmetric_grids_work() {
        let cfg =
            SnapConfig { n: (12, 8, 4), grid: (4, 2), groups: 1, angles: 2, chunk: 5, sigma: 0.5 };
        let r = run_spec(cfg, SimSpec::new(cfg.nodes()));
        let mut serial = SerialSnap::new(cfg);
        serial.sweep_all();
        assert_eq!(assemble_phi(&cfg, &r.fields), serial.phi);
    }
}
