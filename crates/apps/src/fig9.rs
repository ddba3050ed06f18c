//! Figure 9: application speedup of the Data Vortex implementations over
//! the MPI-over-InfiniBand implementations.

use dv_core::spec::SimSpec;

use crate::heat::{self, Halo, HeatConfig};
use crate::snap::{self, SnapConfig};
use crate::vorticity::{dist as vort, VortConfig};

/// One bar of Figure 9.
#[derive(Debug, Clone)]
pub struct Speedup {
    /// Application name.
    pub name: &'static str,
    /// MPI elapsed virtual time (ps).
    pub mpi: u64,
    /// Data Vortex elapsed virtual time (ps).
    pub dv: u64,
}

impl Speedup {
    /// DV speedup over MPI (the y-axis of Figure 9).
    pub fn factor(&self) -> f64 {
        self.mpi as f64 / self.dv as f64
    }
}

/// Problem sizes for the Figure 9 runs at a given node count.
pub struct Fig9Sizes {
    /// SNAP configuration.
    pub snap: SnapConfig,
    /// Vorticity configuration.
    pub vorticity: VortConfig,
    /// Heat configuration.
    pub heat: HeatConfig,
}

impl Fig9Sizes {
    /// The benchmark sizes for a 32-node run (scaled-down analogue of the
    /// paper's cluster-filling problems).
    pub fn for_nodes_32() -> Self {
        Self {
            snap: SnapConfig {
                n: (32, 32, 32),
                grid: (8, 4),
                groups: 3,
                angles: 12,
                chunk: 4,
                sigma: 0.7,
            },
            vorticity: VortConfig { m: 256, dt: 5e-4, steps: 3 },
            heat: HeatConfig {
                n: (32, 32, 32),
                grid: (4, 4, 2),
                r: 0.1,
                steps: 24,
                report_every: 4, halo: Halo::Face },
        }
    }

    /// Tiny sizes for tests.
    pub fn for_tests() -> Self {
        Self {
            snap: SnapConfig { n: (8, 8, 8), grid: (2, 2), groups: 1, angles: 4, chunk: 4, sigma: 0.7 },
            vorticity: VortConfig { m: 32, dt: 1e-3, steps: 2 },
            heat: HeatConfig { n: (8, 8, 8), grid: (2, 2, 1), r: 0.1, steps: 4, report_every: 2, halo: Halo::Face },
        }
    }
}

/// Run all three applications on both networks and report the speedups.
pub fn speedups(sizes: &Fig9Sizes) -> Vec<Speedup> {
    let spec = || SimSpec::new(sizes.snap.nodes()); // same cluster for all three
    let snap_mpi = snap::mpi::run_spec(sizes.snap, spec());
    let snap_dv = snap::dv::run_spec(sizes.snap, spec());
    let vort_mpi = vort::run_mpi(sizes.vorticity, spec());
    let vort_dv = vort::run_dv(sizes.vorticity, spec());
    let heat_mpi = heat::mpi::run_spec(sizes.heat, spec());
    let heat_dv = heat::dv::run_spec(sizes.heat, spec());
    vec![
        Speedup { name: "SNAP", mpi: snap_mpi.elapsed, dv: snap_dv.elapsed },
        Speedup { name: "Vorticity", mpi: vort_mpi.elapsed, dv: vort_dv.elapsed },
        Speedup { name: "Heat", mpi: heat_mpi.elapsed, dv: heat_dv.elapsed },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_apps_run_and_dv_never_loses_badly() {
        let s = speedups(&Fig9Sizes::for_tests());
        assert_eq!(s.len(), 3);
        for sp in &s {
            assert!(sp.factor() > 0.8, "{}: {}", sp.name, sp.factor());
        }
    }
}
