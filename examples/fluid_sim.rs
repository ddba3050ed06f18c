//! Ideal incompressible flow: the paper's vorticity application.
//!
//! Evolves a perturbed double shear layer (Kelvin–Helmholtz setting) with
//! the pseudo-spectral solver — five 2-D FFTs per step — on both networks,
//! checks the distributed results against the serial solver, and reports
//! conserved quantities and the speedup.
//!
//! Run with: `cargo run --release --example fluid_sim`

#![allow(clippy::print_stdout, reason = "an example reports on its terminal")]

use datavortex::apps::vorticity::{dist, initial_vorticity, SerialVorticity, VortConfig};
use datavortex::core::spec::SimSpec;
use datavortex::core::time::as_us_f64;
use datavortex::kernels::fft::max_error;

fn main() {
    let cfg = VortConfig { m: 64, dt: 5e-4, steps: 4 };
    println!(
        "2-D Euler, vorticity–streamfunction form: {}x{} spectral grid, {} steps, dt={}\n",
        cfg.m, cfg.m, cfg.steps, cfg.dt
    );

    // Serial reference + invariants.
    let mut serial = SerialVorticity::new(&cfg, initial_vorticity);
    let z0 = serial.enstrophy();
    let m0 = serial.mean_vorticity();
    for _ in 0..cfg.steps {
        serial.step(cfg.dt);
    }
    println!("enstrophy: {:.6} -> {:.6} (drift {:.2e})", z0, serial.enstrophy(), (serial.enstrophy() - z0).abs() / z0);
    println!("mean vorticity: {:.2e} -> {:.2e} (k=0 mode, conserved exactly)\n", m0, serial.mean_vorticity());

    // Distributed on both networks.
    let nodes = 8;
    let dv = dist::run_dv(cfg, SimSpec::new(nodes));
    let mpi = dist::run_mpi(cfg, SimSpec::new(nodes));
    let rows = cfg.m / nodes;
    let mut err: f64 = 0.0;
    for (node, local) in dv.omega_hat.iter().enumerate() {
        let slice = &serial.omega_hat[node * rows * cfg.m..(node + 1) * rows * cfg.m];
        err = err.max(max_error(local, slice));
    }
    println!(
        "distributed vs serial max |error| = {err:.2e}  ({} 2-D FFTs per backend)",
        dv.fft2d_count / nodes as u64
    );
    println!(
        "Data Vortex: {:.1} µs   MPI: {:.1} µs   speedup {:.2}x (the Figure 9 'Vorticity' mechanism)",
        as_us_f64(dv.elapsed),
        as_us_f64(mpi.elapsed),
        mpi.elapsed as f64 / dv.elapsed as f64
    );
    assert!(err < 1e-9);
}
