//! Ideal incompressible flow: 2-D Euler in vorticity–streamfunction form.
//!
//! Section VII: "The equations describing this flow are derived from the
//! Navier Stokes equations ... in the high Reynolds number regime",
//! reduced to Euler's equation. We solve the standard pseudo-spectral
//! formulation on a periodic `[0,2π)²` box:
//!
//! ```text
//! ω_t + u·∇ω = 0,      u = (∂ψ/∂y, −∂ψ/∂x),      ∇²ψ = −ω
//! ```
//!
//! Each forward-Euler step evaluates the nonlinear term pseudo-spectrally
//! with exactly **five 2-D FFTs** (u, v, ω_x, ω_y inverse transforms and
//! one forward transform of u·∇ω), matching the paper: "The majority of
//! the communication cost is from computing five two-dimensional FFTs at
//! each time step."
//!
//! The distributed solver ([`dist`]) is generic over the transpose engine,
//! so the MPI and Data Vortex versions execute *bit-identical arithmetic*
//! and are validated against [`SerialVorticity`] for exact equality.

pub mod dist;

use dv_kernels::fft::twod::fft2d_serial as fft2d;
use dv_kernels::fft::Complex;

/// Problem description.
#[derive(Debug, Clone, Copy)]
pub struct VortConfig {
    /// Grid points per side (power of two).
    pub m: usize,
    /// Time step.
    pub dt: f64,
    /// Steps to run.
    pub steps: usize,
}

impl VortConfig {
    /// Small test problem.
    pub fn test_small() -> Self {
        Self { m: 32, dt: 1e-3, steps: 4 }
    }
}

/// Integer wavenumber of index `j` on an `m`-point periodic grid.
#[inline]
pub fn wavenumber(j: usize, m: usize) -> f64 {
    if j < m / 2 {
        j as f64
    } else {
        j as f64 - m as f64
    }
}

/// The Kelvin–Helmholtz-flavored initial vorticity used by the benchmark:
/// a perturbed double shear layer.
pub fn initial_vorticity(x: f64, y: f64) -> f64 {
    let delta = 0.05;
    let shear = if y <= std::f64::consts::PI {
        ((y - std::f64::consts::FRAC_PI_2) / delta).cosh().powi(-2) / delta
    } else {
        -((y - 3.0 * std::f64::consts::FRAC_PI_2) / delta).cosh().powi(-2) / delta
    };
    shear * 0.5 + 0.1 * (x).cos()
}

/// One spectral step's pointwise math, shared verbatim by the serial and
/// distributed solvers. Operates on *rows* `[row0, row0+rows)` of the
/// spectral field. Returns `(u_hat, v_hat, wx_hat, wy_hat)`.
pub fn velocity_and_gradient_hat(
    omega_hat: &[Complex],
    m: usize,
    row0: usize,
) -> (Vec<Complex>, Vec<Complex>, Vec<Complex>, Vec<Complex>) {
    let rows = omega_hat.len() / m;
    let mut u = vec![Complex::zero(); omega_hat.len()];
    let mut v = vec![Complex::zero(); omega_hat.len()];
    let mut wx = vec![Complex::zero(); omega_hat.len()];
    let mut wy = vec![Complex::zero(); omega_hat.len()];
    for lr in 0..rows {
        let ky = wavenumber(row0 + lr, m);
        for c in 0..m {
            let kx = wavenumber(c, m);
            let k2 = kx * kx + ky * ky;
            let w = omega_hat[lr * m + c];
            let psi = if k2 == 0.0 { Complex::zero() } else { Complex::new(w.re / k2, w.im / k2) };
            // u = ∂ψ/∂y → i·ky·ψ ; v = −∂ψ/∂x → −i·kx·ψ.
            u[lr * m + c] = Complex::new(-ky * psi.im, ky * psi.re);
            v[lr * m + c] = Complex::new(kx * psi.im, -kx * psi.re);
            wx[lr * m + c] = Complex::new(-kx * w.im, kx * w.re);
            wy[lr * m + c] = Complex::new(-ky * w.im, ky * w.re);
        }
    }
    (u, v, wx, wy)
}

/// Serial pseudo-spectral solver (the validation reference).
pub struct SerialVorticity {
    /// Grid size.
    pub m: usize,
    /// Spectral vorticity, row-major m×m.
    pub omega_hat: Vec<Complex>,
}

impl SerialVorticity {
    /// Initialize from a physical-space vorticity field.
    pub fn new(cfg: &VortConfig, f: impl Fn(f64, f64) -> f64) -> Self {
        let m = cfg.m;
        let h = 2.0 * std::f64::consts::PI / m as f64;
        let mut omega: Vec<Complex> = (0..m * m)
            .map(|i| Complex::new(f((i % m) as f64 * h, (i / m) as f64 * h), 0.0))
            .collect();
        fft2d(&mut omega, m, false);
        Self { m, omega_hat: omega }
    }

    /// One forward-Euler step (five 2-D FFTs).
    pub fn step(&mut self, dt: f64) {
        let m = self.m;
        let (mut u, mut v, mut wx, mut wy) = velocity_and_gradient_hat(&self.omega_hat, m, 0);
        fft2d(&mut u, m, true);
        fft2d(&mut v, m, true);
        fft2d(&mut wx, m, true);
        fft2d(&mut wy, m, true);
        let mut nonlin: Vec<Complex> = (0..m * m)
            .map(|i| {
                Complex::new(
                    u[i].re * wx[i].re + v[i].re * wy[i].re,
                    0.0,
                )
            })
            .collect();
        fft2d(&mut nonlin, m, false);
        for (w, n) in self.omega_hat.iter_mut().zip(&nonlin) {
            w.re -= dt * n.re;
            w.im -= dt * n.im;
        }
    }

    /// Enstrophy ½∑ω² in physical space (a conserved quantity of 2-D
    /// Euler, approximately conserved by the discretization).
    pub fn enstrophy(&self) -> f64 {
        let m = self.m;
        let mut w = self.omega_hat.clone();
        fft2d(&mut w, m, true);
        0.5 * w.iter().map(|c| c.re * c.re).sum::<f64>()
    }

    /// Mean vorticity (exactly conserved: the k=0 mode).
    pub fn mean_vorticity(&self) -> f64 {
        self.omega_hat[0].re / (self.m * self.m) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_vorticity_is_conserved() {
        let cfg = VortConfig::test_small();
        let mut s = SerialVorticity::new(&cfg, initial_vorticity);
        let before = s.mean_vorticity();
        for _ in 0..cfg.steps {
            s.step(cfg.dt);
        }
        assert!((s.mean_vorticity() - before).abs() < 1e-10);
    }

    #[test]
    fn enstrophy_approximately_conserved_short_term() {
        let cfg = VortConfig { m: 32, dt: 5e-4, steps: 8 };
        let mut s = SerialVorticity::new(&cfg, initial_vorticity);
        let before = s.enstrophy();
        for _ in 0..cfg.steps {
            s.step(cfg.dt);
        }
        let after = s.enstrophy();
        let drift = (after - before).abs() / before;
        assert!(drift < 0.05, "enstrophy drifted {drift}");
    }

    #[test]
    fn still_fluid_stays_still() {
        let cfg = VortConfig { m: 16, dt: 1e-2, steps: 5 };
        let mut s = SerialVorticity::new(&cfg, |_, _| 0.0);
        for _ in 0..cfg.steps {
            s.step(cfg.dt);
        }
        assert!(s.enstrophy() < 1e-20);
    }

    #[test]
    fn velocity_is_divergence_free() {
        // ∇·u = i kx û + i ky v̂ must vanish identically.
        let cfg = VortConfig::test_small();
        let s = SerialVorticity::new(&cfg, initial_vorticity);
        let (u, v, _, _) = velocity_and_gradient_hat(&s.omega_hat, s.m, 0);
        for r in 0..s.m {
            let ky = wavenumber(r, s.m);
            for c in 0..s.m {
                let kx = wavenumber(c, s.m);
                let div_re = -kx * u[r * s.m + c].im - ky * v[r * s.m + c].im;
                let div_im = kx * u[r * s.m + c].re + ky * v[r * s.m + c].re;
                assert!(div_re.abs() < 1e-9 && div_im.abs() < 1e-9);
            }
        }
    }
}
