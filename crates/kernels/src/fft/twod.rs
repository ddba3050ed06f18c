//! Distributed 2-D FFT.
//!
//! The paper notes that "if a 2D or 3D FFT is performed, additional matrix
//! transpositions may be required to optimize memory distributions"
//! (Section VI) — and its vorticity application is built on exactly this
//! kernel. Here the 2-D transform is exposed as a first-class, validated
//! kernel in its own right: row FFTs → distributed transpose → row FFTs →
//! transpose back, generic over the [`TransposeEngine`] so the same code
//! runs on both networks.

use dv_core::spec::{RunReport, SimSpec};
use dv_core::time::{as_secs_f64, Time};
use dv_sim::SimCtx;

use crate::transpose::{DvTranspose, MpiTranspose, TransposeEngine};
use crate::util::charge_flops;

use super::{fft_flops, Complex, Twiddles};

/// Serial 2-D FFT on a full m×m matrix (row-major), via row FFTs and
/// explicit transposes — the same operation sequence as the distributed
/// kernel, so results are bit-identical.
pub fn fft2d_serial(data: &mut Vec<Complex>, m: usize, inverse: bool) {
    assert_eq!(data.len(), m * m);
    let mut twiddles = Twiddles::new(m);
    let transpose = |d: &[Complex]| {
        let mut out = vec![Complex::zero(); m * m];
        for r in 0..m {
            for c in 0..m {
                out[c * m + r] = d[r * m + c];
            }
        }
        out
    };
    twiddles.rows(data, inverse);
    *data = transpose(data);
    twiddles.rows(data, inverse);
    *data = transpose(data);
}

/// Distributed 2-D FFT over a row-distributed m×m matrix: `local` holds
/// this node's `m / p` rows, transformed in place. Returns the flops
/// executed (per node), charged at the engine's compute rates.
pub fn fft2d_dist<E: TransposeEngine>(
    eng: &mut E,
    ctx: &SimCtx,
    local: &mut Vec<Complex>,
    m: usize,
    inverse: bool,
) -> u64 {
    let compute = eng.compute().clone();
    let mut flops = 0u64;
    let mut twiddles = Twiddles::new(m);
    let mut run_rows = |d: &mut [Complex], ctx: &SimCtx, flops: &mut u64| {
        twiddles.rows(d, inverse);
        let f = (d.len() / m) as u64 * fft_flops(m as u64);
        charge_flops(ctx, &compute, f);
        *flops += f;
    };
    run_rows(local, ctx, &mut flops);
    *local = eng.transpose(ctx, std::mem::take(local), m, m);
    run_rows(local, ctx, &mut flops);
    *local = eng.transpose(ctx, std::mem::take(local), m, m);
    flops
}

/// Result of a distributed 2-D FFT benchmark run.
#[derive(Debug, Clone)]
pub struct Fft2dResult {
    /// Elapsed virtual time.
    pub elapsed: Time,
    /// Total flops over all nodes.
    pub flops: u64,
    /// Per-node output rows.
    pub local_out: Vec<Vec<Complex>>,
}

impl Fft2dResult {
    /// Aggregate GFLOP/s.
    pub fn gflops(&self) -> f64 {
        self.flops as f64 / as_secs_f64(self.elapsed) / 1e9
    }
}

fn input(m: usize) -> impl Fn(usize, usize) -> Complex + Copy {
    move |r: usize, c: usize| {
        let x = (r * m + c) as f64;
        Complex::new((x * 0.317).sin(), (x * 0.571).cos() * 0.25)
    }
}

fn local_rows(m: usize, nodes: usize, node: usize) -> Vec<Complex> {
    let rows = m / nodes;
    let f = input(m);
    (0..rows * m).map(|i| f(node * rows + i / m, i % m)).collect()
}

fn summarize(report: RunReport<Vec<(u64, Vec<Complex>)>>) -> Fft2dResult {
    let flops = report.result.iter().map(|(f, _)| f).sum();
    let local_out = report.result.into_iter().map(|(_, l)| l).collect();
    Fft2dResult { elapsed: report.elapsed, flops, local_out }
}

/// Benchmark entry: 2-D FFT of an m×m matrix over MPI on the cluster
/// described by `spec`.
pub fn run_mpi(m: usize, spec: SimSpec) -> Fft2dResult {
    let compute = spec.machine.compute.clone();
    summarize(mini_mpi::MpiCluster::from_spec(spec).run(move |comm, ctx| {
        let mut local = local_rows(m, comm.size(), comm.rank());
        comm.barrier(ctx);
        let mut eng = MpiTranspose::new(comm, compute.clone());
        let flops = fft2d_dist(&mut eng, ctx, &mut local, m, false);
        (flops, local)
    }))
}

/// Benchmark entry: 2-D FFT of an m×m matrix on the Data Vortex cluster
/// described by `spec`.
pub fn run_dv(m: usize, spec: SimSpec) -> Fft2dResult {
    let compute = spec.machine.compute.clone();
    summarize(dv_api::DvCluster::from_spec(spec).run(move |dv, ctx| {
        let mut local = local_rows(m, dv.nodes(), dv.node());
        let mut eng = DvTranspose::new(dv, ctx, compute.clone(), local.len());
        let flops = fft2d_dist(&mut eng, ctx, &mut local, m, false);
        (flops, local)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::max_error;

    fn serial_reference(m: usize) -> Vec<Complex> {
        let f = input(m);
        let mut full: Vec<Complex> = (0..m * m).map(|i| f(i / m, i % m)).collect();
        fft2d_serial(&mut full, m, false);
        full
    }

    fn check(result: &Fft2dResult, m: usize) {
        let reference = serial_reference(m);
        let p = result.local_out.len();
        let rows = m / p;
        for (node, local) in result.local_out.iter().enumerate() {
            let slice = &reference[node * rows * m..(node + 1) * rows * m];
            let err = max_error(local, slice);
            assert!(err < 1e-9, "node {node}: err {err}");
        }
    }

    #[test]
    fn fft2d_serial_inverse_round_trips() {
        let m = 16;
        let f = input(m);
        let orig: Vec<Complex> = (0..m * m).map(|i| f(i / m, i % m)).collect();
        let mut x = orig.clone();
        fft2d_serial(&mut x, m, false);
        fft2d_serial(&mut x, m, true);
        assert!(max_error(&x, &orig) < 1e-10);
    }

    #[test]
    fn fft2d_of_constant_is_a_dc_spike() {
        let m = 8;
        let mut x = vec![Complex::new(2.0, 0.0); m * m];
        fft2d_serial(&mut x, m, false);
        assert!((x[0].re - (2 * m * m) as f64).abs() < 1e-9);
        assert!(x[1..].iter().all(|c| c.norm_sq() < 1e-18));
    }

    #[test]
    fn mpi_2d_fft_matches_serial() {
        let r = run_mpi(32, SimSpec::new(4));
        check(&r, 32);
        assert!(r.gflops() > 0.0);
    }

    #[test]
    fn dv_2d_fft_matches_serial() {
        let r = run_dv(32, SimSpec::new(4));
        check(&r, 32);
    }

    #[test]
    fn dv_2d_fft_wins_at_scale() {
        let m = 128;
        let d = run_dv(m, SimSpec::new(16));
        let p = run_mpi(m, SimSpec::new(16));
        check(&d, m);
        assert!(
            d.elapsed < p.elapsed * 3 / 2,
            "DV should be at least competitive: dv {} mpi {}",
            d.elapsed,
            p.elapsed
        );
    }
}
