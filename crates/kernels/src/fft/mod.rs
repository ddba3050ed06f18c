//! Fast Fourier Transform: serial kernel + distributed 1-D algorithm.
//!
//! The serial kernel is a real iterative radix-2 decimation-in-time FFT
//! (bit-reversal permutation + butterfly passes), run from a plan:
//! [`Twiddles`] holds each stage's twiddle factors for one transform
//! length, built once and run over any number of rows ([`fft_in_place`]
//! is the one-shot door to the same kernel). The tables are filled by the
//! recurrence `w₀ = 1, w_{k+1} = w_k · W_len` the kernel used to run
//! inline, not by `sin`/`cos` per entry: the recurrence's rounding is part
//! of the results the golden digests pin, so every butterfly must multiply
//! by the same bits — it just loads them instead of waiting on a multiply
//! chain. For the same reason there are no algebraic shortcuts (`x · 1`,
//! `±i` swaps, fused multiply-add): signed zeros would differ. Table
//! memory is bounded whatever the length — stages of up to 2048
//! butterflies per block are kept whole, longer ones are produced a chunk
//! at a time by continuing the recurrence — and nothing is cached between
//! calls: whoever transforms pays for their own tables.
//!
//! The distributed 1-D transform ([`plan::FftPlan`], [`mpi`], [`dv`]) uses the classic
//! transpose ("four-step") algorithm the paper's FFT benchmark is built
//! on, whose communication cost is two distributed matrix transpositions —
//! "the multiple matrix transpose operations (butterflies) that need to be
//! performed at each stage" (Section VI).

pub mod dv;
pub mod mpi;
pub mod plan;
pub mod twod;

/// A complex number (inline, `repr` irrelevant — nothing aliases it).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Construct.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Zero.
    #[inline]
    pub fn zero() -> Self {
        Self { re: 0.0, im: 0.0 }
    }

    /// `e^{-2πi k / n}` — the FFT twiddle factor (negative exponent:
    /// forward transform).
    #[inline]
    pub fn twiddle(k: usize, n: usize) -> Self {
        let angle = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
        Self { re: angle.cos(), im: angle.sin() }
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl std::ops::Mul for Complex {
    type Output = Self;
    #[inline]
    fn mul(self, o: Self) -> Self {
        Self { re: self.re * o.re - self.im * o.im, im: self.re * o.im + self.im * o.re }
    }
}

impl std::ops::Add for Complex {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        Self { re: self.re + o.re, im: self.im + o.im }
    }
}

impl std::ops::Sub for Complex {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        Self { re: self.re - o.re, im: self.im - o.im }
    }
}

/// Longest stage (in butterflies per block) whose twiddles are kept whole,
/// and the run length longer stages are tabulated in: 2048 entries = 32 KiB.
const CHUNK: usize = 2048;

/// Continue the recurrence `w_{k+1} = w_k * step` from `w` through `out`;
/// returns the value that follows the last one written.
fn fill(out: &mut [Complex], mut w: Complex, step: Complex) -> Complex {
    for slot in out {
        *slot = w;
        w = w * step;
    }
    w
}

/// Butterflies `k0..k0 + tw.len()` of every block of one stage:
/// `lo[k], hi[k] = lo[k] ± hi[k]·tw[k - k0]`.
fn sweep(data: &mut [Complex], half: usize, k0: usize, tw: &[Complex]) {
    for block in data.chunks_exact_mut(2 * half) {
        let (lo, hi) = block.split_at_mut(half);
        for ((a, b), &w) in lo[k0..].iter_mut().zip(&mut hi[k0..]).zip(tw) {
            let (x, t) = (*a, *b * w);
            *a = x + t;
            *b = x - t;
        }
    }
}

/// The radix-2 kernel for one transform length: per-stage twiddle tables,
/// built once and run over any number of rows (see the module docs).
#[derive(Debug)]
pub struct Twiddles {
    len: usize,
    /// The stage of `half` butterflies per block, `half <= CHUNK`, at
    /// `[half - 1, 2·half - 1)`.
    stages: Vec<Complex>,
    /// Longer stages: the [`CHUNK`] twiddles being swept across the blocks.
    chunk: Vec<Complex>,
}

impl Twiddles {
    /// Tables for transforms of `len` points (a power of two).
    pub fn new(len: usize) -> Self {
        assert!(len.is_power_of_two(), "FFT length must be a power of two");
        let tabled = (len / 2).min(CHUNK);
        let mut stages = vec![Complex::zero(); (2 * tabled).saturating_sub(1)];
        let mut half = 1;
        while half <= tabled {
            let step = Complex::twiddle(1, 2 * half);
            fill(&mut stages[half - 1..2 * half - 1], Complex::new(1.0, 0.0), step);
            half <<= 1;
        }
        let chunk = if len / 2 > CHUNK { vec![Complex::zero(); CHUNK] } else { Vec::new() };
        Self { len, stages, chunk }
    }

    /// Forward FFT of `data` in place; `data.len()` must be the planned
    /// length.
    pub fn forward(&mut self, data: &mut [Complex]) {
        let n = self.len;
        assert_eq!(data.len(), n, "row length differs from the planned length");
        if n <= 1 {
            return;
        }
        // Bit-reversal permutation, with the first two stages folded in
        // where there are whole tiles to do it on.
        let mut half = if n >= 16 {
            self.reverse_and_first_stages(data);
            4
        } else {
            let bits = n.trailing_zeros();
            for i in 0..n {
                let j = i.reverse_bits() >> (usize::BITS - bits);
                if j > i {
                    data.swap(i, j);
                }
            }
            1
        };
        // Butterfly passes. Within a stage every butterfly owns its two
        // points, so sweeping a chunk of twiddles across all blocks before
        // the next chunk computes the same values as block-by-block.
        while half < n {
            if half <= CHUNK {
                sweep(data, half, 0, &self.stages[half - 1..2 * half - 1]);
            } else {
                let step = Complex::twiddle(1, 2 * half);
                let mut w = Complex::new(1.0, 0.0);
                for k0 in (0..half).step_by(CHUNK) {
                    w = fill(&mut self.chunk, w, step);
                    sweep(data, half, k0, &self.chunk);
                }
            }
            half <<= 1;
        }
    }

    /// The bit-reversal permutation and the `half = 1, 2` stages in one
    /// pass over `n >= 16` points. Write an index as `(t, m, l)` — top two
    /// bits, middle, low two bits; its reversal is `(l', m', t')`. So the
    /// 4×4 tile of all `(t, l)` at one `m` lands, transposed, on the tile
    /// at `m'`, whose rows are the four-point blocks both stages work on:
    /// swap tile pairs, running each row's butterflies on the way.
    fn reverse_and_first_stages(&self, data: &mut [Complex]) {
        let quarter = data.len() / 4;
        let mid_bits = data.len().trailing_zeros() - 4;
        let (w, u0, u1) = (self.stages[0], self.stages[1], self.stages[2]);
        let load = |data: &[Complex], m: usize| -> [[Complex; 4]; 4] {
            std::array::from_fn(|t| std::array::from_fn(|l| data[t * quarter + 4 * m + l]))
        };
        let store = |data: &mut [Complex], m: usize, from: [[Complex; 4]; 4]| {
            for (t, rev_t) in [0, 2, 1, 3].into_iter().enumerate() {
                let (x0, x1) = (from[0][rev_t], from[2][rev_t]);
                let (x2, x3) = (from[1][rev_t], from[3][rev_t]);
                let (p, q) = (x1 * w, x3 * w);
                let (a0, a1, a2, a3) = (x0 + p, x0 - p, x2 + q, x2 - q);
                let (p, q) = (a2 * u0, a3 * u1);
                let at = t * quarter + 4 * m;
                data[at..at + 4].copy_from_slice(&[a0 + p, a1 + q, a0 - p, a1 - q]);
            }
        };
        for m in 0..data.len() / 16 {
            let rev_m = (m.reverse_bits() >> 1) >> (usize::BITS - 1 - mid_bits);
            if m < rev_m {
                let (a, b) = (load(data, m), load(data, rev_m));
                store(data, rev_m, a);
                store(data, m, b);
            } else if m == rev_m {
                store(data, m, load(data, m));
            }
        }
    }

    /// Inverse FFT of `data` in place (unnormalized conjugate method, then
    /// scaled by 1/n).
    pub fn inverse(&mut self, data: &mut [Complex]) {
        for c in data.iter_mut() {
            c.im = -c.im;
        }
        self.forward(data);
        let n = data.len() as f64;
        for c in data.iter_mut() {
            c.re /= n;
            c.im = -c.im / n;
        }
    }

    /// Transform every `len`-point row of `data` (`data.len()` must be a
    /// multiple of the planned length).
    pub fn rows(&mut self, data: &mut [Complex], inverse: bool) {
        assert_eq!(data.len() % self.len, 0, "data is not a whole number of rows");
        for row in data.chunks_exact_mut(self.len) {
            if inverse {
                self.inverse(row);
            } else {
                self.forward(row);
            }
        }
    }
}

/// In-place iterative radix-2 FFT. `data.len()` must be a power of two.
pub fn fft_in_place(data: &mut [Complex]) {
    Twiddles::new(data.len()).forward(data);
}

/// Inverse FFT (unnormalized conjugate method, then scaled by 1/n).
pub fn ifft_in_place(data: &mut [Complex]) {
    Twiddles::new(data.len()).inverse(data);
}

/// O(n²) reference DFT for validation.
pub fn naive_dft(data: &[Complex]) -> Vec<Complex> {
    let n = data.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::zero();
            for (j, &x) in data.iter().enumerate() {
                acc = acc + x * Complex::twiddle(k * j % n, n);
            }
            acc
        })
        .collect()
}

/// The FLOP count convention of the HPCC FFT benchmark: `5 N log2 N`.
pub fn fft_flops(n: u64) -> u64 {
    5 * n * n.max(1).ilog2() as u64
}

/// Max elementwise distance between two complex slices.
pub fn max_error(a: &[Complex], b: &[Complex]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (*x - *y).norm_sq().sqrt()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_core::rng::SplitMix64;

    fn random_signal(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| Complex::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5)).collect()
    }

    /// The kernel this module had before it kept tables: every twiddle
    /// comes off the inline recurrence `w = w * step`. Lives here only, as
    /// the oracle for bit-identity.
    fn recurrence_fft(data: &mut [Complex]) {
        let n = data.len();
        if n <= 1 {
            return;
        }
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if j > i {
                data.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let step = Complex::twiddle(1, len);
            for start in (0..n).step_by(len) {
                let mut w = Complex::new(1.0, 0.0);
                for k in 0..half {
                    let a = data[start + k];
                    let b = data[start + k + half] * w;
                    data[start + k] = a + b;
                    data[start + k + half] = a - b;
                    w = w * step;
                }
            }
            len <<= 1;
        }
    }

    fn bits(data: &[Complex]) -> Vec<(u64, u64)> {
        data.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    #[test]
    fn tables_reproduce_the_recurrence_kernel_bit_for_bit() {
        // Every power of two through 2^13 (whole-stage tables, with and
        // without the fused first pass) and 2^16 (stages swept in chunks).
        // Noise salted with the values where a shortcut would show: signed
        // zeros, subnormals, magnitudes that overflow on the way.
        const SALT: [f64; 7] = [0.0, -0.0, 5e-324, -1.1e-308, 1e300, -1e300, 1.0];
        let mut rng = SplitMix64::new(0x5eed);
        for log_n in (0..=13).chain([16]) {
            let n = 1usize << log_n;
            let draw = |rng: &mut SplitMix64| {
                if rng.next_below(8) == 0 {
                    SALT[rng.next_below(SALT.len() as u64) as usize]
                } else {
                    rng.next_f64() - 0.5
                }
            };
            let noise: Vec<Complex> =
                (0..n).map(|_| Complex::new(draw(&mut rng), draw(&mut rng))).collect();
            let mut impulse = vec![Complex::zero(); n];
            impulse[rng.next_below(n as u64) as usize] = Complex::new(1.0, -0.0);
            for x in [noise, impulse] {
                let (mut expect, mut got) = (x.clone(), x.clone());
                recurrence_fft(&mut expect);
                fft_in_place(&mut got);
                assert_eq!(bits(&got), bits(&expect), "forward, n = 2^{log_n}");

                // Same for the inverse, conjugations and scaling included.
                let (mut expect, mut got) = (x.clone(), x);
                expect.iter_mut().for_each(|c| c.im = -c.im);
                recurrence_fft(&mut expect);
                let scale = |c: &mut Complex| *c = Complex::new(c.re / n as f64, -c.im / n as f64);
                expect.iter_mut().for_each(scale);
                ifft_in_place(&mut got);
                assert_eq!(bits(&got), bits(&expect), "inverse, n = 2^{log_n}");
            }
        }
    }

    #[test]
    fn fft_matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 64, 256] {
            let x = random_signal(n, 42);
            let mut y = x.clone();
            fft_in_place(&mut y);
            let reference = naive_dft(&x);
            assert!(max_error(&y, &reference) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex::zero(); 16];
        x[0] = Complex::new(1.0, 0.0);
        fft_in_place(&mut x);
        for c in &x {
            assert!((c.re - 1.0).abs() < 1e-12 && c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_single_tone_is_a_spike() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex> = (0..n)
            .map(|j| {
                let ang = 2.0 * std::f64::consts::PI * (k0 * j) as f64 / n as f64;
                Complex::new(ang.cos(), ang.sin())
            })
            .collect();
        let mut y = x.clone();
        fft_in_place(&mut y);
        for (k, c) in y.iter().enumerate() {
            let expect = if k == k0 { n as f64 } else { 0.0 };
            assert!((c.re - expect).abs() < 1e-9 && c.im.abs() < 1e-9, "k={k}: {c:?}");
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let x = random_signal(128, 7);
        let mut y = x.clone();
        fft_in_place(&mut y);
        ifft_in_place(&mut y);
        assert!(max_error(&x, &y) < 1e-10);
    }

    #[test]
    fn parseval_energy_is_conserved() {
        let x = random_signal(256, 9);
        let e_time: f64 = x.iter().map(|c| c.norm_sq()).sum();
        let mut y = x;
        fft_in_place(&mut y);
        let e_freq: f64 = y.iter().map(|c| c.norm_sq()).sum::<f64>() / 256.0;
        assert!((e_time - e_freq).abs() < 1e-9 * e_time);
    }

    #[test]
    fn flop_convention() {
        assert_eq!(fft_flops(0), 0);
        assert_eq!(fft_flops(1), 0);
        assert_eq!(fft_flops(8), 5 * 8 * 3);
        assert_eq!(fft_flops(1 << 20), 5 * (1 << 20) * 20);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut x = vec![Complex::zero(); 12];
        fft_in_place(&mut x);
    }
}
