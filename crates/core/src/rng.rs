//! Deterministic random streams.
//!
//! Two generators live here:
//!
//! * [`SplitMix64`] — a tiny, high-quality generator used wherever the
//!   workspace needs reproducible pseudo-randomness without pulling a full
//!   `rand` RNG through an API boundary.
//! * [`HpccStream`] — the exact random-number stream of the HPC Challenge
//!   RandomAccess (GUPS) benchmark: the sequence `x_{k+1} = (x_k << 1) ^
//!   (poly if the top bit of x_k was set)`, i.e. multiplication by `x` in
//!   `GF(2)[x]` modulo the primitive polynomial `x^63 + x^2 + x + 1`
//!   (0x...7). Implementing the real stream (including the log-time
//!   `starts(n)` jump function) keeps our GUPS runs bit-compatible with the
//!   reference benchmark's update pattern.

/// The HPCC RandomAccess polynomial (x⁶³ + x² + x + 1 over GF(2)).
pub const HPCC_POLY: u64 = 0x0000000000000007;
/// Period of the HPCC stream (2⁶³ − 1... the benchmark uses this constant
/// to wrap `starts` arguments).
pub const HPCC_PERIOD: i64 = 1317624576693539401;

/// SplitMix64: fast, well-distributed 64-bit generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator; any seed (including 0) is fine.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        below(self.next_u64(), bound)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Fill `out` with what `out.len()` [`SplitMix64::next_u64`] calls return.
    pub fn fill(&mut self, out: &mut [u64]) {
        out.fill_with(|| self.next_u64());
    }
}

/// What [`SplitMix64::next_below`] makes of the raw draw `v`.
pub fn below(v: u64, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Multiply-shift rejection-free mapping (slight bias acceptable for
    // workload generation; not used for cryptography or statistics).
    ((v as u128 * bound as u128) >> 64) as u64
}

/// What [`SplitMix64::next_f64`] makes of the raw draw `v`.
pub fn unit_f64(v: u64) -> f64 {
    (v >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The HPCC RandomAccess update stream.
///
/// ```
/// use dv_core::rng::HpccStream;
///
/// // The log-time jump lands exactly where sequential stepping does.
/// let mut seq = HpccStream::starting_at(0);
/// for _ in 0..1000 { seq.next_u64(); }
/// let mut jumped = HpccStream::starting_at(1000);
/// assert_eq!(seq.next_u64(), jumped.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct HpccStream {
    value: u64,
}

impl HpccStream {
    /// Stream positioned so the *next* value returned is element `n` of the
    /// canonical sequence (this is HPCC's `HPCC_starts(n)`).
    pub fn starting_at(n: i64) -> Self {
        Self { value: hpcc_starts(n) }
    }

    /// Next 64-bit element of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let v = self.value;
        self.value = lfsr_step(v);
        v
    }
}

#[inline]
fn lfsr_step(v: u64) -> u64 {
    (v << 1) ^ if (v as i64) < 0 { HPCC_POLY } else { 0 }
}

/// Element `n` of the HPCC RandomAccess sequence in O(log n) — a direct
/// port of the reference `HPCC_starts` function.
pub fn hpcc_starts(n: i64) -> u64 {
    let mut n = n;
    while n < 0 {
        n += HPCC_PERIOD;
    }
    while n > HPCC_PERIOD {
        n -= HPCC_PERIOD;
    }
    if n == 0 {
        return 0x1;
    }

    let mut m2 = [0u64; 64];
    let mut temp: u64 = 0x1;
    for slot in m2.iter_mut() {
        *slot = temp;
        temp = lfsr_step(temp);
        temp = lfsr_step(temp);
    }

    let mut i: i32 = 62;
    while i >= 0 {
        if (n >> i) & 1 != 0 {
            break;
        }
        i -= 1;
    }

    let mut ran: u64 = 0x2;
    while i > 0 {
        temp = 0;
        for (j, &m) in m2.iter().enumerate() {
            if (ran >> j) & 1 != 0 {
                temp ^= m;
            }
        }
        ran = temp;
        i -= 1;
        if (n >> i) & 1 != 0 {
            ran = lfsr_step(ran);
        }
    }
    ran
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_varied() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // All 16 values distinct (overwhelmingly likely for a sane PRNG).
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.next_below(37) < 37);
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SplitMix64::new(1);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        // Mean of uniforms should be near 0.5.
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn hpcc_starts_zero_is_one() {
        assert_eq!(hpcc_starts(0), 0x1);
    }

    #[test]
    fn hpcc_starts_matches_sequential_stream() {
        // starts(n) must equal n applications of the LFSR step to 1.
        let mut v: u64 = 0x1;
        for n in 0..200i64 {
            assert_eq!(hpcc_starts(n), v, "n={n}");
            v = lfsr_step(v);
        }
    }

    #[test]
    fn hpcc_stream_resumes_anywhere() {
        let mut full = HpccStream::starting_at(0);
        for _ in 0..777 {
            full.next_u64();
        }
        let mut jumped = HpccStream::starting_at(777);
        for i in 0..100 {
            assert_eq!(full.next_u64(), jumped.next_u64(), "offset {i}");
        }
    }

    #[test]
    fn lfsr_step_is_linear_over_gf2() {
        // step(a ^ b) == step(a) ^ step(b) — the defining property of an
        // LFSR, and what makes the log-time jump valid.
        let mut r = SplitMix64::new(99);
        for _ in 0..100 {
            let a = r.next_u64();
            let b = r.next_u64();
            assert_eq!(lfsr_step(a ^ b), lfsr_step(a) ^ lfsr_step(b));
        }
    }
}
