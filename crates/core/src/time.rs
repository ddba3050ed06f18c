//! Virtual time.
//!
//! All simulated clocks in the workspace use a single unit: **picoseconds**,
//! stored in a `u64`. One picosecond resolution lets the cost models express
//! sub-nanosecond per-word costs exactly (one 8-byte word at 4.4 GB/s is
//! 1818 ps), while a `u64` still covers ~213 days of virtual time.

/// A point in (or duration of) virtual time, in picoseconds.
pub type Time = u64;

/// One picosecond.
pub const PS: Time = 1;
/// One nanosecond.
pub const NS: Time = 1_000;
/// One microsecond.
pub const US: Time = 1_000_000;
/// One millisecond.
pub const MS: Time = 1_000_000_000;
/// One second.
pub const SEC: Time = 1_000_000_000_000;

/// Construct a duration from nanoseconds.
#[inline]
pub const fn ns(v: u64) -> Time {
    v * NS
}

/// Construct a duration from microseconds.
#[inline]
pub const fn us(v: u64) -> Time {
    v * US
}

/// Construct a duration from milliseconds.
#[inline]
pub const fn ms(v: u64) -> Time {
    v * MS
}

/// Construct a duration from a floating point number of seconds.
#[inline]
pub fn secs_f64(v: f64) -> Time {
    (v * SEC as f64).round().max(0.0) as Time
}

/// Convert a duration to floating-point seconds.
#[inline]
pub fn as_secs_f64(t: Time) -> f64 {
    t as f64 / SEC as f64
}

/// Convert a duration to floating-point microseconds.
#[inline]
pub fn as_us_f64(t: Time) -> f64 {
    t as f64 / US as f64
}

/// Time to move `bytes` at a rate of `gbps` **gigabytes per second**
/// (10⁹ bytes/s, the convention used for link rates throughout the paper).
///
/// Returns at least 1 ps for any non-zero transfer so that event ordering
/// stays strict.
#[inline]
pub fn transfer_time(bytes: u64, gbps: f64) -> Time {
    if bytes == 0 {
        return 0;
    }
    debug_assert!(gbps > 0.0, "transfer rate must be positive");
    let ps = bytes as f64 / gbps * 1_000.0; // bytes / (GB/s) = ns; ×1000 = ps
    (ps.round() as Time).max(1)
}

/// Achieved rate in gigabytes per second for `bytes` moved in `t`.
#[inline]
pub fn rate_gbps(bytes: u64, t: Time) -> f64 {
    if t == 0 {
        return f64::INFINITY;
    }
    bytes as f64 / (t as f64 / 1_000.0) // bytes per ns = GB/s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constants_relate() {
        assert_eq!(NS, 1_000 * PS);
        assert_eq!(US, 1_000 * NS);
        assert_eq!(MS, 1_000 * US);
        assert_eq!(SEC, 1_000 * MS);
    }

    #[test]
    fn constructors_round_trip() {
        assert_eq!(ns(3), 3_000);
        assert_eq!(us(2), 2_000_000);
        assert_eq!(ms(1), MS);
        assert_eq!(secs_f64(1e-12), 1);
    }

    #[test]
    fn as_float_conversions() {
        assert!((as_secs_f64(SEC) - 1.0).abs() < 1e-12);
        assert!((as_us_f64(us(7)) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_matches_hand_calc() {
        // 8 bytes at 4.4 GB/s = 1.818.. ns = 1818 ps.
        assert_eq!(transfer_time(8, 4.4), 1818);
        // 1 MiB at 1 GB/s = 1048576 ns.
        assert_eq!(transfer_time(1 << 20, 1.0), 1_048_576 * NS);
        assert_eq!(transfer_time(0, 4.4), 0);
        // Tiny transfers never collapse to zero duration.
        assert_eq!(transfer_time(1, 1e9), 1);
    }

    #[test]
    fn rate_inverts_transfer_time() {
        let t = transfer_time(1 << 24, 6.8);
        let r = rate_gbps(1 << 24, t);
        assert!((r - 6.8).abs() < 0.01, "{r}");
    }
}
