//! DV-W008 negative: independent seeded simulations fan out through
//! `dv_core::sync::fan_out`, which joins them in input order; simulated
//! workers are dv-sim processes.
fn run_points(seeds: &[u64]) -> Vec<u64> {
    crate::sync::fan_out(seeds, |&seed| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
