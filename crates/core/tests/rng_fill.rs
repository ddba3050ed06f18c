//! Block draws stay on the stream: `SplitMix64::fill` returns exactly the
//! values the same number of `next_u64` calls would, and the raw-value
//! mappings `below` / `unit_f64` are what `next_below` / `next_f64` make
//! of a draw. `LoadSweep` relies on both to draw a cycle's values
//! ahead without moving a single sweep point.

use dv_core::rng::{below, unit_f64, SplitMix64};

#[test]
fn fill_returns_what_repeated_next_u64_would() {
    let mut filled = SplitMix64::new(0x5EED);
    let mut stepped = SplitMix64::new(0x5EED);
    for len in [0, 1, 7, 64, 1000, 1, 0, 64, 7] {
        let mut block = vec![0; len];
        filled.fill(&mut block);
        let expected: Vec<u64> = (0..len).map(|_| stepped.next_u64()).collect();
        assert_eq!(block, expected, "a {len}-value fill");
        // Chained fills and single draws interleave on one stream.
        assert_eq!(filled.next_u64(), stepped.next_u64(), "the draw after a {len}-value fill");
    }
    // Two fills back to back equal one fill of their combined length.
    let (mut a, mut b) = (SplitMix64::new(3), SplitMix64::new(3));
    let (mut two, mut one) = ([0; 71], [0; 71]);
    a.fill(&mut two[..7]);
    a.fill(&mut two[7..]);
    b.fill(&mut one);
    assert_eq!(two, one);
}

#[test]
fn raw_value_mappings_match_the_next_calls() {
    let mut raw = SplitMix64::new(42);
    let mut mapped = SplitMix64::new(42);
    for bound in [1, 2, 3, 63, 1 << 20, u64::MAX] {
        for _ in 0..100 {
            assert_eq!(below(raw.next_u64(), bound), mapped.next_below(bound), "bound {bound}");
            assert_eq!(unit_f64(raw.next_u64()).to_bits(), mapped.next_f64().to_bits());
        }
    }
}
