//! DV-W011 negative: routed values go through checked conversions,
//! widening casts are always fine, and a hot-path cast whose range is
//! proved carries the proof in an `#[expect]`.
fn tally(port: u64, cycle: u32, dst: usize, h_mask: usize) -> (u8, u64, u16) {
    let p = u8::try_from(port).expect("ports are 0..=255 by construction");
    let wide = u64::from(cycle);
    #[expect(clippy::cast_possible_truncation, reason = "masked to h_mask < 2^16")]
    let h = (dst & h_mask) as u16;
    (p, wide, h)
}
