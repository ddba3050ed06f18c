//! Row FFTs run through one set of twiddle tables: the tables are the
//! only thing `FftPlan::row_ffts` allocates, however many rows it is
//! handed. The per-thread counting allocator of `tests/common` wraps the
//! system one.

mod common;

use common::allocations_in;
use datavortex::kernels::fft::plan::FftPlan;
use datavortex::kernels::fft::Complex;

#[test]
fn row_ffts_allocate_per_call_not_per_row() {
    let len = 256;
    let mut data: Vec<Complex> =
        (0..64 * len).map(|i| Complex::new(i as f64, -(i as f64))).collect();
    let one_row = allocations_in(|| {
        FftPlan::row_ffts(&mut data[..len], len);
    });
    let all_rows = allocations_in(|| {
        FftPlan::row_ffts(&mut data, len);
    });
    assert!((1..=2).contains(&one_row), "one row allocated {one_row} times");
    assert_eq!(all_rows, one_row, "64 rows allocated more than one row does");
}
