//! The lending read of DV memory (`DvMemory::lend_range`,
//! `DvCtx::lend_local`) shows exactly what the copying reads return, for
//! exactly the virtual time they cost, and allocates no page to do it.

use datavortex::api::DvCluster;
use datavortex::core::spec::SimSpec;
use datavortex::core::Word;
use datavortex::vic::DvMemory;

/// `DvMemory`'s page size in words (private to `dv-vic`).
const PAGE_WORDS: usize = 4096;

/// The runs `lend_range` hands out for `len` words at `addr`.
fn lent_runs(m: &DvMemory, addr: u32, len: usize) -> Vec<Vec<Word>> {
    let mut runs = Vec::new();
    m.lend_range(addr, len, |run| runs.push(run.to_vec()));
    runs
}

#[test]
fn a_range_straddling_a_page_boundary_is_lent_as_two_runs() {
    let mut m = DvMemory::new();
    let base = PAGE_WORDS as u32 - 3;
    let data: Vec<Word> = (1..=8).map(|i| i * 11).collect();
    m.write_range(base, &data);
    let runs = lent_runs(&m, base, data.len());
    assert_eq!(runs, [data[..3].to_vec(), data[3..].to_vec()]);
    // An empty range lends nothing at all.
    assert!(lent_runs(&m, base, 0).is_empty());
}

#[test]
fn a_never_written_page_is_lent_as_zeros_and_stays_unallocated() {
    let mut m = DvMemory::new();
    m.write(0, 7); // page 0 resident; pages 1.. in reset state
    let resident = m.resident_pages();
    // Tail of page 0, all of reset pages 1 and 2, the head of page 3 —
    // the last two beyond the page directory.
    let runs = lent_runs(&m, PAGE_WORDS as u32 - 2, 2 * PAGE_WORDS + 5);
    let lens: Vec<usize> = runs.iter().map(Vec::len).collect();
    assert_eq!(lens, [2, PAGE_WORDS, PAGE_WORDS, 3]);
    assert!(runs.iter().flatten().all(|&w| w == 0));
    assert_eq!(m.resident_pages(), resident);
}

#[test]
fn read_range_is_the_lent_runs_concatenated() {
    let mut m = DvMemory::new();
    // Written words on pages 1 and 3, with reset page 2 between them.
    let a: Vec<Word> = (0..PAGE_WORDS as Word).map(|i| i ^ 0xA5A5).collect();
    m.write_range(PAGE_WORDS as u32 + 100, &a);
    m.write_range(3 * PAGE_WORDS as u32 + 9, &[1, 2, 3]);
    for (addr, len) in [(0, 1), (PAGE_WORDS - 1, 2), (5, 4 * PAGE_WORDS), (PAGE_WORDS + 99, 4099)] {
        let mut copied = vec![Word::MAX; len];
        m.read_range(addr as u32, &mut copied);
        assert_eq!(lent_runs(&m, addr as u32, len).concat(), copied, "addr {addr} len {len}");
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn lending_past_the_end_panics_before_the_first_run() {
    DvMemory::new().lend_range(DvMemory::words() as u32 - 2, 3, |_| panic!("lent a run"));
}

#[test]
fn read_local_and_lend_local_cost_the_same_virtual_time() {
    // n ≤ 2 is a PIO read, anything longer one DMA; 70 000 words span 18
    // pages. The lent words equal the copied ones throughout.
    const ADDR: u32 = 5000;
    let report = DvCluster::from_spec(SimSpec::new(1)).run(|dv, ctx| {
        let data: Vec<Word> = (0..70_000).map(|i| i * 3 + 1).collect();
        dv.write_local(ctx, ADDR, &data);
        [1usize, 2, 3, 4096, 70_000].map(|n| {
            let t0 = ctx.now();
            let copied = dv.read_local(ctx, ADDR, n);
            let t1 = ctx.now();
            let mut lent = Vec::new();
            dv.lend_local(ctx, ADDR, n, |run| lent.extend_from_slice(run));
            assert_eq!(copied, data[..n]);
            assert_eq!(lent, copied);
            (t1 - t0, ctx.now() - t1)
        })
    });
    for (copying, lending) in report.result[0] {
        assert!(copying > 0);
        assert_eq!(copying, lending);
    }
}
