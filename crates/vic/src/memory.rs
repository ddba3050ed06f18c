//! DV memory: the VIC's 32 MB of word-addressable QDR SRAM.
//!
//! Backed by a page table so that a 32-node simulated cluster does not
//! commit 1 GB of host RAM up front; unwritten words read as zero, the
//! reset state of the SRAM.

use dv_core::packet::DV_MEMORY_WORDS;
use dv_core::Word;

/// Words per lazily allocated page (a lent run never crosses one).
pub const PAGE_WORDS: usize = 4096;

type Page = Box<[Word; PAGE_WORDS]>;

/// Word-addressable DV memory with lazy page allocation.
#[derive(Debug, Default)]
pub struct DvMemory {
    /// Flat page directory indexed by page number, grown to the highest
    /// page written; `None` is a page still in its all-zero reset state.
    pages: Vec<Option<Page>>,
}

impl DvMemory {
    /// Empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total addressable words (2²² = 32 MB).
    pub const fn words() -> usize {
        DV_MEMORY_WORDS
    }

    /// Split the `len`-word range at `addr` into (page, offset).
    fn split(addr: u32, len: usize) -> (usize, usize) {
        assert!(
            addr as usize + len <= DV_MEMORY_WORDS,
            "DV memory address {addr:#x} (+{len} words) out of range (max {DV_MEMORY_WORDS:#x} words)"
        );
        (addr as usize / PAGE_WORDS, addr as usize % PAGE_WORDS)
    }

    fn page_mut(&mut self, page: usize) -> &mut [Word; PAGE_WORDS] {
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        self.pages[page].get_or_insert_with(|| Box::new([0; PAGE_WORDS]))
    }

    /// Read one word (0 if never written — SRAM reset state).
    pub fn read(&self, addr: u32) -> Word {
        let (page, off) = Self::split(addr, 1);
        self.pages.get(page).and_then(Option::as_ref).map_or(0, |p| p[off])
    }

    /// The slot at `addr`, for a read-modify-write in one lookup.
    pub fn word_mut(&mut self, addr: u32) -> &mut Word {
        let (page, off) = Self::split(addr, 1);
        &mut self.page_mut(page)[off]
    }

    /// Write one word. A slot stores a single word: the previous value is
    /// unrecoverable (the overwrite hazard the surprise FIFO exists to
    /// avoid).
    pub fn write(&mut self, addr: u32, value: Word) {
        *self.word_mut(addr) = value;
    }

    /// Lend the `len` consecutive words starting at `addr` to `f`, in
    /// address order, one page-contiguous run at a time: a run ends at the
    /// end of the range or of a page (an even number of words). A page
    /// still in its reset state is lent as zeros and stays unallocated.
    pub fn lend_range(&self, addr: u32, mut len: usize, mut f: impl FnMut(&[Word])) {
        static RESET: [Word; PAGE_WORDS] = [0; PAGE_WORDS];
        let (mut page, mut off) = Self::split(addr, len);
        while len > 0 {
            let run = len.min(PAGE_WORDS - off);
            let words = self.pages.get(page).and_then(Option::as_deref).unwrap_or(&RESET);
            f(&words[off..off + run]);
            (len, page, off) = (len - run, page + 1, 0);
        }
    }

    /// Read `out.len()` consecutive words starting at `addr`.
    pub fn read_range(&self, addr: u32, out: &mut [Word]) {
        let mut at = 0;
        self.lend_range(addr, out.len(), |run| {
            out[at..at + run.len()].copy_from_slice(run);
            at += run.len();
        });
    }

    /// Write consecutive words starting at `addr`.
    pub fn write_range(&mut self, addr: u32, mut values: &[Word]) {
        let (mut page, mut off) = Self::split(addr, values.len());
        while !values.is_empty() {
            let (head, rest) = values.split_at(values.len().min(PAGE_WORDS - off));
            self.page_mut(page)[off..off + head.len()].copy_from_slice(head);
            (values, page, off) = (rest, page + 1, 0);
        }
    }

    /// Number of resident (allocated) pages — for memory-footprint tests.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "DV-W011 skips test code")]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = DvMemory::new();
        assert_eq!(m.read(0), 0);
        assert_eq!(m.read(DV_MEMORY_WORDS as u32 - 1), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut m = DvMemory::new();
        m.write(12345, 0xDEAD_BEEF);
        assert_eq!(m.read(12345), 0xDEAD_BEEF);
        assert_eq!(m.read(12344), 0);
    }

    #[test]
    fn last_write_wins() {
        let mut m = DvMemory::new();
        m.write(7, 1);
        m.write(7, 2);
        assert_eq!(m.read(7), 2);
    }

    #[test]
    fn range_ops_round_trip_across_pages() {
        let mut m = DvMemory::new();
        let base = PAGE_WORDS as u32 - 3; // straddles a page boundary
        let data: Vec<Word> = (0..8).map(|i| i * 11).collect();
        m.write_range(base, &data);
        let mut out = vec![0; 8];
        m.read_range(base, &mut out);
        assert_eq!(out, data);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn range_ops_span_whole_pages_and_stay_lazy() {
        let mut m = DvMemory::new();
        // Tail of page 1, all of page 2, head of page 3.
        let base = 2 * PAGE_WORDS as u32 - 3;
        let data: Vec<Word> = (1..=PAGE_WORDS as Word + 6).collect();
        m.write_range(base, &data);
        assert_eq!(m.resident_pages(), 3);
        assert_eq!(m.read(base - 1), 0);
        assert_eq!(m.read(base), 1);
        assert_eq!(m.read(base + data.len() as u32), 0);
        // A read from reset page 0 through to page 4 (beyond the
        // directory) sees zeros around the data and allocates nothing.
        let mut out = vec![7; 4 * PAGE_WORDS];
        m.read_range(5, &mut out);
        let start = base as usize - 5;
        assert!(out[..start].iter().all(|&w| w == 0));
        assert_eq!(out[start..start + data.len()], data);
        assert!(out[start + data.len()..].iter().all(|&w| w == 0));
        assert_eq!(m.resident_pages(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn range_past_the_end_panics_before_writing() {
        let mut m = DvMemory::new();
        m.write_range(DV_MEMORY_WORDS as u32 - 2, &[1, 2, 3]);
    }

    #[test]
    fn allocation_is_lazy() {
        let mut m = DvMemory::new();
        assert_eq!(m.resident_pages(), 0);
        m.write(0, 1);
        m.write((DV_MEMORY_WORDS - 1) as u32, 2);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let mut m = DvMemory::new();
        m.write(DV_MEMORY_WORDS as u32, 0);
    }
}
