//! DV-W009 negative: every unsafe states the invariant that makes it
//! sound, on the line directly above it.
fn read_word(buf: &[u64], idx: usize) -> u64 {
    // SAFETY: idx is bounds-checked by the caller against buf.len().
    unsafe { *buf.as_ptr().add(idx) }
}

fn read_first(buf: &[u64]) -> u64 {
    let first = buf.as_ptr();
    // SAFETY: buf is non-empty by construction.
    unsafe { *first }
}
