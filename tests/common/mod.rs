//! Counting global allocator shared by the `*_alloc` tests: wraps the
//! system allocator and counts allocations — and remembers the largest
//! one — **per thread**, so a measured window sees only what the measuring
//! thread allocated — libtest's own threads allocate whenever they like.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers a TLS dtor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: pure pass-through to the System allocator plus two thread-local
// cell updates; all GlobalAlloc contract obligations are System's own.
// `realloc` is the trait's default (alloc + copy + dealloc), so growing a
// vector counts, at its new size.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Ignored on a thread whose TLS is already torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: layout is forwarded unchanged to the System allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr/layout came from the matching System.alloc above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `window` and return how many heap allocations the calling thread
/// made inside it.
pub fn allocations_in(window: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.get();
    window();
    ALLOCATIONS.get() - before
}

/// Run `window` and return the size in bytes of the largest single heap
/// allocation the calling thread made inside it (0 if it made none).
#[allow(dead_code)] // each `*_alloc` test crate uses its own subset
pub fn largest_allocation_in(window: impl FnOnce()) -> usize {
    LARGEST.set(0);
    window();
    LARGEST.get()
}
