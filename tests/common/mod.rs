//! Counting global allocator shared by the `*_alloc` tests: wraps the
//! system allocator and counts allocations **per thread**, so a measured
//! window sees only what the measuring thread allocated — libtest's own
//! threads allocate whenever they like.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers a TLS dtor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: pure pass-through to the System allocator plus one thread-local
// counter bump; all GlobalAlloc contract obligations are System's own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Ignored on a thread whose TLS is already torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
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
