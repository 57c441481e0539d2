//! A thread-scoped counting allocator.
//!
//! Every allocation made by the current thread bumps a counter kept in a
//! const-initialised thread-local, so the count never allocates and never
//! sees allocations made by other threads. `allocs_per_op` reads it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator and counts `alloc` calls per thread.
/// `alloc_zeroed` and `realloc` keep their default implementations, which
/// route through `alloc`, so they count too.
pub struct ThreadCounting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter update neither allocates nor unwinds.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` fails only while the thread's locals are torn down;
        // allocations in that window are simply not counted.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by the calling thread so far.
pub fn count() -> u64 {
    ALLOCS.with(Cell::get)
}
