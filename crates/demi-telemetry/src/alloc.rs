//! A thread-scoped counting allocator, for asserting that a hot path
//! never allocates.
//!
//! Install [`CountingAlloc`] as a binary's global allocator and wrap the
//! code under test in [`measure`]. The count lives in a const-initialised
//! thread-local `Cell` that never allocates itself, so allocations made
//! by other threads (sibling tests under the parallel harness) never land
//! in the window.
//!
//! ```
//! use demi_telemetry::alloc::{measure, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//!
//! fn main() {
//!     let mut sum = 0u64;
//!     assert_eq!(measure(|| sum += 1), 0);
//!     assert_eq!(measure(|| drop(std::hint::black_box(Box::new(sum)))), 1);
//! }
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation against the calling
/// thread.
pub struct CountingAlloc;

// SAFETY: both methods forward their arguments unchanged to `System`,
// so `System`'s guarantees are this allocator's; the count update neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator must not panic, even in thread teardown.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator, and so
        // `System`, returned for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The heap allocations the calling thread makes while running `f`.
///
/// # Panics
///
/// If [`CountingAlloc`] is not the global allocator, so a zero-allocation
/// assert can never pass by counting nothing.
pub fn measure(f: impl FnOnce()) -> u64 {
    let probe = allocs();
    drop(std::hint::black_box(Box::new(0u8)));
    assert!(
        allocs() > probe,
        "alloc::measure needs CountingAlloc as the global allocator"
    );
    let before = allocs();
    f();
    allocs() - before
}
