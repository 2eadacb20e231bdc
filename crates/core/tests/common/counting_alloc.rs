//! A counting global allocator for tests that bound what a warm path
//! asks the heap for. Counters are per thread, so tests running
//! concurrently in one binary don't bleed into each other; one more
//! counts every thread's allocations, for a binary whose single test
//! hands work to threads of its own.
//!
//! Included by file path (`#[path = ".../counting_alloc.rs"] mod
//! counting_alloc;`), not through `common/mod.rs`: the test binary that
//! includes it gets the `#[global_allocator]`, and `prop_pipeline.rs`
//! does not want one.
#![allow(dead_code)] // each including test reads the counters it bounds

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    pub static ALLOCS: Cell<u64> = const { Cell::new(0) };
    pub static BYTES: Cell<u64> = const { Cell::new(0) };
    pub static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Allocations made by every thread of the process.
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// One request of `size` bytes (an `alloc`, or a `realloc` to `size`).
fn count(size: usize) {
    PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + size as u64));
    LARGEST.with(|c| c.set(c.get().max(size)));
}

struct CountingAlloc;

// SAFETY: defers to `System` for every operation; the thread-locals are
// `Cell`s of integers with const init (no lazy allocation, no
// destructor), so counting from inside the allocator cannot recurse.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

pub fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

pub fn bytes_on_this_thread() -> u64 {
    BYTES.with(|c| c.get())
}

pub fn allocs_in_process() -> u64 {
    PROCESS_ALLOCS.load(Ordering::Relaxed)
}
