//! Counting global allocator: heap allocations and bytes requested while
//! the window is armed (the timed `ingest` + `process_step_stats` calls).
//!
//! Counts are kept in cache-line-padded slots picked per thread, so the
//! two worker threads of `fleet_sharded` do not bounce one line between
//! cores on every allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

const SLOTS: usize = 8;

#[repr(align(128))]
struct Slot {
    calls: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot { calls: AtomicU64::new(0), bytes: AtomicU64::new(0) };
static COUNTS: [Slot; SLOTS] = [EMPTY; SLOTS];
static ARMED: AtomicBool = AtomicBool::new(false);
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator can never allocate or run during teardown.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The allocator installed by the bench binary: `System` plus counters.
pub struct CountingAlloc;

impl CountingAlloc {
    fn note(size: usize) {
        // Relaxed: the flag and counters are statistics; they publish no
        // other data. The driver thread arms and reads them only between
        // steps, when no worker thread is alive.
        if !ARMED.load(Ordering::Relaxed) {
            return;
        }
        let slot = MY_SLOT.with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            s.get()
        });
        COUNTS[slot].calls.fetch_add(1, Ordering::Relaxed);
        COUNTS[slot].bytes.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch only atomics and a const-initialised
// thread-local `Cell`, so no method allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: as above; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Starts counting.
pub fn arm() {
    ARMED.store(true, Ordering::Relaxed);
}

/// Stops counting.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far over all armed windows.
pub fn totals() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(c, b), s| {
        (c + s.calls.load(Ordering::Relaxed), b + s.bytes.load(Ordering::Relaxed))
    })
}
