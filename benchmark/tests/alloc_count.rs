//! The counting allocator counts a known allocation pattern exactly.
//!
//! An integration test of its own: it is the only test in its binary, so
//! no other test thread allocates while the window is armed.

use servebench::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn counts_a_known_pattern_exactly() {
    let before = alloc::totals();
    alloc::arm();
    let a = vec![0u8; 100];
    let mut b: Vec<u64> = Vec::with_capacity(4);
    b.extend([1, 2, 3, 4]);
    b.reserve_exact(12);
    let c = Box::new([0u32; 8]);
    alloc::disarm();
    let after = alloc::totals();
    std::hint::black_box((&a, &b, &c));
    // vec (100 B) + with_capacity (32 B) + realloc to 16 × 8 (128 B) + box (32 B).
    assert_eq!(after.0 - before.0, 4);
    assert_eq!(after.1 - before.1, 100 + 32 + 128 + 32);
    // Allocations outside the armed window are not counted.
    let d = vec![0u8; 64];
    std::hint::black_box(&d);
    assert_eq!(alloc::totals(), after);
}
