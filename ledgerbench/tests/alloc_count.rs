//! The counting allocator counts exactly. This file holds one test so
//! that no other test thread allocates while it measures.

use ledgerbench::alloc;

#[test]
fn counts_a_known_allocation_exactly() {
    let a0 = alloc::allocs();
    let live0 = alloc::live_bytes();
    let phase = alloc::HeapPhase::start();
    let block = std::hint::black_box(vec![7u8; 4096]);
    assert_eq!(alloc::allocs() - a0, 1, "one Vec is one allocation");
    assert_eq!(alloc::live_bytes() - live0, 4096);
    assert_eq!(phase.peak_above_base(), 4096);
    drop(block);
    assert_eq!(alloc::live_bytes(), live0, "freeing returns the bytes");
    assert_eq!(phase.peak_above_base(), 4096, "the peak stays");

    let mut v: Vec<u64> = Vec::with_capacity(4);
    let a1 = alloc::allocs();
    v.extend_from_slice(&[1, 2, 3, 4]);
    assert_eq!(
        alloc::allocs(),
        a1,
        "filling reserved capacity allocates nothing"
    );
    v.push(5);
    assert_eq!(alloc::allocs() - a1, 1, "growing reallocates once");
}
