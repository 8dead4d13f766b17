//! A counting global allocator.
//!
//! Wraps [`System`] and keeps three process-wide statistics: the number
//! of allocations (fresh blocks and reallocations), the live heap bytes,
//! and the high-water mark of live bytes since the last
//! [`reset_peak`]. Every thread's allocations count, so a real-mode
//! workload's reader and writer threads are included.
//!
//! The counters are `Relaxed` atomics: they are statistics and publish
//! no other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The counting allocator; installed as the global allocator in `lib.rs`.
pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Allocations (including reallocations) since the process started.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Live heap bytes right now.
pub fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// Restart the high-water mark at the current live level.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Highest live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Measures the heap growth of successive operations: each one's
/// high-water mark of live bytes above the level at which it started.
pub struct HeapPhase {
    base: usize,
}

impl HeapPhase {
    /// Start the first operation at the current live level.
    pub fn start() -> HeapPhase {
        reset_peak();
        HeapPhase { base: live_bytes() }
    }

    /// Peak live bytes above the current operation's starting level.
    pub fn peak_above_base(&self) -> usize {
        peak_bytes().saturating_sub(self.base)
    }

    /// End the current operation, returning its
    /// [`HeapPhase::peak_above_base`], and start the next one at the
    /// current live level.
    pub fn take(&mut self) -> usize {
        let peak = self.peak_above_base();
        reset_peak();
        self.base = live_bytes();
        peak
    }
}
