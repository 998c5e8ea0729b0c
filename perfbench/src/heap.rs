//! Live-heap accounting: the system allocator, wrapped to keep the bytes
//! currently allocated and their high-water mark while counting is on.
//!
//! Peak resident memory (`VmHWM`) of a multi-threaded process depends on
//! how glibc happens to spread allocations over its per-thread arenas,
//! and moved by a third between runs of one served workload. The peak of
//! live heap bytes is what the program asked for, so it repeats.
//!
//! Counting is on from process start until [`stop_counting`]. The
//! counters are shared by every thread, so the benchmark measures peak
//! heap in an untimed pass and stops counting before any timed phase.
//! After that each allocator call costs one relaxed load of a flag that
//! never changes again, and no shared counter is written.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(true);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grew(by: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let now = LIVE.fetch_add(by as isize, Ordering::Relaxed) + by as isize;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrank(by: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(by as isize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counters
// are statistics only and publish no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// High-water mark of live heap bytes while counting was on, in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Stops counting for the rest of the process.
pub fn stop_counting() {
    COUNTING.store(false, Ordering::Relaxed);
}
