//! Live-heap accounting: a pass-through global allocator that, while
//! switched on, tracks the bytes allocated and not yet freed and their
//! high-water mark.
//!
//! Peak RSS is a poor memory figure for this program: every search
//! spawns fresh stage-count threads, glibc gives threads their own
//! malloc arenas, and freed memory stays resident in those arenas by
//! amounts that depend on which thread landed on which arena. Identical
//! runs differ by 20–25% in peak RSS for that reason alone. The live heap
//! is what the program asked for, so it moves only when the program's
//! allocations do.
//!
//! Every allocation goes to the system allocator unchanged. The
//! bookkeeping — one shared atomic add per allocation and free — runs
//! only between [`start`] and [`stop`], so timed passes pay nothing but
//! one read of a flag that never changes while they run. (A per-thread
//! batch would be cheaper, but the search's stage threads allocate what
//! their parent frees, so each exiting thread would take an unpublished
//! remainder with it and the total would drift upwards.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: isize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(bytes: isize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// The counting allocator.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only atomics, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size() as isize);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            let delta = new_size as isize - layout.size() as isize;
            if delta >= 0 {
                grow(delta);
            } else {
                shrink(-delta);
            }
        }
        p
    }
}

/// Starts counting from zero. Frees of memory allocated before the
/// start count against the total, so the figures below are growth over
/// what the heap held at the start.
pub fn start() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
}

/// Restarts the high-water mark from the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// High-water mark of the live heap since the last [`start`] or
/// [`reset_peak`], MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed).max(0) as f64 / (1u64 << 20) as f64
}

/// Stops counting.
pub fn stop() {
    COUNTING.store(false, Ordering::Relaxed);
}
