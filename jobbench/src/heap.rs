//! Bytes the process holds from the allocator, and their peak.
//!
//! The resident set (`VmHWM`) of one job jumps between runs by up to a
//! quarter: which malloc arena a rank thread draws, and the order in which
//! ranks grow the shared result vector, decide how much freed memory stays
//! resident.  The bytes held are the same in every run, so the benchmark's
//! memory metric counts them with this wrapper around the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

pub struct Counting;

static HELD: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let held = HELD.fetch_add(bytes, Relaxed) + bytes;
    if held > PEAK.load(Relaxed) {
        PEAK.fetch_max(held, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the wrapper only
// counts sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        HELD.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                HELD.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        new
    }
}

/// Restart the peak from what is held now.
pub fn reset_peak() {
    PEAK.store(HELD.load(Relaxed), Relaxed);
}

/// The peak since the last reset, in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}
