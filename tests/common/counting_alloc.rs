//! The one counting global allocator behind the allocation-regression
//! tests (`tests/rtp_zero_copy.rs`, `tests/vad_zero_alloc.rs`,
//! `tests/scheduler_memory.rs`, `tests/sip_zero_alloc.rs`, `tests/call_alloc_gate.rs`,
//! `tests/register_alloc_gate.rs`, `tests/signalling_alloc_budget.rs`,
//! `crates/capacity/tests/population_memory.rs`). Each test binary pulls
//! this file in with `#[path = "…/common/counting_alloc.rs"] mod
//! counting_alloc;`, which also installs the allocator for that binary.
//!
//! Two independent gauges:
//!
//! * **allocation counts**, scoped to the calling thread between
//!   [`start_counting`] and [`stop_counting`] — libtest's main thread wakes
//!   while it waits and allocates a handful of bookkeeping objects, which
//!   must not pollute a "zero allocations" claim;
//! * **live and peak bytes**, process-wide and always on.

#![allow(dead_code)] // every including test uses a different subset

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

thread_local! {
    // Const initialisation keeps the TLS access in the allocator
    // reentrancy-free (no lazy-init allocation, no destructor).
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static TOTAL: Cell<u64> = const { Cell::new(0) };
    static WATCHED: Cell<u64> = const { Cell::new(0) };
    static WATCH: Cell<&'static [usize]> = const { Cell::new(&[]) };
}

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the gauges are const-initialised
// thread-local `Cell`s and lock-free atomics, so the counting path neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            TOTAL.with(|t| t.set(t.get() + 1));
            if WATCH.with(Cell::get).contains(&layout.size()) {
                WATCHED.with(|w| w.set(w.get() + 1));
            }
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations seen on this thread between [`start_counting`] and
/// [`stop_counting`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Every allocation.
    pub total: u64,
    /// Those whose size is one of the watched sizes.
    pub watched: u64,
}

/// Zero this thread's counters and start counting its allocations;
/// allocations of exactly one of the `watch` sizes are also tallied apart.
pub fn start_counting(watch: &'static [usize]) {
    TOTAL.with(|t| t.set(0));
    WATCHED.with(|w| w.set(0));
    WATCH.with(|w| w.set(watch));
    COUNTING.with(|c| c.set(true));
}

/// Stop counting on this thread and read the counters.
pub fn stop_counting() -> Counts {
    COUNTING.with(|c| c.set(false));
    Counts {
        total: TOTAL.with(Cell::get),
        watched: WATCHED.with(Cell::get),
    }
}

/// Re-arm the process-wide high-water mark at the current live byte
/// count, and return that floor.
pub fn reset_peak() -> usize {
    let floor = LIVE.load(Relaxed);
    PEAK.store(floor, Relaxed);
    floor
}

/// Highest live byte count since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}
