//! Process-wide worker-thread budget.
//!
//! The sweep studies (Fig. 6, campaign, farm, policy) fan replications
//! out across threads, and sweeps can nest. Each layer sizing itself from
//! `available_parallelism` alone would oversubscribe the machine. This
//! module is the arbiter: one global budget, sized once, from which every
//! executor borrows workers and returns them when it joins.
//!
//! The budget is advisory-but-honoured: [`acquire`] never blocks and
//! never grants zero — a caller that finds the budget exhausted runs on
//! its own thread (one worker), which is exactly the degradation you
//! want when replication-level parallelism already covers the cores.
//! Worker counts only affect wall-clock, never results: the sweep
//! executor is byte-identical at any width, so clamping is invisible to
//! science.

use std::sync::atomic::{AtomicUsize, Ordering};

/// `usize::MAX` marks "not yet configured"; first use latches the
/// default from `available_parallelism`.
static BUDGET: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Workers currently borrowed (beyond the borrowing threads themselves).
static IN_USE: AtomicUsize = AtomicUsize::new(0);

fn default_budget() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Set the process-wide worker budget (the `--threads N` CLI knob).
/// Overrides any earlier value; pass the number of cores you want the
/// whole process — all nesting levels combined — to use.
pub fn configure(threads: usize) {
    BUDGET.store(threads.max(1), Ordering::SeqCst);
}

/// The configured budget, defaulting (and latching) to
/// `available_parallelism` on first call.
pub fn total() -> usize {
    let b = BUDGET.load(Ordering::SeqCst);
    if b != usize::MAX {
        return b;
    }
    let d = default_budget();
    // Racing first calls both compute the same default; either store wins.
    let _ = BUDGET.compare_exchange(usize::MAX, d, Ordering::SeqCst, Ordering::SeqCst);
    BUDGET.load(Ordering::SeqCst)
}

/// A borrowed slice of the worker budget. Dropping it returns the
/// workers.
#[derive(Debug)]
pub struct Permit {
    granted: usize,
}

impl Permit {
    /// How many worker threads this permit covers (≥ 1: the caller's own
    /// thread is always available even when the budget is exhausted).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.granted.max(1)
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        if self.granted > 0 {
            IN_USE.fetch_sub(self.granted, Ordering::SeqCst);
        }
    }
}

/// Borrow up to `want` workers from the budget without blocking.
///
/// Grants `min(want, free)` slots; if nothing is free the permit still
/// reports one worker (the caller runs inline) but holds no slots, so
/// nested acquisitions cannot multiply threads past the budget.
pub fn acquire(want: usize) -> Permit {
    let budget = total();
    let mut free = budget.saturating_sub(IN_USE.load(Ordering::SeqCst));
    loop {
        let take = want.min(free);
        if take == 0 {
            return Permit { granted: 0 };
        }
        let prev = IN_USE.fetch_add(take, Ordering::SeqCst);
        if prev + take <= budget {
            return Permit { granted: take };
        }
        // Raced past the budget: give the over-grab back and retry with
        // the shrunken view.
        IN_USE.fetch_sub(take, Ordering::SeqCst);
        free = budget.saturating_sub(prev);
    }
}

/// Serializes tests that reconfigure the process-global budget so they
/// cannot interleave with each other. Public because the budget is
/// process-global: any downstream crate whose tests call [`configure`]
/// (the sweep executor's width-invariance checks, the determinism
/// proptests) must hold this guard for the same reason tests in this
/// crate do. Not for production code — holding it does not serialize
/// [`acquire`].
pub fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The budget statics are process-global, so exercise the whole
    // lifecycle in one test to avoid cross-test interference.
    #[test]
    fn budget_grants_and_returns() {
        let _guard = test_guard();
        configure(4);
        assert_eq!(total(), 4);
        let a = acquire(3);
        assert_eq!(a.workers(), 3);
        let b = acquire(3);
        assert_eq!(b.workers(), 1, "only one slot left");
        let c = acquire(8);
        assert_eq!(c.workers(), 1, "exhausted budget still yields a worker");
        drop(a);
        let d = acquire(8);
        assert_eq!(d.workers(), 3, "released workers are reusable");
        drop((b, c, d));
        let e = acquire(4);
        assert_eq!(e.workers(), 4);
        configure(1);
        drop(e);
        let f = acquire(2);
        assert_eq!(f.workers(), 1, "reconfigure shrinks the budget");
    }

    #[test]
    fn first_use_latches_one_default_under_racing_callers() {
        let _guard = test_guard();
        // Un-latch the budget so this test exercises the first-use path,
        // then race a handful of threads through `total()`: every caller
        // must observe the same latched value, and it must be the
        // machine default.
        BUDGET.store(usize::MAX, Ordering::SeqCst);
        let seen: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(total)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let latched = default_budget();
        assert!(
            seen.iter().all(|&b| b == latched),
            "racing first calls agree: {seen:?}"
        );
        assert_eq!(total(), latched, "later calls see the latched value");
        // Leave the budget configured so later tests (under their own
        // guard) start from a known state.
        configure(latched);
    }

    #[test]
    fn exhausted_budget_never_grants_zero_workers() {
        let _guard = test_guard();
        configure(2);
        let hog = acquire(2);
        assert_eq!(hog.workers(), 2);
        // With every slot taken, concurrent acquirers still each get a
        // worker (their own thread) — the inline-degradation guarantee.
        let widths: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(|| acquire(3).workers())).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            widths.iter().all(|&w| w == 1),
            "exhausted acquires: {widths:?}"
        );
        drop(hog);
        // The zero-slot permits held no budget, so nothing leaked: the
        // full budget is borrowable again.
        assert_eq!(acquire(2).workers(), 2);
    }

    #[test]
    fn permit_returns_workers_on_drop_in_any_order() {
        let _guard = test_guard();
        configure(4);
        let a = acquire(2);
        let b = acquire(2);
        assert_eq!((a.workers(), b.workers()), (2, 2));
        // Return out of acquisition order; each drop frees exactly its
        // own slots.
        drop(a);
        assert_eq!(acquire(4).workers(), 2, "a's two slots came back");
        drop(b);
        assert_eq!(acquire(4).workers(), 4, "all four slots back");
        // A permit granted zero slots must not "return" phantom workers.
        let hog = acquire(4);
        let empty = acquire(1);
        assert_eq!(empty.workers(), 1);
        drop(empty);
        assert_eq!(acquire(4).workers(), 1, "zero-slot drop freed nothing");
        drop(hog);
    }
}
