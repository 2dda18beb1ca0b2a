//! Process-wide sweep worker count.
//!
//! The sweep studies (Fig. 6, campaign, farm, policy) fan replications
//! out across threads. This module holds how many: one number, set once
//! by the `--threads N` CLI knob or latched from `available_parallelism`
//! on first use. A sweep runs on `min(total(), tasks)` threads, the caller
//! among them. Worker counts only affect wall-clock, never results: the
//! sweep executor is byte-identical at any width.

use std::sync::atomic::{AtomicUsize, Ordering};

/// `usize::MAX` marks "not yet configured"; first use latches the
/// default from `available_parallelism`.
static WORKERS: AtomicUsize = AtomicUsize::new(usize::MAX);

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Set the process-wide sweep worker count (the `--threads N` CLI knob).
/// Overrides any earlier value; 0 is read as 1.
pub fn configure(threads: usize) {
    WORKERS.store(threads.max(1), Ordering::SeqCst);
}

/// The configured worker count, defaulting (and latching) to
/// `available_parallelism` on first call.
pub fn total() -> usize {
    let b = WORKERS.load(Ordering::SeqCst);
    if b != usize::MAX {
        return b;
    }
    let d = default_workers();
    // Racing first calls both compute the same default; either store wins.
    let _ = WORKERS.compare_exchange(usize::MAX, d, Ordering::SeqCst, Ordering::SeqCst);
    WORKERS.load(Ordering::SeqCst)
}

/// Serializes tests that reconfigure the process-global worker count so
/// they cannot interleave with each other. Public because the count is
/// process-global: any downstream crate whose tests call [`configure`]
/// (the sweep executor's width-invariance checks, the determinism
/// proptests) must hold this guard for the same reason tests in this
/// crate do. Not for production code.
pub fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_use_latches_one_default_under_racing_callers() {
        let _guard = test_guard();
        // Un-latch the count so this test exercises the first-use path,
        // then race a handful of threads through `total()`: every caller
        // must observe the same latched value, and it must be the
        // machine default.
        WORKERS.store(usize::MAX, Ordering::SeqCst);
        let seen: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(total)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let latched = default_workers();
        assert!(
            seen.iter().all(|&b| b == latched),
            "racing first calls agree: {seen:?}"
        );
        assert_eq!(total(), latched, "later calls see the latched value");
        // Leave the count configured so later tests (under their own
        // guard) start from a known state.
        configure(latched);
    }
}
