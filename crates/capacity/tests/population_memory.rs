//! Allocator-gated proof that the population engine's memory is
//! O(active calls), not O(subscribers): run the same offered load over
//! two population sizes and bound the peak-live-bytes delta per extra
//! subscriber.
//!
//! At equal offered load every O(active) structure — calls in flight,
//! monitor records, scheduler occupancy, SIP transactions — is the same
//! size in both runs and cancels out of the delta. What remains is the
//! genuinely per-subscriber state, which by design is one compact SoA
//! expiry slot in the registrar (8 bytes) plus O(1) engine state
//! (aggregated sampler, churn wheel, directory uid range). The
//! budget below is a loose 64 B/subscriber so allocator rounding and
//! incidental growth don't flake the gate, while a per-user timer, map
//! entry, or String (≥ 48 B each, and any regression would add at least
//! one) still trips it.
//!
//! The whole check lives in ONE test fn: the counting allocator is
//! process-global, so concurrent tests in the same binary would pollute
//! the peak.

use capacity::experiment::{EmpiricalConfig, EmpiricalRunner, MediaMode};

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;

/// The same busy cell over `subs` subscribers: identical offered load,
/// channels, window and churn *rate structure* regardless of N (expiry
/// scales with N so the absolute re-REGISTER volume stays equal too).
fn pop_cfg(subs: u64) -> EmpiricalConfig {
    let mut cfg = EmpiricalConfig::smoke(99);
    cfg.media = MediaMode::Off;
    let mut pop =
        loadgen::PopulationConfig::for_offered_load(subs, cfg.erlangs, cfg.holding.mean());
    // Hold the churn volume constant across sizes: N/expiry ≈ 400/s of
    // wheel-driven re-REGISTERs either way, so the SIP-side transient
    // allocations cancel in the delta like every other O(load) term.
    pop.reg_expiry_s = subs as f64 / 400.0;
    pop.churn_buckets = 16;
    cfg.population = Some(pop);
    cfg
}

/// Peak live bytes above the pre-run floor for one full run.
fn peak_delta_for(subs: u64) -> usize {
    let cfg = pop_cfg(subs);
    let floor = counting_alloc::reset_peak();
    let r = EmpiricalRunner::run(cfg);
    let peak = counting_alloc::peak_bytes();
    assert!(r.attempted > 0, "cell places calls at N = {subs}");
    assert!(r.completed > 0, "cell completes calls at N = {subs}");
    peak.saturating_sub(floor)
}

#[test]
fn population_memory_is_o_active_not_o_subscribers() {
    // Warm-up run absorbs one-time allocations (lazy statics, allocator
    // pools, thread-local scratch) so they don't land in either sample.
    let _ = peak_delta_for(10_000);

    let small_n = 20_000u64;
    let large_n = 80_000u64;
    let small = peak_delta_for(small_n);
    let large = peak_delta_for(large_n);

    let extra_users = (large_n - small_n) as usize;
    let delta = large.saturating_sub(small);
    let per_user = delta / extra_users;
    eprintln!(
        "peak live bytes: N={small_n} -> {small}, N={large_n} -> {large}, \
         delta {delta} over {extra_users} extra users = {per_user} B/user"
    );
    // The registrar's SoA expiry slot accounts for 8 B/user; everything
    // else the population adds must be O(1) or O(active).
    assert!(
        per_user <= 64,
        "per-subscriber peak memory {per_user} B exceeds the 64 B budget \
         (delta {delta} B over {extra_users} extra subscribers) — \
         something materializes per-user state on the population hot path"
    );
    // And the gate must actually be measuring something: the 8 B/user
    // registrar slots alone guarantee a visible positive delta.
    assert!(
        delta >= extra_users * 8,
        "delta {delta} B is below the registrar's own 8 B/user floor — \
         the measurement is broken"
    );
}
