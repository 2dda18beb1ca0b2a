//! Allocator-gated proof that the population engine's resident bindings
//! scale with the churn volume, not with the number of subscribers.
//!
//! Two pairs of runs of the same busy cell:
//!
//! * **Equal churn, N = 20 000 and 80 000.** The absolute re-REGISTER
//!   volume is held equal, so every O(load) structure — calls in flight,
//!   monitor records, scheduler occupancy, SIP transactions, and the
//!   registrar's table of refreshed ranks — is the same size in both runs
//!   and cancels out of the delta. What remains is genuinely
//!   per-subscriber state, which by design is none: the registrar keeps
//!   one install-time expiry for every rank churn has not refreshed, and
//!   the arrival sampler, churn wheel and directory uid range are O(1).
//!   The budget is 2 B per extra subscriber, so allocator rounding passes
//!   while a dense 8 B expiry per user, a per-user timer, map entry or
//!   String still trips it.
//! * **More churn, N = 80 000.** Four times the churn rate at the same N
//!   must raise peak live bytes by at least 8 B per extra refreshed rank
//!   (each refresh is challenged once, so the 401 count is the refresh
//!   count): the registrar stores an 8 B expiry for every rank it
//!   refreshed, so a smaller rise means the measurement sees nothing.
//!   The ratio of four keeps the floor clear of `Vec` doubling: a table of
//!   L expiries peaks at 12–24 B per entry while it reallocates, so a
//!   table four times as long always peaks at least 8 B per extra entry
//!   higher.
//!
//! The whole check lives in ONE test fn: the counting allocator is
//! process-global, so concurrent tests in the same binary would pollute
//! the peak.

use capacity::experiment::{EmpiricalConfig, EmpiricalRunner, MediaMode};

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;

/// The same busy cell over `subs` subscribers, re-REGISTERing about
/// `churn_per_s` of them a second: identical offered load, channels,
/// window and churn rate structure regardless of N (expiry scales with N
/// so the absolute re-REGISTER volume depends on the rate alone).
fn pop_cfg(subs: u64, churn_per_s: f64) -> EmpiricalConfig {
    let mut cfg = EmpiricalConfig::smoke(99);
    cfg.media = MediaMode::Off;
    let mut pop =
        loadgen::PopulationConfig::for_offered_load(subs, cfg.erlangs, cfg.holding.mean());
    pop.reg_expiry_s = subs as f64 / churn_per_s;
    pop.churn_buckets = 16;
    cfg.population = Some(pop);
    cfg
}

/// Peak live bytes above the pre-run floor for one full run, and the
/// number of ranks churn refreshed.
fn peak_delta_for(subs: u64, churn_per_s: f64) -> (usize, u64) {
    let cfg = pop_cfg(subs, churn_per_s);
    let floor = counting_alloc::reset_peak();
    let r = EmpiricalRunner::run(cfg);
    let peak = counting_alloc::peak_bytes();
    assert!(r.attempted > 0, "cell places calls at N = {subs}");
    assert!(r.completed > 0, "cell completes calls at N = {subs}");
    assert_eq!(r.monitor.sip_response_count(403), 0, "churn registers");
    (
        peak.saturating_sub(floor),
        r.monitor.sip_response_count(401),
    )
}

#[test]
fn population_memory_scales_with_churn_not_subscribers() {
    // Warm-up run absorbs one-time allocations (lazy statics, allocator
    // pools, thread-local scratch) so they don't land in either sample.
    let _ = peak_delta_for(10_000, 400.0);

    let small_n = 20_000u64;
    let large_n = 80_000u64;
    let (small, _) = peak_delta_for(small_n, 400.0);
    let (large, refreshed) = peak_delta_for(large_n, 400.0);

    let extra_users = (large_n - small_n) as usize;
    let delta = large.saturating_sub(small);
    let per_user = delta as f64 / extra_users as f64;
    eprintln!(
        "equal churn: peak live bytes N={small_n} -> {small}, N={large_n} -> {large}, \
         delta {delta} over {extra_users} extra users = {per_user:.2} B/user"
    );
    assert!(
        per_user <= 2.0,
        "per-subscriber peak memory {per_user:.2} B exceeds the 2 B budget \
         (delta {delta} B over {extra_users} extra subscribers) — \
         something materializes per-user state on the population path"
    );

    // The control: the gauge must see the table that churn grows.
    let (churned, churned_refreshed) = peak_delta_for(large_n, 1600.0);
    let extra_refreshed = churned_refreshed.saturating_sub(refreshed);
    let rise = churned.saturating_sub(large);
    eprintln!(
        "more churn at N={large_n}: {refreshed} -> {churned_refreshed} refreshed ranks, \
         peak live bytes {large} -> {churned} (+{rise})"
    );
    assert!(
        extra_refreshed >= 10_000,
        "four times the churn rate refreshed only {extra_refreshed} more ranks"
    );
    assert!(
        rise >= 8 * extra_refreshed as usize,
        "peak live bytes rose {rise} B for {extra_refreshed} extra refreshed ranks, \
         below 8 B per rank where the registrar alone writes 10 B per refreshed rank \
         — the measurement is broken"
    );
}
