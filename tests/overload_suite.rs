//! Integration: the pluggable overload-control suite end-to-end.
//!
//! The `overload` crate's laws plug into the PBX admission hook and (for
//! the feedback family) pace the UAC side through `X-Overload-Control`
//! response headers. These tests pin the properties the suite is built
//! on:
//!
//!  1. the `Hysteresis503` law is pinned to the [`RunResult::digest`] of
//!     the inline hysteresis it replaced, so the law cannot silently
//!     move the physics;
//!  2. every law runs a flash-crowd scenario deterministically and
//!     carries traffic;
//!  3. rate/window feedback actually reaches the caller and changes the
//!     run (the feedback header is on the wire);
//!  4. MOS-aware admission sheds on a degraded link even with free
//!     channels — the 3D-CAC property classic CAC cannot express.

use asterisk_capacity::prelude::*;
use capacity::experiment::MediaMode;
use des::SimDuration;
use loadgen::{HoldingDist, RetryPolicy};

/// Flash-crowd cell: a small pool driven hard enough that admission
/// control has real work to do (mirrors `tests/fault_schedule.rs`).
fn flash_config(seed: u64) -> EmpiricalConfig {
    let mut cfg = EmpiricalConfig::smoke(seed);
    cfg.erlangs = 6.0;
    cfg.channels = 12;
    cfg.holding = HoldingDist::Fixed(10.0);
    cfg.placement_window_s = 80.0;
    cfg.user_pool = 30;
    cfg.media = MediaMode::Off;
    cfg.faults = FaultSchedule::new().at(
        30.0,
        FaultKind::FlashCrowd {
            rate_multiplier: 8.0,
            duration: SimDuration::from_secs(10),
        },
    );
    cfg.retry = Some(RetryPolicy {
        max_retries: 4,
        base_backoff: SimDuration::from_secs(2),
        max_backoff: SimDuration::from_secs(16),
    });
    cfg
}

/// Digest of this cell under the inline two-watermark shed that
/// `Hysteresis503` replaced, printed from the last commit that still
/// carried it (the two paths were digest-equal there).
const LEGACY_INLINE_SHED_DIGEST: u64 = 0x3858_75c2_f192_63d2;

#[test]
fn pluggable_hysteresis_digest_matches_legacy_inline_shed() {
    let mut cfg = flash_config(303);
    cfg.overload_law = Some(ControlLaw::Hysteresis {
        high_watermark: 0.85,
        low_watermark: 0.5,
        retry_after: SimDuration::from_secs(4),
    });
    let run = EmpiricalRunner::run(cfg);

    // Engaged: this scenario exercises the shed/retry path, not just the
    // idle fast path.
    assert!(run.shed > 0, "hysteresis engaged");
    // The strong claim: identical physics, down to every event count
    // and float bit pattern the digest folds.
    assert_eq!(
        run.digest(),
        LEGACY_INLINE_SHED_DIGEST,
        "Hysteresis503 must replay the legacy inline shed exactly: {run:?}"
    );
}

#[test]
fn every_law_survives_a_flash_crowd_deterministically() {
    let laws = [
        ControlLaw::hysteresis_default(),
        ControlLaw::rate_based_for(2.0),
        ControlLaw::window_based_for(12),
        ControlLaw::signal_based_default(),
        ControlLaw::mos_cac_default(),
    ];
    for law in laws {
        let run_once = || {
            let mut cfg = flash_config(404);
            cfg.overload_law = Some(law);
            EmpiricalRunner::run(cfg)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(
            a.digest(),
            b.digest(),
            "law {} must be deterministic under a fixed seed",
            law.name()
        );
        assert!(a.goodput > 0, "law {} carried traffic: {a:?}", law.name());
        assert_eq!(a.goodput, a.completed + a.shed_then_ok, "{}", law.name());
    }
}

#[test]
fn rate_feedback_reaches_the_caller_and_changes_the_run() {
    // Same cell, no admission law: the baseline the feedback run must
    // diverge from (the X-Overload-Control header rides every Trying,
    // and the caller-side pacer reshapes the INVITE schedule).
    let plain = EmpiricalRunner::run(flash_config(505));

    let mut cfg = flash_config(505);
    cfg.overload_law = Some(ControlLaw::rate_based_for(2.0));
    let paced = EmpiricalRunner::run(cfg);

    assert_ne!(
        plain.digest(),
        paced.digest(),
        "rate feedback must be visible in the physics"
    );
    assert!(
        paced.goodput > 0,
        "paced run still carries calls: {paced:?}"
    );
    // Pacing defers intents rather than firing them into a full pool:
    // the paced run never hard-blocks more calls than the uncontrolled
    // one.
    assert!(
        paced.blocked <= plain.blocked,
        "pacing should not increase hard blocks: paced {} vs plain {}",
        paced.blocked,
        plain.blocked
    );
}

#[test]
fn window_feedback_caps_concurrency_through_the_crowd() {
    let mut cfg = flash_config(606);
    cfg.overload_law = Some(ControlLaw::window_based_for(12));
    let r = EmpiricalRunner::run(cfg);
    assert!(r.goodput > 0, "window-paced run carries calls: {r:?}");
    // The caller-side window is sized to the channel pool, so admitted
    // concurrency can never overrun it by more than the signalling in
    // flight.
    assert!(
        r.peak_channels <= 12,
        "window cap respected: peak {} channels",
        r.peak_channels
    );
}

#[test]
fn mos_cac_sheds_on_degraded_link_despite_free_channels() {
    // Media on and a badly lossy wire: channel occupancy stays low but
    // predicted MOS collapses below the 3.5 floor, so the 3D-CAC law
    // must shed where classic channel-counting CAC admits.
    let mut cfg = EmpiricalConfig::smoke(707);
    cfg.erlangs = 3.0;
    cfg.channels = 50;
    cfg.holding = HoldingDist::Fixed(10.0);
    cfg.placement_window_s = 40.0;
    cfg.link_loss_probability = 0.12;
    cfg.overload_law = Some(ControlLaw::mos_cac_default());
    let r = EmpiricalRunner::run(cfg);

    assert!(
        r.shed > 0,
        "MOS-aware admission sheds on predicted quality: {r:?}"
    );
    assert!(
        r.peak_channels < 50,
        "the pool never filled — quality, not capacity, was the gate"
    );

    // Heal the wire and the same cell admits everything.
    let mut clean = EmpiricalConfig::smoke(707);
    clean.erlangs = 3.0;
    clean.channels = 50;
    clean.holding = HoldingDist::Fixed(10.0);
    clean.placement_window_s = 40.0;
    clean.link_loss_probability = 0.0;
    clean.overload_law = Some(ControlLaw::mos_cac_default());
    let c = EmpiricalRunner::run(clean);
    assert_eq!(c.shed, 0, "clean link, nothing shed: {c:?}");
    assert!(c.completed > 0, "clean link carries calls");
}
