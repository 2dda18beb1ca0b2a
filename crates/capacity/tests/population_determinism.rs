//! The finite-source population engine inside whole runs: random small
//! cells are reproducible and conserve their calls, and two cells are
//! pinned to literals. The sampler itself is checked against its set
//! model and for uniformity in `loadgen::population`'s unit tests.

use capacity::experiment::{EmpiricalConfig, EmpiricalRunner, MediaMode};
use proptest::prelude::*;

/// Small-N population cell cheap enough for debug-build proptest cases.
fn pop_cfg(seed: u64, subs: u64, erlangs: f64, expiry_s: f64, buckets: u32) -> EmpiricalConfig {
    let mut cfg = EmpiricalConfig::smoke(seed);
    cfg.media = MediaMode::Off;
    cfg.erlangs = erlangs;
    cfg.placement_window_s = 8.0;
    let mut pop = loadgen::PopulationConfig::for_offered_load(subs, erlangs, cfg.holding.mean());
    pop.reg_expiry_s = expiry_s;
    pop.churn_buckets = buckets;
    cfg.population = Some(pop);
    cfg
}

proptest! {
    /// Two runs of one random cell, one digest; every attempt ends in
    /// exactly one outcome.
    #[test]
    fn population_cells_are_reproducible_and_conserved(
        seed in 1u64..10_000,
        subs in 60u64..300,
        erlangs in 2.0f64..6.0,
        expiry in 20.0f64..80.0,
        buckets in 4u32..16,
    ) {
        let cfg = pop_cfg(seed, subs, erlangs, expiry, buckets);
        let a = EmpiricalRunner::run(cfg.clone());
        let b = EmpiricalRunner::run(cfg);
        // No liveness assert: a short low-rate window occasionally draws
        // zero arrivals (liveness itself is pinned by the experiment-level
        // smoke tests).
        prop_assert_eq!(a.digest(), b.digest(), "seed {}, N {}", seed, subs);
        prop_assert_eq!(a.attempted, a.completed + a.blocked + a.failed + a.abandoned);
    }
}

/// A flash crowd scales the open-loop arrival rate, which population mode
/// never reads: it used to be silently ignored.
#[test]
#[should_panic(expected = "population × FlashCrowd")]
fn population_with_a_flash_crowd_is_rejected() {
    let mut cfg = pop_cfg(7, 100, 4.0, 30.0, 8);
    cfg.faults = faults::FaultSchedule::new().at(
        3.0,
        faults::FaultKind::FlashCrowd {
            rate_multiplier: 3.0,
            duration: des::SimDuration::from_secs(2),
        },
    );
    let _ = capacity::world::World::new(cfg);
}

/// Hysteresis sheds at the PBX and arms no pacer, so it composes with a
/// population: the cell gets past `validate` (in `World::new`), sheds,
/// and every attempt ends in exactly one outcome.
#[test]
fn population_with_hysteresis_runs_and_conserves() {
    let mut cfg = pop_cfg(7, 200, 12.0, 30.0, 8);
    cfg.placement_window_s = 30.0;
    cfg.overload_law = Some(overload::ControlLaw::hysteresis_default());
    let r = EmpiricalRunner::run(cfg);
    assert!(r.completed > 0 && r.shed > 0, "{r:?}");
    assert_eq!(
        r.attempted,
        r.completed + r.blocked + r.failed + r.abandoned
    );
}

/// Golden digest of one small population cell on the default path
/// (10 000 subscribers, 20 E, seed 2015), printed at the commit before
/// the digest-registration path was rebuilt: every REGISTER, 401 and 200
/// of the churn keeps its instant and its size.
///
/// `RunResult::digest` folds message and event *totals*, and a 403 costs
/// what a 200 costs, so the literal alone cannot tell "everyone
/// registered" from "everyone was refused" (mutation-checked, see
/// EXPERIMENTS.md). The per-status counts and the conservation checks
/// pinned beside it can.
#[test]
fn golden_digest_population_cell() {
    let cfg = EmpiricalConfig::population_scale(10_000, 20.0, 2015);
    let r = EmpiricalRunner::run(cfg.clone());
    assert_eq!(r.digest(), 0xd577_c88c_dfba_861a, "{r:?}");
    assert_eq!(r.monitor.sip_response_count(401), 468);
    assert_eq!(r.monitor.sip_response_count(200), 704);
    assert_eq!(r.monitor.sip_response_count(403), 0);

    let horizon = des::SimTime::from_secs_f64(r.sim_seconds);
    let world = capacity::experiment::run_world(cfg, horizon).world;
    let confirmed: u64 = world.uacs.iter().map(|u| u.registrations_confirmed).sum();
    let tapped = world.monitor.report();
    assert_eq!(
        confirmed,
        tapped.sip_response_count(401),
        "every challenge was answered and accepted"
    );
    assert_eq!(tapped.sip_response_count(403), 0);
    let (registered, auth_failures) = world.pbxes[0].registrar.stats();
    assert_eq!(auth_failures, 0);
    assert!(registered >= confirmed);
}

/// The population engine with media on — slot recycling under live media,
/// end to end. Holds are 3 s and retirement trails a call's end by 1 s, so
/// inside the 20 s window calls finish, `RetireCall` frees their monitor
/// streams, and later calls' streams move into the freed slots. Digest and
/// report were printed at the commit before the monitor's streams moved
/// into a slab; `flows` is pinned apart because the digest does not fold
/// it.
#[test]
fn golden_digest_population_media_cell() {
    // The smoke cell (5 channels, 20 s window) with 120 subscribers
    // offering 3 E in 3-s calls over a slightly lossy wire.
    let mut cfg = EmpiricalConfig::smoke(2015);
    cfg.media = MediaMode::PerPacket;
    cfg.erlangs = 3.0;
    cfg.holding = loadgen::HoldingDist::Fixed(3.0);
    cfg.link_loss_probability = 0.002;
    cfg.population = Some(loadgen::PopulationConfig {
        reg_expiry_s: 30.0,
        churn_buckets: 8,
        ..loadgen::PopulationConfig::for_offered_load(120, 3.0, 3.0)
    });

    let r = EmpiricalRunner::run(cfg);
    assert_eq!(r.digest(), 0x5d26_8281_2ade_2c48, "{r:?}");
    let m = &r.monitor;
    assert_eq!((m.rtp_packets, m.sip_total), (6296, 648));
    assert_eq!((m.calls_scored, m.flows), (21, 42));
    assert_eq!(m.mos_mean.to_bits(), 0x4011_454d_442a_f883);
    assert_eq!(m.mos_min.to_bits(), 0x4010_e289_5b16_b0ff);
    assert_eq!(m.mean_loss.to_bits(), 0x3f7c_6f4c_3634_4c8c);
    assert_eq!(m.mean_jitter_ms.to_bits(), 0x3eb2_946a_6941_118b);
    // Five channels bound the live streams at ten: 42 scored flows means
    // the slab's slots each served several calls.
    assert_eq!(r.peak_channels, 5);
}
