//! Property tests for the finite-source population engine: the
//! aggregated O(active) arrival sampler must be draw-for-draw identical
//! to the per-user-timer reference at small N — across both scheduler
//! backends. The coupling
//! construction hands both engines the same thinned-gap and
//! winner-ordinal draws, so any digest divergence means the fast path
//! changed the physics, not just the bookkeeping.

use capacity::experiment::{EmpiricalConfig, EmpiricalRunner, MediaMode, SimOptions};
use des::SchedulerKind;
use proptest::prelude::*;
use proptest::sample::select;

/// Small-N population cell cheap enough for the O(N)-per-arrival
/// reference engine and for debug-build proptest cases.
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
    /// Aggregated vs reference engine on a sampled future-event-list
    /// backend: two runs, one digest. Across the 64 cases both backends
    /// see dozens of randomized cells each.
    #[test]
    fn aggregated_matches_reference_on_both_backends(
        seed in 1u64..10_000,
        subs in 60u64..300,
        erlangs in 2.0f64..6.0,
        expiry in 20.0f64..80.0,
        buckets in 4u32..16,
        scheduler in select(vec![SchedulerKind::Wheel, SchedulerKind::Heap]),
    ) {
        let agg = pop_cfg(seed, subs, erlangs, expiry, buckets);
        let mut rf = agg.clone();
        rf.population.as_mut().expect("population cell").reference = true;
        let opts = SimOptions { scheduler, ..SimOptions::default() };
        let a = EmpiricalRunner::run_with(agg, opts);
        let r = EmpiricalRunner::run_with(rf, opts);
        // No liveness assert: a short low-rate window occasionally draws
        // zero arrivals, and the engines must agree on empty cells too
        // (liveness itself is pinned by the experiment-level smoke tests).
        prop_assert_eq!(
            a.digest(), r.digest(),
            "aggregated vs reference diverged on {:?} (seed {}, N {}, {} vs {} events)",
            scheduler, seed, subs, a.events_processed, r.events_processed
        );
    }
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
    assert_eq!(
        confirmed,
        world.monitor.sip_response_count(401),
        "every challenge was answered and accepted"
    );
    assert_eq!(world.monitor.sip_response_count(403), 0);
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
    cfg.media = MediaMode::PerPacket { encode_every: 25 };
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
