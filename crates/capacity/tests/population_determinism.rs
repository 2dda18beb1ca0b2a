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
