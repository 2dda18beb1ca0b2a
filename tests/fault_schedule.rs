//! Integration: the fault-injection and overload-control layer.
//!
//! Three end-to-end scenarios on the simulated testbed:
//!  1. a mid-run link partition drops the answer rate, healing restores
//!     it, and the recovery analysis reports a positive time-to-recover;
//!  2. a PBX crash flushes channels and registrations, the supervisor
//!     restarts it, endpoints re-REGISTER and the system re-converges;
//!  3. a flash crowd against a small pool: with overload control on, the
//!     PBX sheds with 503 + Retry-After, UACs retry after backoff and
//!     complete, and goodput beats the same scenario without shedding.
//!
//! Every scenario is deterministic: the same seed yields the same run.

use asterisk_capacity::prelude::*;
use capacity::experiment::{run_world, EmpiricalRunner, MediaMode};
use capacity::figures::recovery_timeline;
use capacity::world::pbx_node;
use des::{SimDuration, SimTime};
use loadgen::{HoldingDist, RetryPolicy};
use netsim::topology::nodes;

/// Signalling-only base config with enough traffic for a readable
/// answers-per-second signal (~5 calls/s).
fn base_config(seed: u64) -> EmpiricalConfig {
    let mut cfg = EmpiricalConfig::smoke(seed);
    cfg.erlangs = 50.0;
    cfg.channels = 100;
    cfg.holding = HoldingDist::Fixed(10.0);
    cfg.placement_window_s = 100.0;
    cfg.user_pool = 40;
    cfg.media = MediaMode::Off;
    cfg
}

#[test]
fn link_partition_dips_answer_rate_and_recovers_after_heal() {
    let mut cfg = base_config(101);
    cfg.faults = FaultSchedule::new()
        .at(
            40.0,
            FaultKind::LinkPartition {
                a: pbx_node(0),
                b: nodes::SWITCH,
            },
        )
        .at(
            55.0,
            FaultKind::LinkHeal {
                a: pbx_node(0),
                b: nodes::SWITCH,
            },
        );
    let r = EmpiricalRunner::run(cfg.clone());
    assert!(r.completed > 100, "traffic flowed: {}", r.completed);

    // The heal is a consequence, not a disruption: one recovery entry.
    assert_eq!(r.recoveries.len(), 1, "{:?}", r.recoveries);
    let rec = &r.recoveries[0];
    assert!(rec.baseline_rate > 2.0, "pre-fault rate: {rec:?}");
    let ttr = rec.time_to_recover_s.expect("recovers after the heal");
    // Dark for 15 s: recovery cannot be observed before the heal, and
    // must be observed within the horizon.
    assert!(ttr >= 15.0, "no recovery while partitioned: ttr = {ttr}");
    assert!(ttr < 45.0, "recovers soon after heal: ttr = {ttr}");

    // The timeline shows the dip directly: answers during the outage are
    // far below the pre-fault level.
    let tl = recovery_timeline(cfg, 120.0);
    let rate = |from: usize, to: usize| -> f64 {
        let s: u64 = tl[from..to].iter().map(|&(_, n)| n).sum();
        s as f64 / (to - from) as f64
    };
    let before = rate(25, 39);
    let during = rate(42, 54);
    let after = rate(70, 90);
    assert!(
        during < before * 0.2,
        "partition starves answers: before={before} during={during}"
    );
    assert!(
        after > before * 0.7,
        "rate returns after heal: before={before} after={after}"
    );
}

#[test]
fn pbx_crash_flushes_state_and_reconverges_after_restart() {
    let mut cfg = base_config(202);
    let user_pool = cfg.user_pool;
    cfg.faults = FaultSchedule::new().at(
        40.0,
        FaultKind::PbxCrash {
            pbx: 0,
            restart_after: SimDuration::from_secs(3),
        },
    );
    let sim = run_world(cfg, SimTime::from_secs(100));
    let world = &sim.world;

    assert_eq!(world.pbxes[0].stats().crashes, 1);
    assert!(!world.pbx_is_down(0), "supervisor restarted it");
    // Registrations were lost in the crash and rebuilt by the
    // re-REGISTER storm: both pools are bound again.
    assert_eq!(
        world.pbxes[0].registrar.len(),
        2 * user_pool as usize,
        "callers and callees re-registered"
    );
    // The channel pool was flushed; the re-armed gauge shows refill.
    assert!(world.pbxes[0].pool.in_use() <= world.pbxes[0].pool.capacity());

    // Answers stop while dark and resume after the restart.
    let tl = world.answers_per_second();
    let sum =
        |from: usize, to: usize| -> u64 { tl[from.min(tl.len())..to.min(tl.len())].iter().sum() };
    assert!(
        sum(30, 40) > 20,
        "healthy before the crash: {}",
        sum(30, 40)
    );
    assert_eq!(sum(41, 43), 0, "dark while crashed");
    assert!(sum(45, 60) > 20, "re-converged: {}", sum(45, 60));
}

#[test]
fn restarted_pbx_holds_the_bindings_of_a_freshly_primed_one() {
    // One registration storm serves `prime` and the supervisor restart:
    // after either, every caller and callee of the pool is bound to the
    // host it registered from.
    let mut crashing = base_config(303);
    crashing.faults = FaultSchedule::new().at(
        5.0,
        FaultKind::PbxCrash {
            pbx: 0,
            restart_after: SimDuration::from_secs(3),
        },
    );
    let at = SimTime::from_secs(12);
    let mut restarted = run_world(crashing, at);
    let mut primed = run_world(base_config(303), at);
    assert_eq!(restarted.world.pbxes[0].stats().crashes, 1);
    let pool = u64::from(primed.world.config.user_pool);
    for uid in (1000..1000 + pool).chain(1500..1500 + pool) {
        let uid = uid.to_string();
        let node_of = |pbx: &mut pbx_sim::Pbx| pbx.registrar.lookup(at, &uid).map(|b| b.node);
        let primed_at = node_of(&mut primed.world.pbxes[0]);
        assert!(primed_at.is_some(), "{uid} bound by prime");
        let restarted_at = node_of(&mut restarted.world.pbxes[0]);
        assert_eq!(restarted_at, primed_at, "{uid} after the restart");
    }
}

/// Flash-crowd scenario shared by the shedding-on and shedding-off runs.
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
    cfg
}

#[test]
fn flash_crowd_sheds_then_retries_recover_goodput() {
    let mut with_shed = flash_config(303);
    with_shed.overload_law = Some(ControlLaw::Hysteresis {
        high_watermark: 0.85,
        low_watermark: 0.5,
        retry_after: SimDuration::from_secs(4),
    });
    with_shed.retry = Some(RetryPolicy {
        max_retries: 4,
        base_backoff: SimDuration::from_secs(2),
        max_backoff: SimDuration::from_secs(16),
    });
    let shed_run = EmpiricalRunner::run(with_shed);

    let plain = flash_config(303);
    let plain_run = EmpiricalRunner::run(plain);

    // The burst saturates the pool either way.
    assert!(
        plain_run.blocked > 0,
        "without control the burst hard-blocks: {plain_run:?}"
    );
    // With control: 503s were sent, UACs retried, and some retried calls
    // completed as ShedThenOk.
    assert!(shed_run.shed > 0, "overload control engaged: {shed_run:?}");
    assert!(shed_run.retries > 0, "UACs retried: {shed_run:?}");
    assert!(
        shed_run.shed_then_ok > 0,
        "retries completed after backoff: {shed_run:?}"
    );
    // Shedding converts would-be hard blocks into delayed completions:
    // goodput (full conversations carried) beats the uncontrolled run.
    assert!(
        shed_run.goodput > plain_run.goodput,
        "goodput with shedding {} <= without {}",
        shed_run.goodput,
        plain_run.goodput
    );
    assert_eq!(shed_run.goodput, shed_run.completed + shed_run.shed_then_ok);
}

#[test]
fn flash_crowd_during_link_degrade_is_deterministic_and_recovers() {
    // Overlapping fault windows: the uplink degrades to a lossy wire at
    // 25 s (healing at 55 s) and a flash crowd breaks out at 35 s, fully
    // inside the degrade window. The schedule is built out of order on
    // purpose — FaultSchedule must keep the firing order time-sorted.
    let cfg = |seed: u64| {
        let mut cfg = base_config(seed);
        let degraded = netsim::LinkParams {
            loss_probability: 0.02,
            ..netsim::LinkParams::fast_ethernet()
        };
        cfg.overload_law = Some(ControlLaw::hysteresis_default());
        cfg.retry = Some(RetryPolicy::default());
        cfg.faults = FaultSchedule::new()
            .at(
                55.0,
                FaultKind::LinkHeal {
                    a: pbx_node(0),
                    b: nodes::SWITCH,
                },
            )
            .at(
                35.0,
                FaultKind::FlashCrowd {
                    rate_multiplier: 5.0,
                    duration: SimDuration::from_secs(10),
                },
            )
            .at(
                25.0,
                FaultKind::LinkDegrade {
                    a: pbx_node(0),
                    b: nodes::SWITCH,
                    params: degraded,
                },
            );
        cfg
    };
    let a = EmpiricalRunner::run(cfg(909));
    let b = EmpiricalRunner::run(cfg(909));
    assert_eq!(
        a.digest(),
        b.digest(),
        "overlapping fault windows stay deterministic under a fixed seed"
    );
    let c = EmpiricalRunner::run(cfg(910));
    assert_ne!(a.digest(), c.digest(), "the seed still matters");

    // The compound disruption really happened and the run survived it.
    assert!(a.completed > 0, "traffic flowed through the overlap: {a:?}");
    // The degrade (not the heal, not the crowd) is the one disruption
    // the recovery analysis tracks.
    assert_eq!(a.recoveries.len(), 1, "{:?}", a.recoveries);
    assert!(a.recoveries[0].fault.contains("LinkDegrade"));
    // Censoring bookkeeping: the horizon field is always populated.
    assert!(a.recoveries[0].censor_horizon_s > 0.0);
}

#[test]
fn fault_runs_are_deterministic() {
    let run = |seed: u64| {
        let mut cfg = flash_config(seed);
        cfg.overload_law = Some(ControlLaw::hysteresis_default());
        cfg.retry = Some(RetryPolicy::default());
        cfg.faults = cfg.faults.at(
            50.0,
            FaultKind::PbxCrash {
                pbx: 0,
                restart_after: SimDuration::from_secs(2),
            },
        );
        let r = EmpiricalRunner::run(cfg);
        (
            r.attempted,
            r.completed,
            r.blocked,
            r.shed,
            r.retries,
            r.shed_then_ok,
            r.events_processed,
            r.monitor.sip_total,
        )
    };
    let a = run(77);
    let b = run(77);
    assert_eq!(a, b, "same seed, same journal");
    let c = run(78);
    assert_ne!(a, c, "different seed, different run");
}
