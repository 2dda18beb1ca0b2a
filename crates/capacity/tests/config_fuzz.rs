//! Configuration fuzzer: every configuration runs and conserves, or
//! `EmpiricalConfig::validate` refuses it.
//!
//! Each case starts from the smoke cell and changes one to three fields,
//! drawing values from the edges (0, -1, NaN, ±inf, 1e-300, 1e300) and
//! from the in-range interval. Fault schedules come from the seeded storm
//! generator plus hand-drawn degrade, throttle, partition, heal, crash and
//! flash-crowd faults. A case `validate` accepts is stepped event by event
//! and must not panic, must never process more than [`MAX_AT_ONE_INSTANT`]
//! events at one simulated instant (every hang found so far was such a
//! loop), and, if it drains, must conserve its calls:
//! `attempted = completed + blocked + failed + abandoned` over the UAC
//! journals, a call completed after a shed and a retry counting as
//! completed. A run that reaches [`EVENT_CAP`] while simulated time still
//! advances is counted, not failed: it is too long to afford, not stuck.
//!
//! Integer fields are drawn from small values only (a 65 000-server farm
//! or a million-user pool would be a run the fuzzer cannot afford).
//!
//! `cargo test -p capacity --test config_fuzz -- --ignored --nocapture`
//! runs the 10⁴-case soak.

use capacity::experiment::{ConfigError, EmpiricalConfig, MediaMode, MAX_PLACEMENT_WINDOW_S};
use capacity::world::{pbx_node, World};
use des::{Distributions, EventHandler, RngStream, Scheduler, SimDuration, SimTime, StreamRng};
use faults::{FaultKind, FaultSchedule};
use loadgen::{CallOutcome, DiurnalProfile, HoldingDist, Journal, PopulationConfig, RetryPolicy};
use netsim::topology::nodes;
use netsim::{LinkParams, NodeId};
use overload::ControlLaw;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Events one simulated instant may hold before the run counts as stuck.
const MAX_AT_ONE_INSTANT: u64 = 100_000;

/// Events a case may process before it is counted as too long to afford.
const EVENT_CAP: u64 = 200_000;

/// The edge values every float field is drawn from half the time.
const EDGES: [f64; 7] = [
    0.0,
    -1.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e-300,
    1e300,
];

/// An edge value half the time, otherwise uniform in `[lo, hi)`.
fn float(rng: &mut StreamRng, lo: f64, hi: f64) -> f64 {
    if rng.below(2) == 0 {
        EDGES[rng.below(EDGES.len() as u64) as usize]
    } else {
        rng.uniform_f64(lo, hi)
    }
}

/// [`float`] seconds on the simulation clock (negative and NaN become 0,
/// 1e300 the end of the clock).
fn secs(rng: &mut StreamRng, lo: f64, hi: f64) -> SimDuration {
    SimDuration::from_secs_f64(float(rng, lo, hi))
}

fn pick<T: Copy>(rng: &mut StreamRng, values: &[T]) -> T {
    values[rng.below(values.len() as u64) as usize]
}

/// A switch link, or (one time in four) a PBX that is not in a small farm.
fn star_link(rng: &mut StreamRng) -> (NodeId, NodeId) {
    let host = pick(
        rng,
        &[
            nodes::SIPP_CLIENT,
            nodes::SIPP_SERVER,
            pbx_node(0),
            pbx_node(1),
            pbx_node(3),
        ],
    );
    if rng.below(2) == 0 {
        (host, nodes::SWITCH)
    } else {
        (nodes::SWITCH, host)
    }
}

/// One hand-drawn fault.
fn fault(rng: &mut StreamRng) -> FaultKind {
    let (a, b) = star_link(rng);
    let pbx = pick(rng, &[0, 1, 2]);
    match rng.below(6) {
        0 => FaultKind::LinkDegrade {
            a,
            b,
            params: LinkParams {
                bandwidth_bps: float(rng, 1e5, 1e8),
                propagation: secs(rng, 0.0, 0.01),
                max_queue_delay: secs(rng, 0.0, 0.05),
                loss_probability: float(rng, 0.0, 0.3),
            },
        },
        1 => FaultKind::LinkPartition { a, b },
        2 => FaultKind::LinkHeal { a, b },
        3 => FaultKind::PbxCrash {
            pbx,
            restart_after: secs(rng, 0.0, 5.0),
        },
        4 => FaultKind::CpuThrottle {
            pbx,
            factor: float(rng, 0.5, 4.0),
        },
        _ => FaultKind::FlashCrowd {
            rate_multiplier: float(rng, 0.5, 8.0),
            duration: secs(rng, 0.0, 10.0),
        },
    }
}

/// An overload law: a preset, or hysteresis and window laws with drawn
/// parameters.
fn law(rng: &mut StreamRng) -> ControlLaw {
    match rng.below(6) {
        0 => ControlLaw::Hysteresis {
            high_watermark: float(rng, 0.0, 1.2),
            low_watermark: float(rng, 0.0, 1.0),
            retry_after: secs(rng, 0.0, 5.0),
        },
        1 => ControlLaw::WindowBased {
            target_load: 0.85,
            max_window: pick(rng, &[0, 1, 3, 8]),
            min_window: pick(rng, &[0, 1, 3, 8]),
            retry_after: secs(rng, 0.0, 5.0),
        },
        2 => ControlLaw::rate_based_for(float(rng, 0.1, 5.0)),
        3 => ControlLaw::signal_based_default(),
        4 => ControlLaw::mos_cac_default(),
        _ => ControlLaw::hysteresis_default(),
    }
}

/// Change one field of `cfg`.
fn mutate(cfg: &mut EmpiricalConfig, rng: &mut StreamRng) {
    match rng.below(19) {
        0 => cfg.erlangs = float(rng, 0.5, 20.0),
        1 => cfg.servers = pick(rng, &[0, 1, 2, 3]),
        2 => {
            let mean = float(rng, 1.0, 30.0);
            cfg.holding = match rng.below(3) {
                0 => HoldingDist::Fixed(mean),
                1 => HoldingDist::Exponential(mean),
                _ => HoldingDist::Lognormal {
                    mean,
                    sd: float(rng, 0.0, 20.0),
                },
            };
        }
        3 => cfg.placement_window_s = float(rng, 1.0, 40.0),
        4 => cfg.channels = pick(rng, &[0, 1, 2, 5, 50]),
        5 => cfg.media = pick(rng, &[MediaMode::Off, MediaMode::PerPacket]),
        6 => cfg.pickup_delay = secs(rng, 0.0, 3.0),
        7 => cfg.link_loss_probability = float(rng, 0.0, 0.1),
        8 => cfg.silence_suppression = !cfg.silence_suppression,
        9 => cfg.user_pool = pick(rng, &[0, 1, 3, 20, 120]),
        10 => cfg.max_calls_per_user = pick(rng, &[None, Some(0), Some(1), Some(3)]),
        11 => {
            let hosts: Vec<NodeId> = (0..pick(rng, &[1, 2, 3])).map(pbx_node).collect();
            let count = pick(rng, &[1, 2, 4, 8]);
            let horizon = float(rng, 5.0, 40.0);
            if horizon.is_finite() && horizon > 0.0 {
                cfg.faults = FaultSchedule::random_storm(
                    rng.next_u64(),
                    horizon,
                    count,
                    &hosts,
                    nodes::SWITCH,
                );
            }
        }
        12..=14 => {
            let at = float(rng, 0.0, 30.0);
            let kind = fault(rng);
            cfg.faults = std::mem::take(&mut cfg.faults).at(at, kind);
        }
        15 => cfg.overload_law = Some(law(rng)),
        16 => {
            cfg.retry = Some(RetryPolicy {
                max_retries: pick(rng, &[0, 1, 3, 20]),
                base_backoff: secs(rng, 0.0, 4.0),
                max_backoff: secs(rng, 0.0, 32.0),
            });
        }
        17 => {
            cfg.population = Some(PopulationConfig {
                subscribers: pick(rng, &[0, 1, 50, 300]),
                per_user_rate: float(rng, 1e-3, 0.05),
                profile: if rng.below(2) == 0 {
                    DiurnalProfile::flat()
                } else {
                    DiurnalProfile::campus_day_compressed(20.0)
                },
                reg_expiry_s: float(rng, 5.0, 60.0),
                churn_buckets: pick(rng, &[0, 1, 8, 64]),
            });
        }
        _ => cfg.seed = rng.next_u64(),
    }
}

/// How one accepted case ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ran {
    /// The event list emptied (or passed the horizon) and the calls conserved.
    Drained,
    /// [`EVENT_CAP`] events processed, simulated time still advancing.
    Capped,
}

/// Step `cfg`'s run event by event, as `EmpiricalRunner::run` drives it.
///
/// # Panics
/// If the run panics, loops at one instant or fails to conserve its calls.
fn step(cfg: EmpiricalConfig) -> Ran {
    let horizon = cfg.horizon();
    let mut world = World::new(cfg);
    let mut sched = Scheduler::new();
    world.prime(&mut sched);
    let (mut events, mut instant, mut at_instant) = (0u64, SimTime::ZERO, 0u64);
    while let Some((at, event)) = sched.pop_at_or_before(horizon) {
        if at == instant {
            at_instant += 1;
            assert!(
                at_instant <= MAX_AT_ONE_INSTANT,
                "more than {MAX_AT_ONE_INSTANT} events at {at}"
            );
        } else {
            (instant, at_instant) = (at, 1);
        }
        world.handle(at, event, &mut sched);
        events += 1;
        if events == EVENT_CAP {
            return Ran::Capped;
        }
    }
    let mut journal = Journal::new();
    for uac in &mut world.uacs {
        uac.finish();
        journal.merge(&uac.journal);
    }
    let ended: u64 = [
        CallOutcome::Completed,
        CallOutcome::ShedThenOk,
        CallOutcome::Blocked,
        CallOutcome::Failed,
        CallOutcome::Abandoned,
    ]
    .map(|outcome| journal.outcome_count(outcome))
    .iter()
    .sum();
    assert_eq!(journal.attempted, ended, "attempted calls do not conserve");
    Ran::Drained
}

/// What `cases` fuzz cases did: `(refused, drained, capped)`.
fn fuzz(cases: u64, seed: u64) -> (u64, u64, u64) {
    let mut rng = RngStream::new(seed).stream("config-fuzz");
    let (mut refused, mut drained, mut capped) = (0, 0, 0);
    for case in 0..cases {
        let mut cfg = EmpiricalConfig::smoke(rng.next_u64());
        for _ in 0..1 + rng.below(3) {
            mutate(&mut cfg, &mut rng);
        }
        let verdict: Result<(), ConfigError> = cfg.validate();
        if verdict.is_err() {
            refused += 1;
            continue;
        }
        let shown = format!("{cfg:?}");
        match catch_unwind(AssertUnwindSafe(|| step(cfg))) {
            Ok(Ran::Drained) => drained += 1,
            Ok(Ran::Capped) => capped += 1,
            Err(_) => panic!("case {case} (seed {seed}) failed; its configuration: {shown}"),
        }
    }
    println!("{cases} cases: {refused} refused, {drained} drained, {capped} capped");
    (refused, drained, capped)
}

#[test]
fn every_accepted_configuration_runs_and_conserves() {
    let (refused, drained, _) = fuzz(500, 2015);
    // A fuzzer that only ever draws refusals, or only runs, tests one side.
    assert!(
        refused > 0 && drained > 0,
        "{refused} refused, {drained} drained"
    );
}

/// The timer rule's bound leaves a run's horizon inside the clock, with
/// room for every timer a fault or retry can add past it.
#[test]
fn the_longest_accepted_timers_fit_the_clock() {
    let mut cfg = EmpiricalConfig::smoke(1);
    cfg.placement_window_s = MAX_PLACEMENT_WINDOW_S;
    cfg.holding = HoldingDist::Exponential(MAX_PLACEMENT_WINDOW_S);
    let at = MAX_PLACEMENT_WINDOW_S;
    let restart_after = SimDuration::from_secs_f64(MAX_PLACEMENT_WINDOW_S);
    cfg.faults = FaultSchedule::new().at(
        at,
        FaultKind::PbxCrash {
            pbx: 0,
            restart_after,
        },
    );
    assert_eq!(cfg.validate(), Ok(()));
    let room = SimTime::MAX.since(cfg.horizon()).as_secs_f64();
    assert!(room > 3.0 * MAX_PLACEMENT_WINDOW_S, "{room} s to spare");
}

/// The 10⁴-case soak (EXPERIMENTS.md records its last run).
#[test]
#[ignore = "soak: about a minute in a debug build"]
fn soak_ten_thousand_cases() {
    fuzz(10_000, 2015);
}
