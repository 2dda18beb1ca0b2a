//! Integration: a run is a pure function of its seed — the property that
//! makes parallel sweeps and regression comparisons trustworthy.

use asterisk_capacity::prelude::*;
use capacity::experiment::MediaMode;
use capacity::world::World;
use des::{Scheduler, SchedulerKind, SimTime, Simulation};
use loadgen::HoldingDist;

fn cfg(seed: u64, media: MediaMode) -> EmpiricalConfig {
    EmpiricalConfig {
        erlangs: 8.0,
        servers: 1,
        holding: HoldingDist::Exponential(15.0),
        placement_window_s: 60.0,
        channels: 10,
        media,
        pickup_delay: des::SimDuration::from_millis(500),
        link_loss_probability: 0.002,
        silence_suppression: false,
        capture_traffic: false,
        user_pool: 10,
        max_calls_per_user: None,
        faults: faults::FaultSchedule::new(),
        overload_law: None,
        retry: None,
        population: None,
        seed,
    }
}

#[test]
fn identical_seeds_identical_everything() {
    let media = MediaMode::PerPacket;
    let a = EmpiricalRunner::run(cfg(99, media));
    let b = EmpiricalRunner::run(cfg(99, media));
    assert_eq!(a.attempted, b.attempted);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.blocked, b.blocked);
    assert_eq!(a.failed, b.failed);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.monitor.rtp_packets, b.monitor.rtp_packets);
    assert_eq!(a.monitor.sip_total, b.monitor.sip_total);
    assert_eq!(a.monitor.sip_requests, b.monitor.sip_requests);
    assert_eq!(a.monitor.sip_responses, b.monitor.sip_responses);
    assert_eq!(a.peak_channels, b.peak_channels);
    // Float outputs are bit-identical too: same event order, same arithmetic.
    assert_eq!(a.observed_pb.to_bits(), b.observed_pb.to_bits());
    assert_eq!(a.monitor.mos_mean.to_bits(), b.monitor.mos_mean.to_bits());
    assert_eq!(a.cpu_mean.to_bits(), b.cpu_mean.to_bits());
}

#[test]
fn seed_changes_the_realisation_not_the_physics() {
    let media = MediaMode::Off;
    let a = EmpiricalRunner::run(cfg(1, media));
    let b = EmpiricalRunner::run(cfg(2, media));
    // Different draws...
    assert_ne!(a.events_processed, b.events_processed);
    // ...same physics: both runs respect conservation and bounds.
    for r in [&a, &b] {
        assert_eq!(
            r.attempted,
            r.completed + r.blocked + r.failed + r.abandoned
        );
        assert!(r.peak_channels <= 10);
        assert!((0.0..=1.0).contains(&r.observed_pb));
    }
}

#[test]
fn heap_and_wheel_backends_produce_identical_results() {
    // The future-event-list backend is an implementation detail, and no
    // run option selects it: the whole-run check is built by hand. The
    // same world on either backend must process the same events and
    // leave the same monitor report (floats by bit pattern) and the same
    // PBX counters.
    let run = |kind| {
        let cfg = cfg(42, MediaMode::PerPacket);
        let sched = Scheduler::with_kind_and_capacity(kind, cfg.expected_pending_events());
        let mut sim = Simulation::with_scheduler(World::new(cfg), sched);
        sim.world.prime(&mut sim.sched);
        sim.run_until(SimTime::from_secs(216));
        let m = sim.world.monitor.report();
        assert!(m.rtp_packets > 10_000 && m.calls_scored > 0, "{m:?}");
        let floats = [m.mos_mean, m.mos_min, m.mean_loss, m.mean_jitter_ms].map(f64::to_bits);
        let counts = (m.rtp_packets, m.sip_total, m.calls_scored, m.flows);
        (
            sim.events_processed(),
            (counts, m.sip_requests, m.sip_responses, floats),
            sim.world.pbxes[0].stats(),
        )
    };
    assert_eq!(run(SchedulerKind::Heap), run(SchedulerKind::Wheel));
}

#[test]
fn fifo_tie_break_identical_under_10k_simultaneous_events() {
    // 10k events scheduled at the same instant (plus stragglers on both
    // sides) must pop in exact insertion order from both backends.
    let mut heap = Scheduler::with_kind(SchedulerKind::Heap);
    let mut wheel = Scheduler::with_kind(SchedulerKind::Wheel);
    let t = SimTime::from_secs(1);
    for s in [&mut heap, &mut wheel] {
        s.schedule(SimTime::from_millis(999), u32::MAX);
        for i in 0..10_000u32 {
            s.schedule(t, i);
        }
        s.schedule(SimTime::from_millis(1001), u32::MAX - 1);
    }
    let mut popped = 0u32;
    loop {
        let a = heap.pop();
        let b = wheel.pop();
        assert_eq!(a, b, "backends diverged after {popped} pops");
        match a {
            Some((at, ev)) if at == t => {
                assert_eq!(ev, popped, "FIFO order violated");
                popped += 1;
            }
            Some(_) => {}
            None => break,
        }
    }
    assert_eq!(popped, 10_000);
}

#[test]
fn parallel_fig6_is_reproducible() {
    // The shared-cursor sweep must give identical numbers on every
    // invocation regardless of thread interleaving (per-run RNG streams).
    let loads = [15.0, 25.0];
    let x = capacity::figures::fig6(&loads, 2, 7);
    let y = capacity::figures::fig6(&loads, 2, 7);
    assert_eq!(x.len(), y.len());
    for (p, q) in x.iter().zip(&y) {
        assert_eq!(p.empirical_pb_pct.to_bits(), q.empirical_pb_pct.to_bits());
        assert_eq!(p.erlangs, q.erlangs);
    }
}

/// A short Table-I-shaped full-media cell on the default (coalesced,
/// express-emission) path: 10 s of placement, 8 s calls.
fn golden_cell(erlangs: f64) -> EmpiricalConfig {
    EmpiricalConfig {
        holding: HoldingDist::Fixed(8.0),
        placement_window_s: 10.0,
        ..EmpiricalConfig::table1(erlangs, 2015)
    }
}

/// The signalling-only lossy classic cell — no RTP, SIP frames lost at
/// 0.2 % per link — printed at the commit before the run-selectable heap
/// backend and the serialize-and-reparse signalling path were retired;
/// it is the literal their A/B arms in this file handed over to.
#[test]
fn golden_digest_signalling_only_cell() {
    let r = EmpiricalRunner::run(cfg(42, MediaMode::Off));
    assert_eq!((r.attempted, r.monitor.sip_total), (30, 412), "{r:?}");
    assert_eq!(r.digest(), 0xa42f_ae0a_6543_20e6, "signalling-only cell");
}

// The three digests below were printed at the commit *before* the media
// path moved to dense tables and memoised per-packet costs. They pin the
// default path to literals, so an optimisation that is self-consistent
// but no longer the same simulation cannot pass.

#[test]
fn golden_digest_clean_media_cell() {
    let r = EmpiricalRunner::run(golden_cell(40.0));
    assert!(r.monitor.rtp_packets > 30_000, "media flowed: {r:?}");
    assert_eq!(r.digest(), 0x37db_02fd_6c73_b892, "clean 40 E cell");
}

#[test]
fn golden_digest_loss_ramp_media_cell() {
    let cfg = golden_cell(200.0);
    assert!(cfg.link_loss_probability > 0.0, "above the 160 E loss knee");
    let r = EmpiricalRunner::run(cfg);
    assert!(r.monitor.mean_loss > 0.0 && r.blocked > 0, "{r:?}");
    assert_eq!(r.digest(), 0xb830_95f2_7fcf_a222, "lossy 200 E cell");
}

/// The cell that catches a stale memo: the PBX access link drops to
/// 10 Mb/s and back, and the PBX CPU is throttled and restored, all
/// while ~40 calls are streaming — every packet after each fault must
/// see the new serialisation time and the new per-packet CPU cost.
#[test]
fn golden_digest_faulted_media_cell() {
    use faults::FaultKind;
    use netsim::topology::nodes;
    let mut cfg = golden_cell(40.0);
    cfg.faults = faults::FaultSchedule::new()
        .at(
            4.0,
            FaultKind::LinkDegrade {
                a: nodes::PBX,
                b: nodes::SWITCH,
                params: netsim::LinkParams::ethernet_10(),
            },
        )
        .at(
            6.0,
            FaultKind::CpuThrottle {
                pbx: 0,
                factor: 2.5,
            },
        )
        .at(
            9.0,
            FaultKind::LinkHeal {
                a: nodes::PBX,
                b: nodes::SWITCH,
            },
        )
        .at(
            12.0,
            FaultKind::CpuThrottle {
                pbx: 0,
                factor: 1.0,
            },
        );
    let r = EmpiricalRunner::run(cfg);
    assert!(r.monitor.rtp_packets > 30_000, "media flowed: {r:?}");
    assert_eq!(r.digest(), 0x52d0_8d82_35bb_90be, "faulted 40 E cell");
}
