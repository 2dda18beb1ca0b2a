//! Integration: the media plane end to end — packet rates, relay
//! correctness and voice-quality measurement through the whole stack.

use asterisk_capacity::prelude::*;
use capacity::experiment::MediaMode;
use capacity::world::{Ev, World};
use des::{Scheduler, SchedulerKind, SimDuration, SimTime, Simulation};
use loadgen::HoldingDist;
use netsim::topology::nodes;
use std::collections::BTreeMap;
use vmon::{FlowId, Monitor};

fn media_cfg(seed: u64) -> EmpiricalConfig {
    EmpiricalConfig {
        erlangs: 3.0,
        servers: 1,
        holding: HoldingDist::Fixed(12.0),
        placement_window_s: 30.0,
        channels: 10,
        media: MediaMode::PerPacket,
        pickup_delay: SimDuration::ZERO,
        link_loss_probability: 0.0,
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
fn endpoints_receive_100_packets_per_call_second() {
    let r = EmpiricalRunner::run(media_cfg(31));
    assert!(r.completed >= 3, "need some calls: {r:?}");
    let per_call_second = r.monitor.rtp_packets as f64 / (r.completed as f64 * 12.0);
    // 50 pps towards the caller + 50 pps towards the callee.
    assert!(
        (per_call_second - 100.0).abs() < 6.0,
        "observed {per_call_second} pkt/call-second"
    );
}

#[test]
fn clean_lan_scores_toll_quality_for_every_call() {
    let r = EmpiricalRunner::run(media_cfg(32));
    assert!(r.monitor.calls_scored >= 3);
    assert!(r.monitor.mos_mean > 4.3, "mean {}", r.monitor.mos_mean);
    assert!(r.monitor.mos_min > 4.2, "worst call {}", r.monitor.mos_min);
    assert!(r.monitor.mean_loss < 1e-6);
    assert!(r.monitor.mean_jitter_ms < 1.0, "switched LAN jitter tiny");
}

#[test]
fn sparse_encoding_matches_full_encoding_counts() {
    // A span port (`capture_traffic`) makes every frame hop by hop and
    // re-encodes a payload every tenth frame; an unobserved run encodes
    // none. With silence suppression on, the talkspurt source decides
    // which frames are sent at all, so it must step the same way whether
    // or not anyone reads the payloads: same calls, same signalling, and
    // the same packet count on every flow.
    let vad = |capture_traffic| EmpiricalConfig {
        silence_suppression: true,
        capture_traffic,
        ..media_cfg(33)
    };
    // The runner's horizon: placement, the 12 s hold, teardown slack.
    let horizon = SimTime::from_secs(1 + 30 + 22 + 5);
    let mut unobserved = capacity::experiment::run_world(vad(false), horizon).world;
    let mut observed = capacity::experiment::run_world(vad(true), horizon).world;
    assert!(observed.capture.as_ref().is_some_and(|c| !c.is_empty()));
    let unobserved_flows = packets_by_flow(&unobserved.monitor);
    assert!(
        unobserved_flows.len() >= 20,
        "{} flows",
        unobserved_flows.len()
    );
    assert_eq!(packets_by_flow(&observed.monitor), unobserved_flows);
    // Talkspurts suppress about half of the 50 frames a second.
    let sent: u64 = unobserved_flows.values().sum();
    let continuous = 12 * 50 * unobserved_flows.len() as u64;
    assert!(
        sent < continuous * 8 / 10,
        "{sent} of {continuous} frames sent"
    );
    let (a, b) = (unobserved.monitor.report(), observed.monitor.report());
    assert_eq!(a.sip_total, b.sip_total);
    let [a, b] = [&mut unobserved, &mut observed].map(|world| {
        let uac = &mut world.uacs[0];
        uac.finish();
        (
            uac.journal.attempted,
            uac.journal.outcome_count(loadgen::CallOutcome::Completed),
        )
    });
    assert!(a.1 >= 10, "{} calls completed", a.1);
    assert_eq!(a, b, "(attempted, completed)");
}

#[test]
fn pbx_relays_media_without_loss_on_a_clean_lan() {
    let r = EmpiricalRunner::run(media_cfg(34));
    // Everything endpoints received passed through the PBX relay; on a
    // clean network nothing is dropped in flight.
    assert!(r.monitor.mean_loss < 1e-6);
    assert!(r.monitor.rtp_packets > 1000);
}

#[test]
fn relay_conserves_rtp_on_a_loss_free_table1_cell() {
    // Every packet an endpoint received went through a PBX relay, and on
    // a loss-free cell every relayed packet arrived: a port whose target
    // was never learned, or was cleared early, shows as a drop or a gap.
    let cfg = EmpiricalConfig::table1(40.0, 2015);
    assert_eq!(cfg.link_loss_probability, 0.0, "below Table I's loss ramp");
    // The runner's horizon: placement, the 120 s hold, teardown slack.
    let horizon = SimTime::from_secs_f64(1.0 + cfg.placement_window_s + 130.0 + 5.0);
    let sim = capacity::experiment::run_world(cfg, horizon);
    let stats = sim.world.pbxes.iter().map(|p| p.stats());
    let (relayed, dropped) = stats.fold((0, 0), |(r, d), s| (r + s.rtp_relayed, d + s.rtp_dropped));
    assert!(relayed > 100_000, "a Table I cell carries media: {relayed}");
    assert_eq!(relayed, sim.world.monitor.rtp_packets());
    assert_eq!(dropped, 0);
}

#[test]
fn media_stops_after_hangup() {
    // With h = 12 s calls and a 30 s placement window the run drains; no
    // media session survives to the horizon (no runaway ticks).
    let r = EmpiricalRunner::run(media_cfg(35));
    assert_eq!(r.abandoned, 0, "all calls finished in the window: {r:?}");
    // Upper bound on packets: strictly fewer than if streams never stopped.
    let upper = (r.completed + r.blocked) as f64 * (12.5 * 100.0);
    assert!((r.monitor.rtp_packets as f64) < upper * 1.2);
}

#[test]
fn cpu_cost_scales_with_media_volume() {
    let with_media = EmpiricalRunner::run(media_cfg(36));
    let without = EmpiricalRunner::run(EmpiricalConfig {
        media: MediaMode::Off,
        ..media_cfg(36)
    });
    // At 3 E the RTP relay adds a small but unmistakable margin over the
    // 10% base load (~0.4 pp; full Table-I workloads add tens of points).
    assert!(
        with_media.cpu_mean > without.cpu_mean + 0.003,
        "media {} vs signalling-only {}",
        with_media.cpu_mean,
        without.cpu_mean
    );
}

#[test]
fn express_and_per_hop_emission_agree_on_a_clean_lan() {
    // The one place the two emission paths meet. Without a span port a
    // packet is chased across its four links at emission time; with one
    // (`capture_traffic`) it takes one event per hop so the capture sees
    // every frame. Loss-free, both must carry the same calls, the same
    // signalling and the same packets; only serialization ties within an
    // instant may order differently, which moves jitter by microseconds.
    let express = EmpiricalRunner::run(media_cfg(33));
    let per_hop = EmpiricalRunner::run(EmpiricalConfig {
        capture_traffic: true,
        ..media_cfg(33)
    });
    assert!(express.completed >= 10, "{express:?}");
    assert!(per_hop.events_processed > 3 * express.events_processed);
    assert_eq!(express.attempted, per_hop.attempted);
    assert_eq!(express.completed, per_hop.completed);
    assert_eq!(express.blocked, per_hop.blocked);
    assert_eq!(express.monitor.sip_total, per_hop.monitor.sip_total);
    assert_eq!(express.monitor.rtp_packets, per_hop.monitor.rtp_packets);
    let (a, b) = (express.monitor.mos_mean, per_hop.monitor.mos_mean);
    assert!((a - b).abs() < 0.01, "MOS {a} express vs {b} per hop");
}

/// Packets received so far on every flow either endpoint host has seen.
fn packets_by_flow(monitor: &Monitor) -> BTreeMap<FlowId, u64> {
    [nodes::SIPP_CLIENT, nodes::SIPP_SERVER]
        .into_iter()
        .flat_map(|node| (0..=u16::MAX).map(move |port| FlowId::from_node_port(node.0, port)))
        .filter_map(|flow| Some((flow, monitor.stream(flow)?.packets())))
        .collect()
}

#[test]
fn media_slots_re_arm_after_every_slot_has_emptied() {
    // Streams share one recurring `MediaFrame` event per phase slot; when
    // a slot's last stream ends the event finds it empty and the slot must
    // disarm, or the next stream to land there sees "armed", schedules
    // nothing and sends its first packet only. Two bursts of 4-s calls,
    // 8 s apart: in between, every slot of the first burst has emptied.
    const HOLD_S: f64 = 4.0;
    const CALLS_PER_BURST: u64 = 16;
    let cfg = EmpiricalConfig {
        // The world's own arrival chain stays silent (first arrival after
        // ~10^6 s): the test places the calls.
        erlangs: 1e-6,
        holding: HoldingDist::Fixed(HOLD_S),
        channels: 2 * CALLS_PER_BURST as u32,
        ..media_cfg(37)
    };
    let sched =
        Scheduler::with_kind_and_capacity(SchedulerKind::Wheel, cfg.expected_pending_events());
    let mut sim = Simulation::with_scheduler(World::new(cfg), sched);
    sim.world.prime(&mut sim.sched);
    for burst_s in [2, 10] {
        // 1.3 ms apart: the burst spreads over many 312.5-us phase slots,
        // and both bursts land on the same ones.
        for i in 0..CALLS_PER_BURST {
            let at = SimTime::from_secs(burst_s) + SimDuration::from_micros(1300 * i);
            sim.sched.schedule(at, Ev::PlaceCall);
        }
    }

    sim.run_until(SimTime::from_secs(7));
    let first_burst = packets_by_flow(&sim.world.monitor);
    assert_eq!(first_burst.len() as u64, 2 * CALLS_PER_BURST);
    sim.run_until(SimTime::from_millis(9_900));
    assert_eq!(
        packets_by_flow(&sim.world.monitor),
        first_burst,
        "no stream is live between the bursts"
    );

    sim.run_until(SimTime::from_secs(16));
    let all = packets_by_flow(&sim.world.monitor);
    let second_burst: Vec<_> = all
        .iter()
        .filter(|(flow, _)| !first_burst.contains_key(flow))
        .collect();
    assert_eq!(second_burst.len() as u64, 2 * CALLS_PER_BURST);
    for (flow, &packets) in second_burst {
        let per_call_second = packets as f64 / HOLD_S;
        assert!(
            (per_call_second - 50.0).abs() <= 1.0,
            "{flow:?} of the second burst received {packets} packets in {HOLD_S} s"
        );
    }
}
