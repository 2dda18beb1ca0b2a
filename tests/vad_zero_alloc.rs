//! Integration: silence suppression costs the media path no allocation.
//!
//! With VAD on, a talkspurt gate decides which 20 ms slots a stream sends;
//! the stream's one voice source and its cached payload are the same as
//! with VAD off. So `tests/rtp_zero_copy.rs`' steady-state window, run
//! with `silence_suppression: true`, must allocate nothing either — not
//! even a PCM buffer per talk frame, which nobody reads without a span
//! port. And where a span port does read the payloads, every talk frame
//! still carries real speech-band audio.

use asterisk_capacity::prelude::*;
use capacity::experiment::{run_world, MediaMode};
use capacity::world::World;
use des::{Scheduler, SchedulerKind, SimDuration, SimTime, Simulation};
use loadgen::HoldingDist;
use netsim::topology::nodes;
use rtpcore::{RtpHeader, RTP_HEADER_LEN, SAMPLES_PER_FRAME};
use vmon::pcap::read_pcap;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{start_counting, stop_counting};

/// A PCM frame (160 samples of `i16`) — what a per-talk-frame sample
/// buffer would allocate.
const PCM_FRAME_BYTES: [usize; 1] = [2 * SAMPLES_PER_FRAME];

#[test]
fn talkspurt_media_window_allocates_nothing() {
    // `rtp_zero_copy`'s window: calls placed in [1 s, 6 s] hold for a
    // fixed 30 s, so [10 s, 25 s] holds nothing but media emission,
    // network hops, PBX relays and monitor taps.
    let cfg = EmpiricalConfig {
        erlangs: 30.0,
        servers: 1,
        holding: HoldingDist::Fixed(30.0),
        placement_window_s: 5.0,
        channels: 20,
        media: MediaMode::PerPacket,
        pickup_delay: SimDuration::from_millis(500),
        link_loss_probability: 0.0,
        silence_suppression: true,
        capture_traffic: false,
        user_pool: 50,
        max_calls_per_user: None,
        faults: faults::FaultSchedule::new(),
        overload_law: None,
        retry: None,
        population: None,
        seed: 7,
    };
    let sched =
        Scheduler::with_kind_and_capacity(SchedulerKind::Wheel, cfg.expected_pending_events());
    let world = World::new(cfg);
    let mut sim = Simulation::with_scheduler(world, sched);
    sim.world.prime(&mut sim.sched);
    sim.run_until(SimTime::from_secs(10));
    let relayed =
        |world: &World| -> u64 { world.pbxes.iter().map(|p| p.stats().rtp_relayed).sum() };
    let relayed_before = relayed(&sim.world);

    start_counting(&PCM_FRAME_BYTES);
    sim.run_until(SimTime::from_secs(25));
    let counts = stop_counting();

    // The talkspurt gate's realisation at seed 7, printed at the commit
    // whose media path still built one PCM buffer per talk frame (it made
    // exactly this many 320 B allocations in the window).
    let window_packets = relayed(&sim.world) - relayed_before;
    assert_eq!(window_packets, 1_782, "RTP packets relayed in the window");
    assert_eq!(
        counts.watched, 0,
        "{} PCM-frame buffers among {} allocations for {window_packets} packets",
        counts.watched, counts.total
    );
    assert_eq!(
        counts.total, 0,
        "{} allocations for {window_packets} relayed packets — the \
         talkspurt media path is allocating",
        counts.total
    );
}

#[test]
fn captured_talk_frames_carry_real_audio() {
    let mut cfg = EmpiricalConfig::smoke(2015);
    cfg.erlangs = 1.0;
    cfg.holding = HoldingDist::Fixed(5.0);
    cfg.placement_window_s = 15.0;
    cfg.channels = 4;
    cfg.user_pool = 4;
    cfg.silence_suppression = true;
    cfg.capture_traffic = true;
    let world = run_world(cfg, SimTime::from_secs(30)).world;
    let pcap = world.capture.expect("capture was enabled").to_bytes();
    let packets = read_pcap(&pcap).expect("valid pcap");
    let (mut frames, mut markers) = (0, 0);
    for p in &packets {
        if p.dst_port == 5060 || p.dst_node != nodes::PBX.0 {
            continue;
        }
        let header = RtpHeader::decode(&p.payload).expect("RTP header");
        assert_eq!(p.payload.len(), RTP_HEADER_LEN + SAMPLES_PER_FRAME);
        let pcm = rtpcore::g711::ulaw_decode_slice(&p.payload[RTP_HEADER_LEN..]);
        let (lo, hi) = (pcm.iter().min().unwrap(), pcm.iter().max().unwrap());
        assert!(
            i32::from(*hi) - i32::from(*lo) > 1000,
            "stream {:#x} seq {}: flat payload ({lo}..{hi})",
            header.ssrc,
            header.sequence
        );
        frames += 1;
        markers += usize::from(header.marker);
    }
    assert!(frames > 500, "{frames} PBX-bound talk frames");
    // Talkspurts restart with a marked packet far more often than the
    // ten streams start.
    assert!(markers > 20, "{markers} marked packets");
}
