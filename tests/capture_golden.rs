//! Integration: a run with a span port — the only configuration in which
//! RTP payload bytes are observable.
//!
//! `examples/capture_pcap.rs`' configuration, pinned three ways: the
//! run-level digest, the number of captured frames, and an FNV-1a over
//! the exact pcap bytes (literals printed at the commit before the media
//! path learned to skip unobserved encodes). The digest and the frame
//! count cannot see a payload byte; the pcap hash and the per-stream
//! payload checks below can. This is the guard on the observer boundary:
//! lazy encoding that leaks into a captured run fails here and nowhere
//! else.

use capacity::experiment::{run_world, EmpiricalConfig, EmpiricalRunner};
use des::SimTime;
use loadgen::HoldingDist;
use netsim::topology::nodes;
use rtpcore::{RtpHeader, RTP_HEADER_LEN, SAMPLES_PER_FRAME};
use std::collections::BTreeMap;
use vmon::pcap::read_pcap;

/// The media plane's payload refresh cadence under a span port: one real
/// encode per stream in this many frames.
const ENCODE_EVERY: u32 = 10;

fn capture_cfg() -> EmpiricalConfig {
    let mut cfg = EmpiricalConfig::smoke(2015);
    cfg.erlangs = 1.0;
    cfg.holding = HoldingDist::Fixed(5.0);
    cfg.placement_window_s = 15.0;
    cfg.channels = 4;
    cfg.user_pool = 4;
    cfg.capture_traffic = true;
    cfg
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn captured_run_matches_the_golden_pcap() {
    let result = EmpiricalRunner::run(capture_cfg());
    assert_eq!(result.digest(), 0xc5d6_6419_f50e_1f2b, "{result:?}");
    assert_eq!(result.completed, 5);

    let world = run_world(capture_cfg(), SimTime::from_secs(30)).world;
    let capture = world.capture.expect("capture was enabled");
    assert_eq!(capture.len(), 5101);
    let pcap = capture.to_bytes();
    assert_eq!(pcap.len(), 1_180_080);
    assert_eq!(fnv1a(&pcap), 0xd216_54f9_e272_10da);

    // Every stream as the span port at the PBX saw it: each endpoint's
    // frames land there before any relay decision, so frame 0 of every
    // stream is present and nothing is missing on this clean LAN.
    let packets = read_pcap(&pcap).expect("valid pcap");
    let mut streams: BTreeMap<u32, Vec<(RtpHeader, Vec<u8>)>> = BTreeMap::new();
    for p in &packets {
        if p.dst_port == 5060 || p.dst_node != nodes::PBX.0 {
            continue;
        }
        let header = RtpHeader::decode(&p.payload).expect("RTP header");
        assert_eq!(p.payload.len(), RTP_HEADER_LEN + SAMPLES_PER_FRAME);
        streams
            .entry(header.ssrc)
            .or_default()
            .push((header, p.payload[RTP_HEADER_LEN..].to_vec()));
    }
    assert_eq!(streams.len(), 10, "two streams per answered call");
    let mut refreshes = 0;
    for (ssrc, frames) in &streams {
        assert!(
            frames.len() > 200,
            "stream {ssrc:#x}: {} frames",
            frames.len()
        );
        assert!(frames[0].0.marker, "frame 0 opens the talkspurt");
        for (i, pair) in frames.windows(2).enumerate() {
            let (prev, next) = (&pair[0], &pair[1]);
            assert_eq!(
                next.0.sequence,
                prev.0.sequence.wrapping_add(1),
                "stream {ssrc:#x} is gapless at the PBX"
            );
            // The payload is re-encoded on frames 10, 20, … and on no
            // other: between refreshes the same companded bytes ride.
            let refresh = (i + 1) % ENCODE_EVERY as usize == 0;
            assert_eq!(
                next.1 != prev.1,
                refresh,
                "stream {ssrc:#x} frame {}: payload change vs refresh schedule",
                i + 1
            );
            refreshes += usize::from(refresh);
        }
        // Real speech-band audio, not a placeholder: every frame decodes
        // to a signal that moves.
        for (_, payload) in frames {
            let pcm = rtpcore::g711::ulaw_decode_slice(payload);
            let (lo, hi) = (pcm.iter().min().unwrap(), pcm.iter().max().unwrap());
            assert!(
                i32::from(*hi) - i32::from(*lo) > 1000,
                "stream {ssrc:#x}: flat payload ({lo}..{hi})"
            );
        }
    }
    assert!(refreshes > 100, "the schedule was exercised: {refreshes}");
}
