//! Micro-drivers for the layers the media plane exercises: `des`,
//! `netsim`, `rtpcore`, `vmon` (RTP side) and `voiceq`.

use super::{ops, Shape, UnitCosts};
use crate::trace::Tracer;
use des::{Scheduler, SimDuration, SimTime, StreamRng};
use netsim::topology::{nodes, StarTopology};
use rtpcore::packetizer::{FastVoiceSource, Law, Packetizer, SAMPLES_PER_FRAME};
use rtpcore::{JitterEstimator, RtpHeader, SequenceTracker};
use std::hint::black_box;
use vmon::{FlowId, Monitor};

/// The future-event-list backend default runs use. The benchmark's only
/// touch of the engine-option surface: no variant is named, so the
/// options can be collapsed without breaking this file.
fn default_scheduler<E>(capacity: usize) -> Scheduler<E> {
    Scheduler::with_kind_and_capacity(capacity::SimOptions::default().scheduler, capacity)
}

/// RTP frame on the wire: 12-byte header, 160-byte G.711 payload, and
/// the 46 bytes of UDP/IP/Ethernet overhead the world adds.
const RTP_WIRE_LEN: usize = 12 + SAMPLES_PER_FRAME + 46;

pub(super) fn replay(tracer: &mut Tracer, shape: &Shape, costs: &mut UnitCosts) {
    des_hold_model(tracer, shape, costs);
    netsim_star_hops(tracer, shape, costs);
    rtpcore_frames(tracer, shape, costs);
    vmon_rtp(tracer, costs);
    voiceq_mos(tracer, costs);
}

/// Classic hold model: pop the earliest event, reschedule it one frame
/// period later, with the pending population of the workload's largest
/// cell.
fn des_hold_model(tracer: &mut Tracer, shape: &Shape, costs: &mut UnitCosts) {
    let frame = SimDuration::from_millis(20);
    let mut sched: Scheduler<u64> = default_scheduler(shape.pending_events);
    let mut rng = StreamRng::seed_from_u64(shape.seed);
    for i in 0..shape.pending_events as u64 {
        sched.schedule(SimTime::from_nanos(rng.next_raw() % 20_000_000), i);
    }
    let n = ops(200_000);
    let allocs = costs.time(tracer, "des.sched_ns_per_event", n, || {
        for _ in 0..n {
            let (at, ev) = sched
                .pop_at_or_before(SimTime::MAX)
                .expect("the hold model never drains");
            sched.schedule(at + frame, black_box(ev));
        }
    });
    costs.record_exact("des.sched_allocs_per_event", allocs);
}

/// One RTP packet across the star: caller → switch → PBX → switch →
/// callee, four `enqueue`s, paced so the links never back up.
fn netsim_star_hops(tracer: &mut Tracer, shape: &Shape, costs: &mut UnitCosts) {
    let mut topo = StarTopology::fig4_testbed();
    let mut rng = StreamRng::seed_from_u64(shape.seed);
    let path = [
        nodes::SIPP_CLIENT,
        nodes::SWITCH,
        nodes::PBX,
        nodes::SWITCH,
        nodes::SIPP_SERVER,
    ];
    let mut now = SimTime::ZERO;
    let pkts = ops(50_000);
    costs.time(tracer, "netsim.enqueue_ns_per_hop", pkts * 4, || {
        for _ in 0..pkts {
            now += SimDuration::from_nanos(25_000);
            let mut at = now;
            for hop in path.windows(2) {
                match topo
                    .network
                    .enqueue(at, hop[0], hop[1], RTP_WIRE_LEN, &mut rng)
                {
                    netsim::SendOutcome::Delivered { at: arrival } => at = arrival,
                    other => panic!("paced RTP frame was not delivered: {other:?}"),
                }
            }
            black_box(at);
        }
    });
}

fn rtpcore_frames(tracer: &mut Tracer, shape: &Shape, costs: &mut UnitCosts) {
    let mut voice = FastVoiceSource::new(shape.seed);
    let mut packetizer = Packetizer::new(0x5eed, Law::Mu, 1, 160);
    let mut scratch = [0i16; SAMPLES_PER_FRAME];
    voice.fill(&mut scratch);
    let mut cached = packetizer.encode_shared(&scratch);

    // An encode frame: synthesise 20 ms of voice, compand it.
    let frames = ops(20_000);
    costs.time(tracer, "rtpcore.encode_ns_per_frame", frames, || {
        for _ in 0..frames {
            voice.fill(&mut scratch);
            cached = packetizer.encode_shared(&scratch);
        }
    });

    // Every other frame: stamp a header onto the cached payload.
    let pkts = ops(200_000);
    let allocs = costs.time(tracer, "rtpcore.packetize_ns_per_pkt", pkts, || {
        for _ in 0..pkts {
            black_box(packetizer.packetize_shared(cached.clone()));
        }
    });
    costs.record_exact("rtpcore.allocs_per_pkt", allocs);

    // Receiver statistics per packet.
    let mut tracker = SequenceTracker::new();
    let mut jitter = JitterEstimator::new(8000.0);
    let (mut seq, mut ts, mut arrival) = (0u16, 0u32, 0.0f64);
    costs.time(tracer, "rtpcore.jitter_ns_per_pkt", pkts, || {
        for _ in 0..pkts {
            seq = seq.wrapping_add(1);
            ts = ts.wrapping_add(SAMPLES_PER_FRAME as u32);
            arrival += 0.02;
            black_box(tracker.record(seq));
            jitter.record(arrival, ts);
        }
        black_box(jitter.jitter_ms());
    });
}

/// 330 flows (165 calls, both directions) tapped round-robin, each
/// flow's sequence numbers advancing as a live stream's would.
fn vmon_rtp(tracer: &mut Tracer, costs: &mut UnitCosts) {
    const FLOWS: u64 = 330;
    let mut monitor = Monitor::new();
    let flows: Vec<FlowId> = (0..FLOWS)
        .map(|f| {
            let node = if f % 2 == 0 {
                nodes::SIPP_CLIENT
            } else {
                nodes::SIPP_SERVER
            };
            let flow = FlowId::from_node_port(node.0, 20_000 + f as u16);
            monitor.register_flow(flow, &format!("uac-0-{}", f / 2));
            flow
        })
        .collect();
    let mut header = Packetizer::new(7, Law::Mu, 0, 0).next_header();
    let mut round = 0u32;
    let pkts = ops(100_000) / FLOWS * FLOWS;
    let allocs = costs.time(tracer, "vmon.tap_rtp_ns_per_pkt", pkts, || {
        for _ in 0..pkts / FLOWS {
            round += 1;
            let arrival = f64::from(round) * 0.02;
            stamp(&mut header, round);
            for &flow in &flows {
                monitor.tap_rtp(flow, arrival, 0.000_3, &header);
            }
        }
    });
    costs.record_exact("vmon.allocs_per_pkt", allocs);

    // Scoring: the end-of-run report folds every call's flows once.
    let calls = FLOWS / 2;
    costs.time(tracer, "vmon.report_ns_per_call", calls, || {
        black_box(monitor.report());
    });
}

fn stamp(header: &mut RtpHeader, round: u32) {
    header.sequence = round as u16;
    header.timestamp = round.wrapping_mul(SAMPLES_PER_FRAME as u32);
}

fn voiceq_mos(tracer: &mut Tracer, costs: &mut UnitCosts) {
    let mut inputs = voiceq::EModelInputs::ideal_g711();
    let n = ops(100_000);
    costs.time(tracer, "voiceq.mos_ns_per_call", n, || {
        for i in 0..n {
            inputs.packet_loss = (i % 50) as f64 * 1e-4;
            black_box(voiceq::estimate_mos(black_box(&inputs)));
        }
    });
}
