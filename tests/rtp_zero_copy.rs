//! Integration: allocation regression for the RTP media path.
//!
//! The zero-copy design moves G.711 payloads as `Arc<[u8]>` — the bytes
//! are companded once per ten frames and every subsequent
//! packetization, network hop and PBX relay is a refcount bump — and,
//! with no span port to read them, does not compand them at all. A
//! counting global allocator makes that claim falsifiable: steady-state
//! media allocates nothing, payload-sized or otherwise, and the two
//! per-packet calls (`Network::enqueue`, `Pbx::relay_rtp`) allocate
//! nothing either.

use asterisk_capacity::prelude::*;
use capacity::experiment::MediaMode;
use capacity::world::World;
use des::{Scheduler, SchedulerKind, SimDuration, SimTime, Simulation};
use loadgen::HoldingDist;
use netsim::topology::nodes;
use netsim::SendOutcome;
use rtpcore::packetizer::Law;
use rtpcore::Packetizer;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{start_counting, stop_counting};

/// A G.711 frame payload is 160 B and a serialized RTP packet is 172 B.
/// An allocation of either size during steady-state media is a smoking
/// gun for a payload copy (the seed code path made three per hop).
const PAYLOAD_SIZES: [usize; 2] = [160, 172];

#[test]
fn relay_path_performs_zero_payload_copies() {
    // --- Part 1: the packetizer fast path allocates nothing at all. ---
    let mut p = Packetizer::new(7, Law::Mu, 0, 0);
    let samples = vec![0i16; rtpcore::SAMPLES_PER_FRAME];
    let cached = p.encode_shared(&samples);
    let warmup = p.packetize_shared(cached.clone());
    drop(warmup);

    start_counting(&[]);
    for _ in 0..1000 {
        let datagram = p.packetize_shared(cached.clone());
        std::hint::black_box(&datagram);
    }
    assert_eq!(
        stop_counting().total,
        0,
        "steady-state packetization must be a pure refcount bump"
    );

    // --- Part 2: a full simulation window of pure media + relay. ---
    // Calls are placed in [1 s, 6 s] and hold for a fixed 30 s, so the
    // window [10 s, 25 s] contains nothing but media emission, network
    // hops, PBX relays and monitor taps — the steady-state fast path.
    let cfg = EmpiricalConfig {
        erlangs: 30.0,
        servers: 1,
        holding: HoldingDist::Fixed(30.0),
        placement_window_s: 5.0,
        channels: 20,
        media: MediaMode::PerPacket,
        pickup_delay: SimDuration::from_millis(500),
        link_loss_probability: 0.0,
        silence_suppression: false,
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
    let relayed_before: u64 = sim.world.pbxes.iter().map(|p| p.stats().rtp_relayed).sum();

    start_counting(&PAYLOAD_SIZES);
    sim.run_until(SimTime::from_secs(25));
    let counts = stop_counting();
    let (total, payload_sized) = (counts.total, counts.watched);

    let relayed: u64 = sim
        .world
        .pbxes
        .iter()
        .map(|p| p.stats().rtp_relayed)
        .sum::<u64>()
        - relayed_before;
    assert!(
        relayed > 1000,
        "window must exercise the relay path, got {relayed} packets"
    );
    assert_eq!(
        payload_sized, 0,
        "payload-sized buffers were allocated during steady-state media \
         ({payload_sized} of {total} allocations) — a copy crept back in"
    );
    // Nothing observes the payloads (no capture, express emission), so no
    // frame is re-encoded, and nothing else on the packet path allocates.
    assert_eq!(
        total, 0,
        "{total} allocations for {relayed} relayed packets — the \
         steady-state media path is allocating"
    );

    // --- Part 3: the two per-packet calls, alone, for 10^5 packets. ---
    // Four star hops and the PBX's relay decision per packet, driven
    // directly against the world the run left behind (its calls are
    // still bridged). Paced one frame per 20 us so no queue builds, and
    // kept inside one 5 s CPU window: closing a window pushes one
    // utilisation sample, which is per window, not per packet.
    let World { topo, pbxes, .. } = &mut sim.world;
    let mut rng = des::StreamRng::seed_from_u64(7);
    let path = [
        nodes::SIPP_CLIENT,
        nodes::SWITCH,
        nodes::PBX,
        nodes::SWITCH,
        nodes::SIPP_SERVER,
    ];
    let mut relay = |now: SimTime| {
        let mut at = now;
        for hop in path.windows(2) {
            match topo.network.enqueue(at, hop[0], hop[1], 218, &mut rng) {
                SendOutcome::Delivered { at: arrival } => at = arrival,
                other => panic!("paced RTP frame was not delivered: {other:?}"),
            }
        }
        // The first call of the run holds the first two media ports.
        pbxes[0]
            .relay_rtp(now, 10_000)
            .expect("the first call is still bridged");
    };
    let mut now = SimTime::from_secs(26);
    relay(now);
    start_counting(&[]);
    for _ in 0..100_000 {
        now += SimDuration::from_micros(20);
        relay(now);
    }
    assert_eq!(
        stop_counting().total,
        0,
        "Network::enqueue + Pbx::relay_rtp must not allocate"
    );
}
