//! Integration: allocation regression for the RTP media path.
//!
//! The zero-copy design moves G.711 payloads as `Arc<[u8]>` — the bytes
//! are companded once per `encode_every` frames and every subsequent
//! packetization, network hop and PBX relay is a refcount bump. A counting
//! global allocator makes that claim falsifiable: during steady-state
//! media, no payload-sized buffer may be allocated, and total allocation
//! traffic must be bounded by re-encodes, not by relayed packets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

use asterisk_capacity::prelude::*;
use capacity::experiment::MediaMode;
use capacity::world::World;
use des::{Scheduler, SchedulerKind, SimTime, Simulation};
use loadgen::HoldingDist;
use rtpcore::packetizer::Law;
use rtpcore::Packetizer;

/// A G.711 frame payload is 160 B and a serialized RTP packet is 172 B.
/// An allocation of either size during steady-state media is a smoking
/// gun for a payload copy (the seed code path made three per hop).
const PAYLOAD_SIZES: [usize; 2] = [160, 172];

static ENABLED: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);
static PAYLOAD_SIZED: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counters are lock-free
// atomics, so no allocation or reentrancy happens on the counting path.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            TOTAL.fetch_add(1, Relaxed);
            if PAYLOAD_SIZES.contains(&layout.size()) {
                PAYLOAD_SIZED.fetch_add(1, Relaxed);
            }
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn start_counting() {
    TOTAL.store(0, Relaxed);
    PAYLOAD_SIZED.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
}

fn stop_counting() -> (u64, u64) {
    ENABLED.store(false, Relaxed);
    (TOTAL.load(Relaxed), PAYLOAD_SIZED.load(Relaxed))
}

/// Both checks live in one test function: the counters are process-global
/// and must not see a concurrent sibling test.
#[test]
fn relay_path_performs_zero_payload_copies() {
    // --- Part 1: the packetizer fast path allocates nothing at all. ---
    let mut p = Packetizer::new(7, Law::Mu, 0, 0);
    let samples = vec![0i16; rtpcore::SAMPLES_PER_FRAME];
    let cached = p.encode_shared(&samples);
    let warmup = p.packetize_shared(cached.clone());
    drop(warmup);

    start_counting();
    for _ in 0..1000 {
        let datagram = p.packetize_shared(cached.clone());
        std::hint::black_box(&datagram);
    }
    let (total, _) = stop_counting();
    assert_eq!(
        total, 0,
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
        media: MediaMode::PerPacket { encode_every: 50 },
        pickup_delay: des::SimDuration::from_millis(500),
        link_loss_probability: 0.0,
        silence_suppression: false,
        capture_traffic: false,
        user_pool: 50,
        max_calls_per_user: None,
        faults: faults::FaultSchedule::new(),
        overload_law: None,
        retry: None,
        threads: None,
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

    start_counting();
    sim.run_until(SimTime::from_secs(25));
    let (total, payload_sized) = stop_counting();

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
    // Allocation traffic is bounded by periodic re-encodes (one shared
    // buffer per `encode_every` frames per stream), not by packets.
    assert!(
        total < relayed / 5,
        "{total} allocations for {relayed} relayed packets — the media \
         path is allocating per packet"
    );
}
