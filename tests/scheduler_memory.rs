//! Allocator-gated proof that the event wheel costs what its ring costs,
//! and that its pre-seeded buckets keep the steady state allocation-free.
//!
//! * **A built wheel stays under 64 KiB.** Every `World` builds one, so
//!   its fixed cost is paid on every cell of every sweep. The ring spans
//!   ≈ 67 ms — one 20 ms media period and every LAN hop, with everything
//!   farther ahead in the overflow heap — so 128 buckets pre-seeded with
//!   4 slots each suffice. A 2.1 s ring of 4 096 such buckets took
//!   492 488 B here.
//! * **A drifting-phase hold model allocates nothing.** Sixteen events
//!   re-armed every 20.037 ms land on the 2^19 ns slots at drifting
//!   phases, so over 10⁵ pops every bucket takes pushes again and again.
//!   The pre-seed must absorb them all: a bucket built empty pays its
//!   first push, as `tests/rtp_zero_copy.rs` counts in a real media run.
//!
//! The whole check lives in ONE test fn: the counting allocator is
//! process-global, so concurrent tests in the same binary would pollute
//! the peak.

use des::{Scheduler, SchedulerKind, SimDuration, SimTime};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{peak_bytes, reset_peak, start_counting, stop_counting};

/// Width of one wheel slot, as `des::engine` sets it.
const SLOT_NS: u64 = 1 << 19;

/// The hold model must visit every slot index modulo this, and so every
/// bucket of any power-of-two ring up to 4 096 buckets.
const RING_COVERED: u64 = 4096;

#[test]
fn wheel_is_small_and_its_hold_model_allocates_nothing() {
    // --- A built wheel, as a 64-pending-event world would size it. ---
    let floor = reset_peak();
    let mut s = Scheduler::<u64>::with_kind_and_capacity(SchedulerKind::Wheel, 64);
    let built = peak_bytes() - floor;
    eprintln!("a built wheel peaks at {built} B");
    assert!(built < 64 * 1024, "a built wheel takes {built} B");

    // --- Sixteen streams at a 20.037 ms period, phases spread. ---
    let period = SimDuration::from_nanos(20_037_000);
    for i in 0..16u64 {
        s.schedule(SimTime::from_nanos(i * period.as_nanos() / 16), i);
    }
    let mut slots_seen = vec![false; RING_COVERED as usize];
    start_counting(&[]);
    for _ in 0..100_000 {
        let (t, stream) = s.pop().expect("the hold model never drains");
        slots_seen[(t.as_nanos() / SLOT_NS % RING_COVERED) as usize] = true;
        s.schedule(t + period, stream);
    }
    let allocs = stop_counting().total;
    assert!(
        slots_seen.iter().all(|&seen| seen),
        "the hold model skipped a slot index"
    );
    assert_eq!(allocs, 0, "allocations in the steady state");
}
