//! The future-event list and simulation driver.
//!
//! Events of user type `E` are kept in one of two interchangeable
//! future-event-list backends:
//!
//! * **Heap** — a binary max-heap wrapped so that the *earliest* time pops
//!   first. Small and obviously correct: the model the wheel's pop order
//!   is tested against. No simulation run is on it.
//! * **Wheel** — what every run is on. A hierarchical timing wheel: a
//!   ring of near-term buckets (each `WHEEL_SLOT_NS` wide,
//!   `WHEEL_SLOTS` of them, ≈2 s of horizon) plus an overflow heap for
//!   far-future events. Scheduling into
//!   the near term touches a bucket-local heap of a handful of events
//!   instead of a global heap of thousands, which is what makes the
//!   media-saturated capacity runs cheap. Overflow events are promoted
//!   into their bucket when the cursor reaches their slot. An occupancy
//!   bitmap (one bit per bucket) finds the next non-empty bucket, so a
//!   sparse timeline costs per event, not per empty slot.
//!
//! Either way, simultaneous events pop in scheduling (FIFO) order thanks to
//! a monotonically increasing sequence number shared by both backends. This
//! stable `(time, seq)` tie-break is what makes runs reproducible: a SIP
//! 200-OK scheduled before an RTP packet at the same instant is always
//! delivered first, and the two backends produce bit-identical pop orders
//! (enforced by this module's tests and `tests/determinism.rs`).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Width of one near-term wheel bucket in nanoseconds (≈0.52 ms — finer
/// than the 20 ms media frame period, coarser than LAN hop latencies, so
/// in-flight packets land a few buckets ahead of the cursor).
const WHEEL_SLOT_NS: u64 = 1 << 19;

/// Number of near-term buckets; the wheel horizon is
/// `WHEEL_SLOT_NS × WHEEL_SLOTS` ≈ 2.1 s. Hangups (120 s holding times),
/// registration expiries and scheduled faults overflow to the far heap.
const WHEEL_SLOTS: usize = 4096;

/// A pending event: fire time, insertion sequence, payload.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest (time, seq).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Which future-event-list backend a [`Scheduler`] uses. The default is
/// the wheel every run uses; the heap is the model tests compare it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Global binary heap — the reference implementation.
    Heap,
    /// Hierarchical timing wheel with overflow heap — the fast path.
    #[default]
    Wheel,
}

/// One wheel bucket: a binary min-heap on `(at, seq)` over a `Vec`.
///
/// Not `BinaryHeap`: a bucket holds a handful of events, and `std`'s
/// `pop` stays out of line, so every event would be copied out through
/// its `Option` and again into the scheduler's on the way to the handler.
/// These three inline into the run loop. `(at, seq)` keys are unique, so
/// any correct heap pops in the same order; the heap *backend* stays on
/// `std`'s as the independent model this one is tested against.
struct Bucket<E>(Vec<Scheduled<E>>);

impl<E> Bucket<E> {
    #[inline]
    fn key(&self, i: usize) -> (SimTime, u64) {
        (self.0[i].at, self.0[i].seq)
    }

    #[inline]
    fn peek(&self) -> Option<&Scheduled<E>> {
        self.0.first()
    }

    #[inline]
    fn push(&mut self, s: Scheduled<E>) {
        self.0.push(s);
        let mut i = self.0.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.key(parent) <= self.key(i) {
                break;
            }
            self.0.swap(parent, i);
            i = parent;
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Scheduled<E>> {
        let last = self.0.pop()?;
        let Some(root) = self.0.first_mut() else {
            return Some(last);
        };
        let top = std::mem::replace(root, last);
        let (mut i, n) = (0, self.0.len());
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.key(right) < self.key(left) {
                right
            } else {
                left
            };
            if self.key(i) <= self.key(child) {
                break;
            }
            self.0.swap(i, child);
            i = child;
        }
        Some(top)
    }
}

/// Words in the wheel's occupancy bitmap.
const OCC_WORDS: usize = WHEEL_SLOTS / 64;

/// Hierarchical timing wheel: near-term bucket ring + far-future overflow.
///
/// Invariants (the model proptest walks the wheel after every operation;
/// the cross-backend determinism tests check the last):
/// * every bucket holds only events whose absolute slot lies in
///   `[cursor, cursor + WHEEL_SLOTS)`;
/// * overflow events always have `slot > cursor` (promotion happens the
///   moment the cursor arrives at a slot, before anything pops from it);
/// * bit `i` of `occupied` is set exactly when bucket `i` is non-empty;
/// * `(time, seq)` orders pops exactly like the global heap.
struct TimingWheel<E> {
    buckets: Vec<Bucket<E>>,
    /// One bit per bucket, so the seek for the next event reads at most
    /// `OCC_WORDS + 1` words however many empty slots lie in between.
    occupied: [u64; OCC_WORDS],
    overflow: BinaryHeap<Scheduled<E>>,
    /// Absolute slot index the wheel has drained up to.
    cursor: u64,
    /// Events currently resident in buckets.
    wheel_len: usize,
    /// Total pending events (buckets + overflow).
    len: usize,
    /// Occupancy words read by `next_bucket_slot` (the seek-cost gate).
    #[cfg(test)]
    probes: std::cell::Cell<u64>,
}

#[inline]
fn slot_of(at: SimTime) -> u64 {
    at.as_nanos() / WHEEL_SLOT_NS
}

#[inline]
fn bucket_index(abs_slot: u64) -> usize {
    (abs_slot % WHEEL_SLOTS as u64) as usize
}

impl<E> TimingWheel<E> {
    fn new() -> Self {
        TimingWheel {
            // Seed every bucket with a minimal capacity so the steady
            // state never pays a first-push allocation as the cursor
            // sweeps into previously untouched slots (16 384 event slots
            // once, versus thousands of one-off allocations spread over
            // early revolutions).
            buckets: (0..WHEEL_SLOTS)
                .map(|_| Bucket(Vec::with_capacity(4)))
                .collect(),
            occupied: [0; OCC_WORDS],
            overflow: BinaryHeap::new(),
            cursor: 0,
            wheel_len: 0,
            len: 0,
            #[cfg(test)]
            probes: std::cell::Cell::new(0),
        }
    }

    /// Put `s` in the bucket of absolute slot `slot`.
    #[inline]
    fn push_bucket(&mut self, slot: u64, s: Scheduled<E>) {
        let idx = bucket_index(slot);
        self.buckets[idx].push(s);
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.wheel_len += 1;
    }

    #[inline]
    fn push(&mut self, s: Scheduled<E>) {
        // Events behind the cursor (the clock trails the cursor after a
        // horizon stop) are clamped into the cursor bucket; (time, seq)
        // ordering inside the bucket keeps the pop order exact.
        let slot = slot_of(s.at).max(self.cursor);
        self.len += 1;
        if slot < self.cursor + WHEEL_SLOTS as u64 {
            self.push_bucket(slot, s);
        } else {
            self.overflow.push(s);
        }
    }

    /// Move overflow events whose slot the cursor has reached into their
    /// bucket so they merge into the (time, seq) order.
    #[inline]
    fn promote_due(&mut self) {
        while let Some(top) = self.overflow.peek() {
            if slot_of(top.at) > self.cursor {
                break;
            }
            let s = self.overflow.pop().expect("peeked overflow entry");
            self.push_bucket(slot_of(s.at), s);
        }
    }

    /// Absolute slot of the next non-empty bucket at or after the cursor:
    /// the first set occupancy bit in ring order from the cursor's.
    #[inline]
    fn next_bucket_slot(&self) -> Option<u64> {
        if self.wheel_len == 0 {
            return None;
        }
        let cursor_idx = bucket_index(self.cursor);
        let (first_word, first_bit) = (cursor_idx / 64, cursor_idx % 64);
        // The cursor's word is read twice: its bits from the cursor up
        // first, the ones below (a full revolution ahead) last.
        let below = (1u64 << first_bit) - 1;
        (0..=OCC_WORDS).find_map(|k| {
            #[cfg(test)]
            self.probes.set(self.probes.get() + 1);
            let word = self.occupied[(first_word + k) % OCC_WORDS];
            let word = match k {
                0 => word & !below,
                OCC_WORDS => word & below,
                _ => word,
            };
            // Word `k` of the scan starts `64 * k - first_bit` slots ahead.
            (word != 0)
                .then(|| self.cursor + (64 * k + word.trailing_zeros() as usize - first_bit) as u64)
        })
    }

    /// Advance the cursor to the slot holding the next event (promoting
    /// overflow on arrival). Returns false when nothing is pending.
    #[inline]
    fn seek_next(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        loop {
            self.promote_due();
            if self.buckets[bucket_index(self.cursor)].peek().is_some() {
                return true;
            }
            let wheel_next = self.next_bucket_slot();
            let over_next = self.overflow.peek().map(|s| slot_of(s.at));
            let next = match (wheel_next, over_next) {
                (Some(w), Some(o)) => w.min(o),
                (Some(w), None) => w,
                (None, Some(o)) => o,
                (None, None) => return false,
            };
            // The cursor's bucket is empty, so a stale occupancy bit is
            // the one way to stand still — and then to spin here forever.
            debug_assert!(next > self.cursor, "seek did not advance");
            self.cursor = next;
        }
    }

    /// Fire key of the next event without mutating the wheel.
    #[cfg(test)]
    fn next_key(&self) -> Option<(SimTime, u64)> {
        let over = self.overflow.peek().map(|s| (s.at, s.seq));
        let wheel = self
            .next_bucket_slot()
            .and_then(|slot| self.buckets[bucket_index(slot)].peek())
            .map(|s| (s.at, s.seq));
        match (wheel, over) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
        }
    }

    /// Pop the next event if it fires at or before `horizon`.
    #[inline]
    fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<Scheduled<E>> {
        if !self.seek_next() {
            return None;
        }
        let idx = bucket_index(self.cursor);
        let bucket = &mut self.buckets[idx];
        if bucket.peek()?.at > horizon {
            return None;
        }
        let s = bucket.pop()?;
        if bucket.peek().is_none() {
            self.occupied[idx / 64] &= !(1 << (idx % 64));
        }
        self.wheel_len -= 1;
        self.len -= 1;
        Some(s)
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.0.clear();
        }
        self.occupied = [0; OCC_WORDS];
        self.overflow.clear();
        self.wheel_len = 0;
        self.len = 0;
    }
}

enum Backend<E> {
    Heap(BinaryHeap<Scheduled<E>>),
    Wheel(Box<TimingWheel<E>>),
}

/// The future-event list.
pub struct Scheduler<E> {
    backend: Backend<E>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler at time zero on the default backend.
    #[must_use]
    pub fn new() -> Self {
        Self::with_kind(SchedulerKind::default())
    }

    /// An empty scheduler on the chosen backend.
    #[must_use]
    pub fn with_kind(kind: SchedulerKind) -> Self {
        Self::with_kind_and_capacity(kind, 0)
    }

    /// An empty scheduler on the default backend, pre-sized for roughly
    /// `cap` concurrently pending events.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_kind_and_capacity(SchedulerKind::default(), cap)
    }

    /// An empty scheduler on the chosen backend, pre-sized for roughly
    /// `cap` concurrently pending events (the heap reserves exactly; the
    /// wheel sizes its overflow, since bucket occupancy is self-limiting).
    #[must_use]
    pub fn with_kind_and_capacity(kind: SchedulerKind, cap: usize) -> Self {
        let backend = match kind {
            SchedulerKind::Heap => Backend::Heap(BinaryHeap::with_capacity(cap)),
            SchedulerKind::Wheel => {
                let mut wheel = TimingWheel::new();
                wheel.overflow.reserve(cap / 4);
                Backend::Wheel(Box::new(wheel))
            }
        };
        Scheduler {
            backend,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Which backend this scheduler runs on.
    #[must_use]
    pub fn kind(&self) -> SchedulerKind {
        match self.backend {
            Backend::Heap(_) => SchedulerKind::Heap,
            Backend::Wheel(_) => SchedulerKind::Wheel,
        }
    }

    /// The current simulation time (the fire time of the last popped event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to `now` — the event fires
    /// immediately after the current one, preserving causality rather than
    /// panicking deep inside a long run.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = Scheduled { at, seq, event };
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(s),
            Backend::Wheel(wheel) => wheel.push(s),
        }
    }

    /// Pop the next event, advancing the clock to its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Pop the next event only if it fires at or before `horizon`,
    /// advancing the clock to its fire time. A single call replaces the
    /// peek-then-pop sequence the event loop used to make; on the wheel
    /// backend the peek would cost a bucket scan, so the fused form is
    /// what [`Simulation::run_until`] drives.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let s = match &mut self.backend {
            Backend::Heap(heap) => {
                if heap.peek().map(|s| s.at) > Some(horizon) {
                    return None;
                }
                heap.pop()?
            }
            Backend::Wheel(wheel) => wheel.pop_at_or_before(horizon)?,
        };
        debug_assert!(s.at >= self.now, "event queue went back in time");
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Fire time of the next pending event, if any: the probe the
    /// wheel-vs-heap model test compares after every operation.
    #[cfg(test)]
    fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            Backend::Heap(heap) => heap.peek().map(|s| s.at),
            Backend::Wheel(wheel) => wheel.next_key().map(|(at, _)| at),
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(heap) => heap.len(),
            Backend::Wheel(wheel) => wheel.len,
        }
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all pending events without changing the clock.
    pub fn clear(&mut self) {
        match &mut self.backend {
            Backend::Heap(heap) => heap.clear(),
            Backend::Wheel(wheel) => wheel.clear(),
        }
    }
}

/// A world that consumes events and schedules follow-ups.
pub trait EventHandler<E> {
    /// Handle `event` firing at time `at`; schedule any follow-up events on
    /// `sched`.
    fn handle(&mut self, at: SimTime, event: E, sched: &mut Scheduler<E>);
}

/// Couples a [`Scheduler`] with an [`EventHandler`] world and drives the
/// event loop.
pub struct Simulation<W, E> {
    /// The world state (public: experiments read results out of it).
    pub world: W,
    /// The future-event list.
    pub sched: Scheduler<E>,
    events_processed: u64,
}

impl<W: EventHandler<E>, E> Simulation<W, E> {
    /// Build a simulation around an initial world (default scheduler).
    pub fn new(world: W) -> Self {
        Self::with_scheduler(world, Scheduler::new())
    }

    /// Build a simulation around an initial world and a pre-built (and
    /// possibly pre-sized / wheel-backed) scheduler.
    pub fn with_scheduler(world: W, sched: Scheduler<E>) -> Self {
        Simulation {
            world,
            sched,
            events_processed: 0,
        }
    }

    /// Run until the queue empties or the horizon passes; returns the number
    /// of events processed by this call.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let start = self.events_processed;
        while let Some((at, ev)) = self.sched.pop_at_or_before(horizon) {
            self.world.handle(at, ev, &mut self.sched);
            self.events_processed += 1;
        }
        self.events_processed - start
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Total events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    const BOTH: [SchedulerKind; 2] = [SchedulerKind::Heap, SchedulerKind::Wheel];

    #[test]
    fn pops_in_time_order() {
        for kind in BOTH {
            let mut s = Scheduler::with_kind(kind);
            s.schedule(SimTime::from_secs(3), "c");
            s.schedule(SimTime::from_secs(1), "a");
            s.schedule(SimTime::from_secs(2), "b");
            let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "c"], "{kind:?}");
        }
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        for kind in BOTH {
            let mut s = Scheduler::with_kind(kind);
            let t = SimTime::from_secs(1);
            for i in 0..100 {
                s.schedule(t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        for kind in BOTH {
            let mut s = Scheduler::with_kind(kind);
            s.schedule(SimTime::from_secs(5), ());
            assert_eq!(s.now(), SimTime::ZERO);
            s.pop();
            assert_eq!(s.now(), SimTime::from_secs(5), "{kind:?}");
        }
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        for kind in BOTH {
            let mut s = Scheduler::with_kind(kind);
            s.schedule(SimTime::from_secs(10), "later");
            s.pop();
            s.schedule(SimTime::from_secs(1), "past");
            let (t, e) = s.pop().unwrap();
            assert_eq!(e, "past");
            assert_eq!(t, SimTime::from_secs(10), "clamped to now ({kind:?})");
        }
    }

    #[test]
    fn bookkeeping() {
        assert_eq!(Scheduler::<u8>::new().kind(), SchedulerKind::Wheel);
        for kind in BOTH {
            let mut s = Scheduler::<u8>::with_kind_and_capacity(kind, 16);
            assert!(s.is_empty());
            assert_eq!(s.kind(), kind);
            s.schedule(SimTime::from_secs(1), 1);
            s.schedule(SimTime::from_secs(2), 2);
            assert_eq!(s.len(), 2);
            assert_eq!(s.peek_time(), Some(SimTime::from_secs(1)));
            s.clear();
            assert!(s.is_empty());
        }
    }

    #[test]
    fn pop_at_or_before_honours_horizon() {
        for kind in BOTH {
            let mut s = Scheduler::with_kind(kind);
            s.schedule(SimTime::from_secs(1), "a");
            s.schedule(SimTime::from_secs(3), "b");
            assert_eq!(
                s.pop_at_or_before(SimTime::from_secs(2)).map(|(_, e)| e),
                Some("a")
            );
            assert_eq!(s.pop_at_or_before(SimTime::from_secs(2)), None);
            assert_eq!(s.len(), 1, "event beyond horizon stays queued");
            // The clock did not move past the horizon refusal.
            assert_eq!(s.now(), SimTime::from_secs(1));
            assert_eq!(
                s.pop_at_or_before(SimTime::MAX).map(|(_, e)| e),
                Some("b"),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn wheel_overflow_events_merge_in_order() {
        // Far-future events (beyond the ~2 s wheel horizon) must interleave
        // exactly with near-term events scheduled later for the same times.
        let horizon_ns = WHEEL_SLOT_NS * WHEEL_SLOTS as u64;
        let mut w = Scheduler::with_kind(SchedulerKind::Wheel);
        let mut h = Scheduler::with_kind(SchedulerKind::Heap);
        for s in [&mut w, &mut h] {
            // Beyond the horizon at insert time: lands in overflow.
            s.schedule(SimTime::from_nanos(horizon_ns + 5), "far-first");
            s.schedule(SimTime::from_nanos(horizon_ns + 5), "far-second");
            s.schedule(SimTime::from_nanos(10), "near");
        }
        loop {
            let a = w.pop();
            let b = h.pop();
            assert_eq!(
                a.as_ref().map(|(t, e)| (*t, *e)),
                b.as_ref().map(|(t, e)| (*t, *e))
            );
            if a.is_none() {
                break;
            }
            // After draining "near", schedule a same-time rival that goes
            // straight into a bucket while its twin sits in overflow.
            if a.map(|(_, e)| e) == Some("near") {
                w.schedule(SimTime::from_nanos(horizon_ns + 5), "bucket-late");
                h.schedule(SimTime::from_nanos(horizon_ns + 5), "bucket-late");
            }
        }
    }

    #[test]
    fn backends_pop_identically_under_random_load() {
        // Mixed near/far/simultaneous churn: both backends must agree on
        // every (time, seq) pop, including re-scheduling during the drain.
        let mut w = Scheduler::with_kind(SchedulerKind::Wheel);
        let mut h = Scheduler::with_kind(SchedulerKind::Heap);
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..5000u32 {
            // Spread between sub-slot times and multi-second far times.
            let t = next() % 5_000_000_000;
            w.schedule(SimTime::from_nanos(t), i);
            h.schedule(SimTime::from_nanos(t), i);
        }
        let mut popped = 0u32;
        loop {
            let a = w.pop();
            let b = h.pop();
            assert_eq!(a, b, "diverged after {popped} pops");
            let Some((t, _)) = a else { break };
            popped += 1;
            // Occasionally re-inject near the current time.
            if popped.is_multiple_of(7) {
                let dt = next() % 50_000_000;
                w.schedule(t + SimDuration::from_nanos(dt), 1_000_000 + popped);
                h.schedule(t + SimDuration::from_nanos(dt), 1_000_000 + popped);
            }
        }
        assert!(popped > 5000);
    }

    /// Walk the whole wheel: every bucket's occupancy bit says whether it
    /// holds anything, every resident event sits in the bucket of its
    /// (cursor-clamped) slot inside the horizon, overflow lies strictly
    /// ahead of the cursor, and the two lengths count what is there.
    fn assert_wheel_consistent<E>(s: &Scheduler<E>) {
        let Backend::Wheel(w) = &s.backend else {
            panic!("not a wheel scheduler");
        };
        let mut resident = 0;
        for (i, b) in w.buckets.iter().enumerate() {
            let bit = w.occupied[i / 64] >> (i % 64) & 1 == 1;
            assert_eq!(bit, !b.0.is_empty(), "occupancy bit of bucket {i}");
            resident += b.0.len();
            for e in &b.0 {
                let slot = slot_of(e.at).max(w.cursor);
                assert!(slot < w.cursor + WHEEL_SLOTS as u64, "beyond the horizon");
                assert_eq!(bucket_index(slot), i, "event in the wrong bucket");
            }
        }
        assert!(w.overflow.iter().all(|e| slot_of(e.at) > w.cursor));
        assert_eq!(w.wheel_len, resident);
        assert_eq!(w.len, resident + w.overflow.len());
    }

    proptest! {
        /// The wheel against the heap model over arbitrary interleavings
        /// of schedule / bounded pop / peek / clear, on timelines from
        /// dense (gap 0) to sparse (three revolutions between events).
        #[test]
        fn wheel_matches_heap_model_over_op_sequences(
            ops in proptest::collection::vec((0u8..12, any::<u64>()), 1..300),
        ) {
            const REV_NS: u64 = WHEEL_SLOT_NS * WHEEL_SLOTS as u64;
            let mut w = Scheduler::with_kind(SchedulerKind::Wheel);
            let mut h = Scheduler::with_kind(SchedulerKind::Heap);
            let mut id = 0u32;
            for (op, x) in ops {
                match op {
                    // Schedule ahead of the clock. After a horizon stop the
                    // cursor sits at the refused event's slot, ahead of the
                    // clock, so the two short gaps also land *behind the
                    // cursor* (the clamp in `push`).
                    0..=5 => {
                        let gap = match op {
                            0 => 0,
                            1 => x % WHEEL_SLOT_NS,
                            2 | 3 => x % (3 * REV_NS),
                            4 => REV_NS - WHEEL_SLOT_NS + x % (2 * WHEEL_SLOT_NS),
                            _ => REV_NS + x % (100 * REV_NS),
                        };
                        let at = w.now() + SimDuration::from_nanos(gap);
                        w.schedule(at, id);
                        h.schedule(at, id);
                        id += 1;
                    }
                    // Bounded pop; sometimes re-schedule into the bucket
                    // being drained.
                    6..=9 => {
                        let horizon = w.now() + SimDuration::from_nanos(x % (2 * REV_NS));
                        let peek = w.peek_time();
                        let popped = w.pop_at_or_before(horizon);
                        prop_assert_eq!(popped, h.pop_at_or_before(horizon));
                        prop_assert_eq!(
                            popped.map(|(t, _)| t),
                            peek.filter(|&t| t <= horizon)
                        );
                        if let (Some((t, _)), true) = (popped, x % 3 == 0) {
                            let at = t + SimDuration::from_nanos(x % (WHEEL_SLOT_NS / 4));
                            w.schedule(at, id);
                            h.schedule(at, id);
                            id += 1;
                        }
                    }
                    10 => {
                        let peek = w.peek_time();
                        let popped = w.pop();
                        prop_assert_eq!(popped, h.pop());
                        prop_assert_eq!(popped.map(|(t, _)| t), peek);
                    }
                    _ => {
                        if x % 4 == 0 {
                            w.clear();
                            h.clear();
                        }
                    }
                }
                prop_assert_eq!(w.peek_time(), h.peek_time());
                prop_assert_eq!(w.len(), h.len());
                prop_assert_eq!(w.now(), h.now());
                assert_wheel_consistent(&w);
            }
            loop {
                let peek = w.peek_time();
                let popped = w.pop();
                prop_assert_eq!(popped, h.pop());
                prop_assert_eq!(popped.map(|(t, _)| t), peek);
                assert_wheel_consistent(&w);
                if popped.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn sparse_hold_model_seeks_by_occupancy_words() {
        // One event re-scheduled 1 s ahead on every pop: 1 907 empty slots
        // between events, all inside the horizon, so every pop seeks across
        // the ring (the next `PlaceCall` of a signalling-only cell). The
        // seek may read each occupancy word once, never each slot.
        let mut s = Scheduler::with_kind(SchedulerKind::Wheel);
        s.schedule(SimTime::from_secs(1), ());
        let probes = |s: &Scheduler<()>| match &s.backend {
            Backend::Wheel(w) => w.probes.get(),
            Backend::Heap(_) => unreachable!("built on the wheel"),
        };
        for _ in 0..1000 {
            let before = probes(&s);
            let (t, ()) = s.pop().expect("the hold model never drains");
            let read = probes(&s) - before;
            assert!(
                read <= OCC_WORDS as u64,
                "{read} occupancy words for one pop"
            );
            s.schedule(t + SimDuration::from_secs(1), ());
        }
        assert!(probes(&s) >= 1000, "every pop after the first had to seek");
    }

    /// A world that multiplies: every event spawns `n-1` follow-ups.
    struct Spawner {
        fired: Vec<(SimTime, u32)>,
    }
    impl EventHandler<u32> for Spawner {
        fn handle(&mut self, at: SimTime, n: u32, sched: &mut Scheduler<u32>) {
            self.fired.push((at, n));
            if n > 0 {
                sched.schedule(at + SimDuration::from_secs(1), n - 1);
            }
        }
    }

    #[test]
    fn simulation_drives_cascades() {
        let mut sim = Simulation::new(Spawner { fired: vec![] });
        sim.sched.schedule(SimTime::from_secs(1), 3u32);
        let n = sim.run_until(SimTime::MAX);
        assert_eq!(n, 4);
        assert_eq!(sim.events_processed(), 4);
        assert_eq!(
            sim.world.fired,
            vec![
                (SimTime::from_secs(1), 3),
                (SimTime::from_secs(2), 2),
                (SimTime::from_secs(3), 1),
                (SimTime::from_secs(4), 0),
            ]
        );
    }

    #[test]
    fn horizon_stops_but_keeps_events() {
        for kind in BOTH {
            let mut sim =
                Simulation::with_scheduler(Spawner { fired: vec![] }, Scheduler::with_kind(kind));
            sim.sched.schedule(SimTime::from_secs(1), 10u32);
            let n = sim.run_until(SimTime::from_secs(3));
            assert_eq!(n, 3, "events at t=1,2,3 ({kind:?})");
            assert_eq!(sim.run_until(SimTime::from_secs(3)), 0, "horizon reached");
            assert_eq!(sim.sched.len(), 1, "t=4 event still queued");
            // Extending the horizon resumes.
            let n2 = sim.run_until(SimTime::MAX);
            assert_eq!(n2, 8);
            assert!(sim.sched.is_empty(), "exhausted");
        }
    }

    #[test]
    fn large_queue_remains_ordered() {
        // Pseudo-random insertion order, verify global ordering on drain.
        for kind in BOTH {
            let mut s = Scheduler::with_kind(kind);
            let mut x: u64 = 0x9E3779B97F4A7C15;
            for _ in 0..10_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                s.schedule(SimTime::from_nanos(x % 1_000_000), ());
            }
            let mut last = SimTime::ZERO;
            while let Some((t, ())) = s.pop() {
                assert!(t >= last, "{kind:?}");
                last = t;
            }
        }
    }
}
