//! The finite channel pool — the capacity knob `N` of the whole study.
//!
//! Each active call occupies one channel (a channel carries the two-party
//! conversation; the paper notes a PBX of `N` channels serves at most `2N`
//! users concurrently). When the pool is exhausted the B2BUA refuses new
//! INVITEs, which is precisely the "blocked call" the Erlang-B model
//! predicts.

use des::{SimTime, Slab, TimeWeighted};

/// Identifier of an allocated channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelId(pub u32);

/// The pool.
#[derive(Debug, Clone)]
pub struct ChannelPool {
    capacity: u32,
    /// The allocated channels, keyed by id: low ids first, the last
    /// released one next.
    busy: Slab<()>,
    peak: u32,
    peak_gauge: u32,
    refused_total: u64,
    occupancy: TimeWeighted,
}

impl ChannelPool {
    /// A pool of `capacity` channels.
    #[must_use]
    pub fn new(capacity: u32) -> Self {
        let mut occupancy = TimeWeighted::new();
        occupancy.set(SimTime::ZERO, 0.0);
        ChannelPool {
            capacity,
            busy: Slab::new(),
            peak: 0,
            peak_gauge: 0,
            refused_total: 0,
            occupancy,
        }
    }

    /// Total channels configured.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Channels currently allocated.
    #[must_use]
    pub fn in_use(&self) -> u32 {
        self.busy.len() as u32
    }

    /// Highest concurrent allocation seen — Table I's "Number of Channels".
    #[must_use]
    pub fn peak(&self) -> u32 {
        self.peak
    }

    /// High-water-mark gauge: the highest concurrent allocation since the
    /// last [`ChannelPool::flush`]. Unlike [`ChannelPool::peak`] (all-time,
    /// for Table I), a crash fault re-arms this gauge, so it reads how far
    /// the pool refills during recovery.
    #[must_use]
    pub fn peak_in_use(&self) -> u32 {
        self.peak_gauge
    }

    /// Forcibly return every allocated channel to the free list — a PBX
    /// crash wiping its channel table. Returns how many were flushed.
    /// Outstanding [`ChannelId`]s become invalid; the caller must drop
    /// its call state alongside (releasing one later would double-free).
    pub fn flush(&mut self, now: SimTime) -> u32 {
        let flushed = self.in_use();
        self.busy.clear();
        self.peak_gauge = 0;
        self.occupancy.set(now, 0.0);
        flushed
    }

    /// Total refused allocations (pool exhausted).
    #[must_use]
    pub fn refused_total(&self) -> u64 {
        self.refused_total
    }

    /// Try to allocate a channel at time `now`.
    pub fn allocate(&mut self, now: SimTime) -> Option<ChannelId> {
        if self.in_use() == self.capacity {
            self.refused_total += 1;
            return None;
        }
        let id = self.busy.insert(());
        let in_use = self.in_use();
        self.peak = self.peak.max(in_use);
        self.peak_gauge = self.peak_gauge.max(in_use);
        self.occupancy.set(now, f64::from(in_use));
        Some(ChannelId(id))
    }

    /// Release a previously allocated channel at time `now`.
    ///
    /// # Panics
    /// On double-release or release of a never-allocated id — both are
    /// accounting bugs worth failing loudly on.
    pub fn release(&mut self, now: SimTime, id: ChannelId) {
        assert!(id.0 < self.capacity, "channel {id:?} out of range");
        let released = self.busy.remove(id.0);
        assert!(released.is_some(), "double release of channel {id:?}");
        self.occupancy.set(now, f64::from(self.in_use()));
    }

    /// Time-weighted mean occupancy over `[0, until]` — the *carried
    /// traffic* in Erlangs, directly comparable to `A·(1−Pb)`.
    #[must_use]
    pub fn mean_occupancy(&self, until: SimTime) -> f64 {
        let m = self.occupancy.mean_until(until);
        if m.is_nan() {
            0.0
        } else {
            m
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::SimDuration;

    #[test]
    fn allocates_up_to_capacity_then_refuses() {
        let mut pool = ChannelPool::new(3);
        let t = SimTime::ZERO;
        let a = pool.allocate(t).unwrap();
        let b = pool.allocate(t).unwrap();
        let c = pool.allocate(t).unwrap();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(pool.in_use(), 3);
        assert!(pool.allocate(t).is_none(), "pool exhausted");
        assert_eq!(pool.refused_total(), 1);
        assert_eq!(pool.peak(), 3);
    }

    #[test]
    fn release_makes_channel_reusable() {
        let mut pool = ChannelPool::new(1);
        let t0 = SimTime::ZERO;
        let c = pool.allocate(t0).unwrap();
        assert!(pool.allocate(t0).is_none());
        pool.release(t0 + SimDuration::from_secs(1), c);
        assert_eq!(pool.in_use(), 0);
        assert!(pool.allocate(t0 + SimDuration::from_secs(2)).is_some());
        assert_eq!(pool.peak(), 1, "peak unchanged by churn");
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut pool = ChannelPool::new(2);
        let c = pool.allocate(SimTime::ZERO).unwrap();
        pool.release(SimTime::ZERO, c);
        pool.release(SimTime::ZERO, c);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn foreign_channel_panics() {
        let mut pool = ChannelPool::new(2);
        pool.release(SimTime::ZERO, ChannelId(7));
    }

    #[test]
    fn occupancy_integrates_busy_time() {
        // One channel busy for 60 s of a 120 s window = 0.5 Erlang carried.
        let mut pool = ChannelPool::new(10);
        let c = pool.allocate(SimTime::ZERO).unwrap();
        pool.release(SimTime::from_secs(60), c);
        let carried = pool.mean_occupancy(SimTime::from_secs(120));
        assert!((carried - 0.5).abs() < 1e-9, "carried={carried}");
    }

    #[test]
    fn occupancy_empty_pool_is_zero() {
        let pool = ChannelPool::new(5);
        assert_eq!(pool.mean_occupancy(SimTime::from_secs(10)), 0.0);
        assert_eq!(pool.capacity(), 5);
    }

    #[test]
    fn zero_capacity_pool_always_refuses() {
        let mut pool = ChannelPool::new(0);
        assert!(pool.allocate(SimTime::ZERO).is_none());
        assert_eq!(pool.refused_total(), 1);
    }

    #[test]
    fn flush_empties_pool_and_rearms_gauge() {
        let mut pool = ChannelPool::new(4);
        let t = SimTime::ZERO;
        for _ in 0..4 {
            pool.allocate(t).unwrap();
        }
        assert!(pool.allocate(t).is_none());
        assert_eq!(pool.flush(SimTime::from_secs(1)), 4);
        assert_eq!(pool.in_use(), 0);
        assert_eq!(pool.peak_in_use(), 0, "gauge cleared for recovery read");
        assert_eq!(pool.peak(), 4, "all-time peak survives the crash");
        // Every channel is allocatable again.
        for _ in 0..4 {
            assert!(pool.allocate(SimTime::from_secs(2)).is_some());
        }
        assert_eq!(pool.peak_in_use(), 4);
    }

    #[test]
    fn hands_out_low_ids_first_then_the_last_released() {
        let mut pool = ChannelPool::new(4);
        let t = SimTime::ZERO;
        let take = |pool: &mut ChannelPool| pool.allocate(t).unwrap().0;
        assert_eq!(
            [take(&mut pool), take(&mut pool), take(&mut pool)],
            [0, 1, 2]
        );
        pool.release(t, ChannelId(1));
        pool.release(t, ChannelId(0));
        assert_eq!(
            [take(&mut pool), take(&mut pool), take(&mut pool)],
            [0, 1, 3]
        );
        pool.flush(t);
        assert_eq!(take(&mut pool), 0, "a flushed pool starts over");
    }

    #[test]
    fn conservation_under_churn() {
        // allocated - released == in_use at every step.
        let mut pool = ChannelPool::new(8);
        let mut held = Vec::new();
        let (mut allocated, mut released) = (0u64, 0u64);
        for step in 0..100u64 {
            let t = SimTime::from_millis(step * 10);
            if step % 3 == 2 && !held.is_empty() {
                pool.release(t, held.pop().unwrap());
                released += 1;
            } else if let Some(c) = pool.allocate(t) {
                held.push(c);
                allocated += 1;
            }
            assert_eq!(u64::from(pool.in_use()), allocated - released);
            assert!(pool.in_use() <= pool.capacity());
        }
    }
}
