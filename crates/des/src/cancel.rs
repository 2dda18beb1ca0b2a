//! Generation-tagged logical timer cancellation.
//!
//! The scheduler's event wheel has no random-access delete — and should
//! not grow one: the hot path is push/pop-min, and the few places that
//! need "cancel that timer" can afford to let the stale event surface
//! and discard it. The idiom this module packages is the *generation
//! counter*: the owner keeps a [`Generation`] next to the state a timer
//! guards, stamps every scheduled event with [`Generation::current`],
//! and bumps the counter ([`Generation::invalidate`]) whenever the
//! guarded state changes. A surfacing event whose stamp no longer
//! matches ([`Generation::is_current`]) is a cancelled timer: O(1) to
//! "delete", no wheel surgery, and — crucially for this repo — the same
//! event is popped in the same order on every scheduler backend and
//! thread count, so digests stay bit-identical whether a timer was
//! cancelled or merely ignored.
//!
//! The population arrival engine is the flagship user: one pending
//! next-arrival event exists per generator, and every call start/end
//! invalidates it (the exponential's memorylessness makes
//! resample-from-now exact, see `loadgen::population`). The type is
//! deliberately tiny so any other subsystem with a "latest schedule
//! wins" timer can adopt the same discipline.

/// A monotonically increasing generation counter for stale-timer
/// detection. `Copy`-cheap stamps, O(1) cancel, no scheduler support
/// needed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Generation(u64);

/// The stamp a [`Generation`] issues; carry it inside the scheduled
/// event and check it when the event surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GenTag(u64);

impl Generation {
    /// A fresh counter (generation 0, nothing invalidated yet).
    #[must_use]
    pub fn new() -> Self {
        Generation::default()
    }

    /// The stamp to attach to an event scheduled *now*: valid until the
    /// next [`Generation::invalidate`].
    #[must_use]
    pub fn current(&self) -> GenTag {
        GenTag(self.0)
    }

    /// Cancel every outstanding stamp. Events carrying an older tag
    /// become stale; the new current tag is returned for convenience.
    pub fn invalidate(&mut self) -> GenTag {
        self.0 += 1;
        GenTag(self.0)
    }

    /// Does `tag` still name the live schedule? `false` means the event
    /// was logically cancelled and must be discarded without effect.
    #[must_use]
    pub fn is_current(&self, tag: GenTag) -> bool {
        self.0 == tag.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tag_is_current_until_invalidated() {
        let mut g = Generation::new();
        let t = g.current();
        assert!(g.is_current(t));
        g.invalidate();
        assert!(!g.is_current(t), "stamp cancelled by the bump");
        assert!(g.is_current(g.current()));
    }

    #[test]
    fn invalidate_returns_the_new_live_tag() {
        let mut g = Generation::new();
        let t = g.invalidate();
        assert!(g.is_current(t));
        let old = t;
        let newer = g.invalidate();
        assert!(!g.is_current(old));
        assert!(g.is_current(newer));
    }

    #[test]
    fn stale_events_discard_in_scheduler_order() {
        // The full idiom against a real scheduler: three timers armed,
        // the first two cancelled by re-arms; only the final generation
        // fires an effect, and events still pop in time order.
        use crate::engine::Scheduler;
        let mut sched: Scheduler<GenTag> = Scheduler::new();
        let mut g = Generation::new();
        let mut fired = Vec::new();
        sched.schedule(crate::SimTime::from_secs(1), g.current());
        sched.schedule(crate::SimTime::from_secs(2), g.invalidate());
        sched.schedule(crate::SimTime::from_secs(3), g.invalidate());
        while let Some((at, tag)) = sched.pop() {
            if g.is_current(tag) {
                fired.push(at.as_secs_f64() as u64);
            }
        }
        assert_eq!(fired, vec![3], "only the live generation fires");
    }
}
