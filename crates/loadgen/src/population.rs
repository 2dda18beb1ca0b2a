//! Finite-source population workload engine — a million subscribers
//! without a million timers.
//!
//! The paper dimensions an 8 000-user campus; scaling that planning
//! story to 10⁶⁺ subscribers breaks any generator that prices its state
//! per *user* (one exponential timer, one map entry, one string each).
//! This module prices the workload per *active call* instead, in two
//! pieces:
//!
//! 1. **Aggregated Engset arrivals.** With `I` idle users each calling
//!    at rate `λ`, the superposition of their `I` independent
//!    exponential clocks is a single exponential clock of rate `I·λ`,
//!    and the identity of the next caller is uniform over the idle set.
//!    So instead of `I` timers the engine keeps the idle *count* and
//!    schedules ONE next-arrival event drawn as `Exp(I·λ)` — O(1) per
//!    arrival and exact in distribution. Every call start/end changes
//!    `I`, which invalidates the pending draw via a
//!    [`des::Generation`] counter; because the exponential is
//!    memoryless, re-sampling from "now" after an invalidation is also
//!    exact, not an approximation.
//!
//! 2. **Diurnal shaping.** A piecewise-constant [`DiurnalProfile`]
//!    multiplies `λ` through the day. Non-homogeneous arrivals are
//!    drawn by Lewis–Shedler thinning: candidates at the profile's peak
//!    rate, each accepted with probability `φ(t)/φ_max`. Thinning only
//!    reads the candidate time and one uniform per candidate.
//!
//! Registration churn rides the same O(active) philosophy: the
//! [`ChurnWheel`] maps wheel ticks to *contiguous rank ranges* of the
//! population (user of rank `r` re-REGISTERs at phase `r·expiry/count`),
//! so "who is due now" is two integer divisions, not a heap of 10⁶
//! timers.

use des::rng::Distributions;
use des::{GenTag, Generation, SimDuration, SimTime, StreamRng};
use serde::{Deserialize, Serialize};

/// A piecewise-constant daily (or any-period) arrival-rate profile.
///
/// Segment `k` of `n` covers `[k·P/n, (k+1)·P/n)` of each period `P` and
/// scales the per-user call rate by `multipliers[k]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiurnalProfile {
    multipliers: Vec<f64>,
    period_s: f64,
}

impl DiurnalProfile {
    /// A profile over `period_s` seconds with the given per-segment
    /// multipliers.
    ///
    /// # Panics
    /// If the period is not positive, no segment is given, any
    /// multiplier is negative/non-finite, or all multipliers are zero
    /// (thinning would never accept).
    #[must_use]
    pub fn new(period_s: f64, multipliers: Vec<f64>) -> Self {
        assert!(period_s > 0.0 && period_s.is_finite(), "positive period");
        assert!(!multipliers.is_empty(), "at least one segment");
        assert!(
            multipliers.iter().all(|m| m.is_finite() && *m >= 0.0),
            "multipliers must be finite and non-negative"
        );
        assert!(
            multipliers.iter().any(|m| *m > 0.0),
            "at least one segment must have positive rate"
        );
        DiurnalProfile {
            multipliers,
            period_s,
        }
    }

    /// The flat profile: multiplier 1.0 at all times (pure Engset).
    #[must_use]
    pub fn flat() -> Self {
        DiurnalProfile::new(86_400.0, vec![1.0])
    }

    /// A stylized campus day in 24 hourly segments: quiet overnight, a
    /// morning busy hour peaking at 10:00 with the classic secondary
    /// afternoon hump — the double-peak shape of institutional telephone
    /// traffic. Peak multiplier is 1.0 so `per_user_rate` reads directly
    /// as the busy-hour rate.
    #[must_use]
    pub fn campus_day() -> Self {
        DiurnalProfile::new(
            86_400.0,
            vec![
                0.02, 0.01, 0.01, 0.01, 0.02, 0.05, // 00-06
                0.15, 0.40, 0.75, 0.95, 1.00, 0.90, // 06-12
                0.70, 0.80, 0.90, 0.85, 0.70, 0.50, // 12-18
                0.35, 0.25, 0.18, 0.12, 0.08, 0.04, // 18-24
            ],
        )
    }

    /// Like [`DiurnalProfile::campus_day`] but compressed into
    /// `period_s` seconds — a whole synthetic "day" inside a short
    /// simulation window, so smoke runs and benches still exercise the
    /// thinning sampler across rate changes.
    #[must_use]
    pub fn campus_day_compressed(period_s: f64) -> Self {
        DiurnalProfile::new(period_s, DiurnalProfile::campus_day().multipliers)
    }

    /// The rate multiplier in force at simulation time `t`.
    #[must_use]
    pub fn multiplier_at(&self, t: SimTime) -> f64 {
        let phase = (t.as_secs_f64() / self.period_s).fract();
        // `fract` of a non-negative finite value is in [0, 1); the index
        // is clamped anyway against the = 1.0 rounding corner.
        let idx =
            ((phase * self.multipliers.len() as f64) as usize).min(self.multipliers.len() - 1);
        self.multipliers[idx]
    }

    /// The largest multiplier — the thinning envelope `φ_max`.
    #[must_use]
    pub fn max_multiplier(&self) -> f64 {
        self.multipliers.iter().fold(0.0_f64, |a, &b| a.max(b))
    }

    /// The profile period in seconds.
    #[must_use]
    pub fn period_s(&self) -> f64 {
        self.period_s
    }
}

/// Configuration of a finite-source population workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Total subscriber population `N`.
    pub subscribers: u64,
    /// Per-idle-user call rate `λ` (calls/second) at profile
    /// multiplier 1.0.
    pub per_user_rate: f64,
    /// Diurnal rate shaping.
    pub profile: DiurnalProfile,
    /// Registration expiry — every subscriber re-REGISTERs once per this
    /// interval, phase-staggered across the population.
    pub reg_expiry_s: f64,
    /// Expiry-wheel buckets per expiry period: one churn event per
    /// bucket re-registers the bucket's contiguous rank range.
    pub churn_buckets: u32,
}

impl PopulationConfig {
    /// A flat-profile population of `subscribers` users calling at
    /// `per_user_rate` calls/s each while idle.
    #[must_use]
    pub fn new(subscribers: u64, per_user_rate: f64) -> Self {
        PopulationConfig {
            subscribers,
            per_user_rate,
            profile: DiurnalProfile::flat(),
            reg_expiry_s: 3600.0,
            churn_buckets: 256,
        }
    }

    /// A population sized to offer `erlangs` of busy-hour traffic given
    /// a mean holding time: `λ = A / (N·h)` (the infinite-source
    /// approximation of the Engset intensity, which is what "offered
    /// load" means in the paper's Table I cells).
    #[must_use]
    pub fn for_offered_load(subscribers: u64, erlangs: f64, holding_mean_s: f64) -> Self {
        let rate = erlangs / (subscribers as f64 * holding_mean_s);
        PopulationConfig::new(subscribers, rate)
    }
}

/// One drawn arrival: when, who, and the generation stamp that decides
/// whether the scheduled event is still live when it surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival instant.
    pub at: SimTime,
    /// The calling user (ordinal in `0..subscribers`).
    pub user: u64,
    /// Stamp for [`PopulationArrivals::claim`] / staleness checks.
    pub tag: GenTag,
}

/// The finite-source arrival engine.
///
/// Protocol: the owner schedules the [`Arrival`] returned by
/// [`PopulationArrivals::next_arrival`] as an event carrying its `tag`.
/// When the event surfaces, [`PopulationArrivals::claim`] either
/// confirms it (marking the user busy and returning who calls) or
/// reports it stale — a logically cancelled timer to discard. Any state
/// change ([`PopulationArrivals::call_ended`], or claiming itself)
/// invalidates outstanding tags, after which the owner draws and
/// schedules a fresh arrival.
#[derive(Debug)]
pub struct PopulationArrivals {
    n: u64,
    rate: f64,
    profile: DiurnalProfile,
    /// Busy users, sorted ascending — the O(active calls) state the
    /// whole engine runs on.
    busy: Vec<u64>,
    generation: Generation,
    pending: Option<(SimTime, u64)>,
}

impl PopulationArrivals {
    /// An engine over `cfg` with every user idle. The second argument is
    /// ignored — the engine draws only from the stream handed to
    /// [`PopulationArrivals::next_arrival`] — and stays because the
    /// benchmark package compiles against this call shape.
    #[must_use]
    pub fn new(cfg: &PopulationConfig, _unused: u64) -> Self {
        assert!(cfg.subscribers > 0, "population must be non-empty");
        assert!(
            cfg.per_user_rate.is_finite() && cfg.per_user_rate > 0.0,
            "per-user rate must be positive"
        );
        PopulationArrivals {
            n: cfg.subscribers,
            rate: cfg.per_user_rate,
            profile: cfg.profile.clone(),
            busy: Vec::new(),
            generation: Generation::new(),
            pending: None,
        }
    }

    /// Total population.
    #[must_use]
    pub fn subscribers(&self) -> u64 {
        self.n
    }

    /// Users currently idle (candidates to call).
    #[must_use]
    pub fn idle(&self) -> u64 {
        self.n - self.busy.len() as u64
    }

    /// Users currently in a call.
    #[must_use]
    pub fn active(&self) -> u64 {
        self.busy.len() as u64
    }

    /// Is this stamp still the live schedule?
    #[must_use]
    pub fn is_live(&self, tag: GenTag) -> bool {
        self.generation.is_current(tag)
    }

    /// Draw the next arrival after `now` and arm it. Supersedes any
    /// outstanding arrival (their tags go stale). Returns `None` when
    /// every user is busy — the next [`PopulationArrivals::call_ended`]
    /// is the moment to draw again.
    pub fn next_arrival(&mut self, now: SimTime, rng: &mut StreamRng) -> Option<Arrival> {
        let idle = self.idle();
        if idle == 0 {
            self.pending = None;
            // Outstanding events (if any) must not fire against the new
            // empty idle set.
            self.generation.invalidate();
            return None;
        }
        // Lewis–Shedler thinning at the envelope rate `idle·λ·φ_max`:
        // candidate gaps are exponential at the peak rate; each candidate
        // is kept with probability φ(t)/φ_max. Exact for the
        // piecewise-constant profile, and consumes only (gap, uniform)
        // pairs from the stream.
        let phi_max = self.profile.max_multiplier();
        let envelope = idle as f64 * self.rate * phi_max;
        let mut at = now;
        loop {
            at += SimDuration::from_secs_f64(rng.exp_mean(1.0 / envelope));
            if rng.unit_f64() * phi_max <= self.profile.multiplier_at(at) {
                break;
            }
        }
        // The caller's identity: uniform over the idle set, addressed as
        // "the k-th smallest idle ordinal" so nobody has to materialize
        // the set.
        let k = rng.below(idle);
        let user = self.kth_idle(k);
        let tag = self.generation.invalidate();
        self.pending = Some((at, user));
        Some(Arrival { at, user, tag })
    }

    /// Confirm a surfacing arrival event: if `tag` is live, mark its
    /// user busy and return who calls; a stale tag returns `None` (the
    /// event was logically cancelled — discard it without effect).
    pub fn claim(&mut self, tag: GenTag) -> Option<u64> {
        if !self.generation.is_current(tag) {
            return None;
        }
        let (_, user) = self
            .pending
            .take()
            .expect("live tag implies a pending arrival");
        self.mark_busy(user);
        self.generation.invalidate();
        Some(user)
    }

    /// A call ended (completed, abandoned, or blocked-and-gave-up): the
    /// user rejoins the idle set and outstanding arrival draws go stale
    /// — re-draw via [`PopulationArrivals::next_arrival`]. Memorylessness
    /// makes the re-draw exact. No-op if the user was not busy.
    pub fn call_ended(&mut self, user: u64) {
        if let Ok(pos) = self.busy.binary_search(&user) {
            self.busy.remove(pos);
            self.pending = None;
            self.generation.invalidate();
        }
    }

    fn mark_busy(&mut self, user: u64) {
        if let Err(pos) = self.busy.binary_search(&user) {
            self.busy.insert(pos, user);
        }
    }

    /// The `k`-th smallest idle ordinal (0-based), in O(active calls):
    /// walk the sorted busy list, shifting the candidate up past every
    /// busy ordinal at or below it.
    fn kth_idle(&self, k: u64) -> u64 {
        debug_assert!(k < self.idle());
        let mut user = k;
        for &b in &self.busy {
            if b <= user {
                user += 1;
            } else {
                break;
            }
        }
        user
    }
}

/// Deterministic-phase registration expiry wheel.
///
/// Subscriber of rank `r` (within the homed set of `count` users)
/// re-REGISTERs at phases `r·expiry/count (mod expiry)` — a uniform
/// stagger, which is both what deployed fleets converge to and the
/// reason the wheel needs no per-user state: tick `t` of the wheel owes
/// exactly the contiguous rank range [`ChurnWheel::due_range`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnWheel {
    count: u64,
    buckets: u32,
    tick_ns: u64,
}

impl ChurnWheel {
    /// A wheel over `count` homed subscribers with `buckets` ticks per
    /// `expiry` period. Zero-subscriber wheels are legal (never due).
    #[must_use]
    pub fn new(count: u64, expiry: SimDuration, buckets: u32) -> Self {
        let buckets = buckets.max(1);
        ChurnWheel {
            count,
            buckets,
            tick_ns: (expiry.as_nanos() / u64::from(buckets)).max(1),
        }
    }

    /// The wheel's tick period.
    #[must_use]
    pub fn tick_period(&self) -> SimDuration {
        SimDuration::from_nanos(self.tick_ns)
    }

    /// Ranks due for re-REGISTER at tick `tick` (ticks count from 0 at
    /// t = 0; the range is empty only when the bucket owns no ranks).
    #[must_use]
    pub fn due_range(&self, tick: u64) -> std::ops::Range<u64> {
        let b = tick % u64::from(self.buckets);
        let lo = b * self.count / u64::from(self.buckets);
        let hi = (b + 1) * self.count / u64::from(self.buckets);
        lo..hi
    }

    /// Expected re-REGISTERs per second across the whole homed set.
    #[must_use]
    pub fn steady_rate(&self) -> f64 {
        self.count as f64 / (self.tick_ns as f64 * f64::from(self.buckets) / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn rng(seed: u64) -> StreamRng {
        StreamRng::seed_from_u64(seed)
    }

    #[test]
    fn profile_segments_and_envelope() {
        let p = DiurnalProfile::new(100.0, vec![0.5, 1.0, 2.0, 1.0]);
        assert_eq!(p.multiplier_at(SimTime::from_secs(10)), 0.5);
        assert_eq!(p.multiplier_at(SimTime::from_secs(30)), 1.0);
        assert_eq!(p.multiplier_at(SimTime::from_secs(60)), 2.0);
        assert_eq!(p.multiplier_at(SimTime::from_secs(99)), 1.0);
        // Periodicity.
        assert_eq!(p.multiplier_at(SimTime::from_secs(110)), 0.5);
        assert_eq!(p.max_multiplier(), 2.0);
        assert_eq!(DiurnalProfile::campus_day().multipliers.len(), 24);
        assert_eq!(DiurnalProfile::campus_day().max_multiplier(), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn all_zero_profile_rejected() {
        let _ = DiurnalProfile::new(10.0, vec![0.0, 0.0]);
    }

    #[test]
    fn kth_idle_skips_busy_ordinals() {
        let cfg = PopulationConfig::new(10, 0.01);
        let mut eng = PopulationArrivals::new(&cfg, 1);
        eng.mark_busy(0);
        eng.mark_busy(3);
        eng.mark_busy(4);
        // Idle set: 1,2,5,6,7,8,9.
        assert_eq!(eng.kth_idle(0), 1);
        assert_eq!(eng.kth_idle(1), 2);
        assert_eq!(eng.kth_idle(2), 5);
        assert_eq!(eng.kth_idle(6), 9);
        assert_eq!(eng.idle(), 7);
        assert_eq!(eng.active(), 3);
    }

    #[test]
    fn claim_and_staleness_protocol() {
        let cfg = PopulationConfig::new(5, 0.1);
        let mut eng = PopulationArrivals::new(&cfg, 1);
        let mut r = rng(42);
        let a1 = eng.next_arrival(SimTime::ZERO, &mut r).unwrap();
        // Re-drawing supersedes: the first tag goes stale.
        let a2 = eng.next_arrival(SimTime::ZERO, &mut r).unwrap();
        assert!(!eng.is_live(a1.tag));
        assert!(eng.is_live(a2.tag));
        assert_eq!(eng.claim(a1.tag), None, "stale tag claims nothing");
        let user = eng.claim(a2.tag).expect("live tag claims the caller");
        assert_eq!(user, a2.user);
        assert_eq!(eng.active(), 1);
        assert!(!eng.is_live(a2.tag), "claiming invalidates the stamp");
        // Hanging up returns the user and invalidates again.
        let a3 = eng.next_arrival(SimTime::from_secs(1), &mut r).unwrap();
        eng.call_ended(user);
        assert!(!eng.is_live(a3.tag));
        assert_eq!(eng.active(), 0);
        // Ending an idle user is a no-op that does NOT invalidate.
        let a4 = eng.next_arrival(SimTime::from_secs(2), &mut r).unwrap();
        eng.call_ended(user);
        assert!(eng.is_live(a4.tag));
    }

    #[test]
    fn exhausted_population_pauses_arrivals() {
        let cfg = PopulationConfig::new(2, 1.0);
        let mut eng = PopulationArrivals::new(&cfg, 1);
        let mut r = rng(7);
        for _ in 0..2 {
            let a = eng.next_arrival(SimTime::ZERO, &mut r).unwrap();
            eng.claim(a.tag).unwrap();
        }
        assert_eq!(eng.idle(), 0);
        assert!(eng.next_arrival(SimTime::ZERO, &mut r).is_none());
        eng.call_ended(0);
        assert!(eng.next_arrival(SimTime::ZERO, &mut r).is_some());
    }

    proptest! {
        /// Random interleavings of draw / claim / hang-up against the
        /// naive model: a `BTreeSet` of busy users, the idle set listed
        /// out in full. With the flat profile a draw is exactly one gap,
        /// one accept uniform and the winner ordinal `k`, so a twin of
        /// the stream tells the model which `k` the engine drew.
        #[test]
        fn kth_idle_matches_set_model(
            seed in any::<u64>(),
            n in 1u64..48,
            ops in proptest::collection::vec((0u8..8, any::<u64>()), 1..200),
        ) {
            let mut eng = PopulationArrivals::new(&PopulationConfig::new(n, 0.05), 0);
            let mut r = rng(seed);
            let mut busy: BTreeSet<u64> = BTreeSet::new();
            let mut live: Option<Arrival> = None;
            let mut now = SimTime::ZERO;
            for (op, raw) in ops {
                match op {
                    // Draw (also supersedes an outstanding draw).
                    0..=3 => {
                        let idle: Vec<u64> = (0..n).filter(|u| !busy.contains(u)).collect();
                        let mut twin = r.clone();
                        live = eng.next_arrival(now, &mut r);
                        prop_assert_eq!(live.is_none(), idle.is_empty());
                        if let Some(a) = live {
                            twin.exp_mean(1.0);
                            twin.unit_f64();
                            let k = twin.below(idle.len() as u64);
                            prop_assert_eq!(a.user, idle[k as usize], "k = {}", k);
                            prop_assert!(a.at >= now);
                        }
                    }
                    // The drawn arrival surfaces: its user goes busy.
                    4 | 5 => {
                        if let Some(a) = live.take() {
                            now = a.at;
                            prop_assert_eq!(eng.claim(a.tag), Some(a.user));
                            prop_assert!(busy.insert(a.user), "claimed a busy user");
                        }
                    }
                    // Some busy user hangs up, which stales the draw.
                    _ => {
                        if let Some(&u) = busy.iter().nth(raw as usize % busy.len().max(1)) {
                            eng.call_ended(u);
                            busy.remove(&u);
                            if let Some(a) = live.take() {
                                prop_assert_eq!(eng.claim(a.tag), None, "stale tag claimed");
                            }
                        }
                    }
                }
                prop_assert_eq!(eng.active(), busy.len() as u64);
                prop_assert_eq!(eng.idle() + eng.active(), n);
            }
        }
    }

    /// The superposition argument's other half: the winner is uniform
    /// over the idle set. 40 users, 10 of them held busy, 30 000 draws
    /// that are never claimed (so the idle set stays put): χ² over the 30
    /// idle ordinals against the 99.9 % critical value for 29 degrees of
    /// freedom, and not one draw on a busy user.
    #[test]
    fn winner_is_uniform_over_the_idle_set() {
        const DRAWS: u32 = 30_000;
        let held = [0u64, 3, 4, 11, 17, 18, 19, 26, 33, 39];
        let mut eng = PopulationArrivals::new(&PopulationConfig::new(40, 0.01), 0);
        for u in held {
            eng.mark_busy(u);
        }
        let mut r = rng(2015);
        let mut hits = [0u32; 40];
        for _ in 0..DRAWS {
            let a = eng.next_arrival(SimTime::ZERO, &mut r).unwrap();
            hits[a.user as usize] += 1;
        }
        let expect = f64::from(DRAWS) / 30.0;
        let mut chi2 = 0.0;
        for (u, &h) in hits.iter().enumerate() {
            if held.contains(&(u as u64)) {
                assert_eq!(h, 0, "busy user {u} drew {h} calls");
            } else {
                chi2 += (f64::from(h) - expect).powi(2) / expect;
            }
        }
        assert!(chi2 < 58.301, "χ² = {chi2:.1} over 29 d.o.f.: {hits:?}");
    }

    #[test]
    fn thinning_respects_the_profile_shape() {
        // Two equal segments at rates 1 : 4 must collect arrivals in
        // roughly that ratio over many periods.
        let mut cfg = PopulationConfig::new(1000, 0.001);
        cfg.profile = DiurnalProfile::new(100.0, vec![0.25, 1.0]);
        let mut eng = PopulationArrivals::new(&cfg, 1);
        let mut r = rng(2015);
        let mut now = SimTime::ZERO;
        let (mut low, mut high) = (0u64, 0u64);
        for _ in 0..4000 {
            let a = eng.next_arrival(now, &mut r).unwrap();
            now = a.at;
            // Count only (never claim): the idle set stays put, isolating
            // the thinning behaviour.
            if (now.as_secs_f64() / 100.0).fract() < 0.5 {
                low += 1;
            } else {
                high += 1;
            }
        }
        let ratio = high as f64 / low.max(1) as f64;
        assert!(
            (2.5..6.0).contains(&ratio),
            "expected ≈4:1 high:low arrivals, got {high}:{low} ({ratio:.2})"
        );
    }

    #[test]
    fn mean_interarrival_tracks_idle_count() {
        // Flat profile, λ = 0.01/s: 100 idle users → mean gap 1 s;
        // 10 idle users → mean gap 10 s.
        for (n, expect) in [(100u64, 1.0f64), (10, 10.0)] {
            let cfg = PopulationConfig::new(n, 0.01);
            let mut eng = PopulationArrivals::new(&cfg, 1);
            let mut r = rng(5);
            let mut now = SimTime::ZERO;
            let mut sum = 0.0;
            let reps = 3000;
            for _ in 0..reps {
                let a = eng.next_arrival(now, &mut r).unwrap();
                sum += a.at.since(now).as_secs_f64();
                now = a.at;
            }
            let mean = sum / f64::from(reps);
            assert!(
                (mean - expect).abs() < expect * 0.1,
                "N={n}: mean gap {mean} vs expected {expect}"
            );
        }
    }

    #[test]
    fn churn_wheel_partitions_the_population_exactly() {
        for (count, buckets) in [(1_000_000u64, 256u32), (10, 4), (3, 8), (0, 16), (97, 13)] {
            let w = ChurnWheel::new(count, SimDuration::from_secs(3600), buckets);
            let mut covered = 0u64;
            let mut prev_hi = 0u64;
            for t in 0..u64::from(buckets) {
                let r = w.due_range(t);
                assert_eq!(r.start, prev_hi, "contiguous buckets");
                prev_hi = r.end;
                covered += r.end - r.start;
            }
            assert_eq!(covered, count, "every rank due exactly once per period");
            // Next period wraps to the same partition.
            assert_eq!(w.due_range(u64::from(buckets)), w.due_range(0));
        }
        let w = ChurnWheel::new(1_000_000, SimDuration::from_secs(3600), 256);
        assert!((w.steady_rate() - 277.8).abs() < 1.0, "{}", w.steady_rate());
    }
}
