//! Simulation time: integer nanoseconds since simulation start.
//!
//! Floating-point clocks accumulate representation error and make event
//! ordering platform-dependent; an unsigned 64-bit nanosecond counter gives
//! ~584 years of range, exact arithmetic, and a total order.

/// An instant on the simulation clock (nanoseconds since time zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future — useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// From whole microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// From whole milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// From whole seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// From fractional seconds (rounds to the nearest nanosecond; negative
    /// values saturate to zero).
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return SimTime(0);
        }
        SimTime((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed duration since `earlier` (saturating at zero).
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    #[must_use]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// From whole microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// From whole milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// From whole seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// From fractional seconds (rounds; negatives saturate to zero).
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return SimDuration(0);
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Integer multiplication, saturating at the end of the clock (a
    /// retry backoff doubled past it).
    #[must_use]
    pub const fn times(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl core::ops::Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl core::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl core::ops::Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl core::fmt::Display for SimTime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl core::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_millis(1500));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
    }

    #[test]
    fn negative_and_nan_saturate() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.as_nanos(), 10_500_000_000);
        let mut t2 = SimTime::from_secs(1);
        t2 += SimDuration::from_secs(2);
        assert_eq!(t2, SimTime::from_secs(3));
        let d = SimDuration::from_secs(3) - SimDuration::from_secs(1);
        assert_eq!(d, SimDuration::from_secs(2));
        // Subtraction saturates rather than wrapping.
        let d = SimDuration::from_secs(1) - SimDuration::from_secs(5);
        assert_eq!(d, SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_millis(20).times(50),
            SimDuration::from_secs(1)
        );
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(8);
        assert_eq!(b.since(a), SimDuration::from_secs(3));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn ordering_is_total() {
        let mut times = vec![
            SimTime::from_secs(3),
            SimTime::ZERO,
            SimTime::from_millis(1),
            SimTime::MAX,
        ];
        times.sort();
        assert_eq!(
            times,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(1),
                SimTime::from_secs(3),
                SimTime::MAX
            ]
        );
    }

    #[test]
    fn round_trips_and_display() {
        let t = SimTime::from_secs_f64(123.456789);
        assert!((t.as_secs_f64() - 123.456789).abs() < 1e-9);
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000s");
        assert_eq!(format!("{}", SimDuration::from_millis(20)), "0.020000s");
    }

    #[test]
    fn saturating_add_at_horizon() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
    }
}
