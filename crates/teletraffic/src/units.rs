//! Traffic intensity units and conversions.
//!
//! The Erlang is the unit of telephone traffic intensity over one hour
//! (paper §III-A, Eq. 1):
//!
//! ```text
//! Erlang = calls_per_hour * duration_minutes / 60
//! ```
//!
//! One Erlang is one voice channel continuously occupied for one hour.

/// Offered traffic intensity in Erlangs.
///
/// A thin, strongly-typed wrapper over `f64` so that loads, rates and
/// durations cannot be accidentally interchanged in the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Erlangs(pub f64);

impl Erlangs {
    /// Offered load from a busy-hour call count and a mean call duration.
    ///
    /// This is Eq. 1 of the paper with the duration given in seconds:
    /// `A = (calls/h) * (duration_s / 3600)`.
    ///
    /// ```
    /// use teletraffic::Erlangs;
    /// // 3000 calls/hour of 3 minutes each = 150 Erlangs.
    /// assert_eq!(Erlangs::from_calls(3000.0, 180.0).value(), 150.0);
    /// ```
    #[must_use]
    pub fn from_calls(calls_per_hour: f64, duration_seconds: f64) -> Self {
        Erlangs(calls_per_hour * duration_seconds / 3600.0)
    }

    /// Offered load for a calling population: `A = pop · frac · d / 60` with
    /// `d` in minutes — the x-axis construction of the paper's Fig. 7.
    ///
    /// `fraction` is the share of the population placing a call during the
    /// busy hour (0.0..=1.0).
    #[must_use]
    pub fn from_population(population: u64, fraction: f64, duration_minutes: f64) -> Self {
        Erlangs(population as f64 * fraction * duration_minutes / 60.0)
    }

    /// The raw intensity value.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// True when the value is a usable traffic intensity (finite, ≥ 0).
    #[must_use]
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }
}

impl core::ops::Add for Erlangs {
    type Output = Erlangs;
    fn add(self, rhs: Erlangs) -> Erlangs {
        Erlangs(self.0 + rhs.0)
    }
}

impl core::ops::Mul<f64> for Erlangs {
    type Output = Erlangs;
    fn mul(self, rhs: f64) -> Erlangs {
        Erlangs(self.0 * rhs)
    }
}

impl core::fmt::Display for Erlangs {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.3} E", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_of_the_paper() {
        // Erlang = calls/h * duration(min) / 60.
        let a = Erlangs::from_calls(60.0, 60.0); // 60 one-minute calls/hour
        assert!((a.value() - 1.0).abs() < 1e-12);
        let a = Erlangs::from_calls(3000.0, 180.0);
        assert!((a.value() - 150.0).abs() < 1e-12);
    }

    #[test]
    fn population_load_fig7_anchors() {
        // Fig. 7 anchors from the paper's narrative (population 8000, 60%):
        //   2.0 min -> 160 E, 2.5 min -> 200 E, 3.0 min -> 240 E.
        let e20 = Erlangs::from_population(8000, 0.60, 2.0);
        let e25 = Erlangs::from_population(8000, 0.60, 2.5);
        let e30 = Erlangs::from_population(8000, 0.60, 3.0);
        assert!((e20.value() - 160.0).abs() < 1e-9);
        assert!((e25.value() - 200.0).abs() < 1e-9);
        assert!((e30.value() - 240.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_and_display() {
        let a = Erlangs(1.5) + Erlangs(2.5);
        assert!((a.value() - 4.0).abs() < 1e-12);
        let b = Erlangs(2.0) * 3.0;
        assert!((b.value() - 6.0).abs() < 1e-12);
        assert_eq!(format!("{}", Erlangs(1.0)), "1.000 E");
    }

    #[test]
    fn validity() {
        assert!(Erlangs(0.0).is_valid());
        assert!(Erlangs(1e9).is_valid());
        assert!(!Erlangs(-1.0).is_valid());
        assert!(!Erlangs(f64::NAN).is_valid());
        assert!(!Erlangs(f64::INFINITY).is_valid());
    }
}
