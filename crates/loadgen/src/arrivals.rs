//! Call arrival process.
//!
//! The Erlang-B model assumes Poisson arrivals; the empirical method
//! realises them by sampling exponential inter-arrival gaps.

use des::rng::Distributions;
use des::{SimDuration, SimTime, StreamRng};

/// A Poisson arrival process generating the next call instant.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    /// Mean arrival rate in calls per second.
    rate: f64,
}

impl ArrivalProcess {
    /// Poisson at `rate` calls/second.
    #[must_use]
    pub fn poisson(rate: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        ArrivalProcess { rate }
    }

    /// Multiply the arrival rate by `factor` from the next draw on (a
    /// flash crowd starting, or ending with `1 / factor`).
    pub fn scale_rate(&mut self, factor: f64) {
        self.rate *= factor;
    }

    /// Time of the next arrival strictly after `now`, or [`SimTime::MAX`]
    /// when the gap runs past the end of the clock: no further arrival.
    pub fn next_after(&mut self, now: SimTime, rng: &mut StreamRng) -> SimTime {
        now.saturating_add(SimDuration::from_secs_f64(rng.exp_mean(1.0 / self.rate)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StreamRng {
        StreamRng::seed_from_u64(7)
    }

    /// All arrivals in the window `[0, horizon)`.
    fn arrivals_until(
        p: &mut ArrivalProcess,
        horizon: SimTime,
        rng: &mut StreamRng,
    ) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            t = p.next_after(t, rng);
            if t >= horizon {
                return out;
            }
            out.push(t);
        }
    }

    #[test]
    fn poisson_rate_matches() {
        // Table I cell A=240: λ = 2 calls/s over 180 s -> ~360 arrivals.
        let mut p = ArrivalProcess::poisson(2.0);
        let mut r = rng();
        let arrivals = arrivals_until(&mut p, SimTime::from_secs(1800), &mut r);
        let per_sec = arrivals.len() as f64 / 1800.0;
        assert!((per_sec - 2.0).abs() < 0.1, "rate={per_sec}");
    }

    #[test]
    fn poisson_gaps_are_exponential() {
        let mut p = ArrivalProcess::poisson(1.0);
        let mut r = rng();
        let arrivals = arrivals_until(&mut p, SimTime::from_secs(20_000), &mut r);
        let gaps: Vec<f64> = arrivals
            .windows(2)
            .map(|w| w[1].since(w[0]).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        // Exponential: CV = 1.
        let cv = var.sqrt() / mean;
        assert!((mean - 1.0).abs() < 0.05, "mean={mean}");
        assert!((cv - 1.0).abs() < 0.05, "cv={cv}");
    }

    #[test]
    fn arrivals_are_strictly_increasing_and_deterministic() {
        let mut p1 = ArrivalProcess::poisson(3.0);
        let mut p2 = ArrivalProcess::poisson(3.0);
        let a1 = arrivals_until(
            &mut p1,
            SimTime::from_secs(100),
            &mut StreamRng::seed_from_u64(5),
        );
        let a2 = arrivals_until(
            &mut p2,
            SimTime::from_secs(100),
            &mut StreamRng::seed_from_u64(5),
        );
        assert_eq!(a1, a2, "same seed, same schedule");
        assert!(a1.windows(2).all(|w| w[0] < w[1]));
    }

    /// A gap past the end of the clock saturates instead of wrapping to
    /// an instant in the past. From the placement start (t = 1 s), as the
    /// world draws: from t = 0 the saturated gap alone is `SimTime::MAX`.
    #[test]
    fn a_gap_past_the_clock_is_no_further_arrival() {
        let mut p = ArrivalProcess::poisson(1e-300);
        let placement_start = SimTime::from_secs(1);
        assert_eq!(p.next_after(placement_start, &mut rng()), SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = ArrivalProcess::poisson(0.0);
    }
}
