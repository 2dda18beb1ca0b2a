//! Call arrival processes.
//!
//! The Erlang-B model assumes Poisson arrivals; the empirical method
//! realises them by sampling exponential inter-arrival gaps. Deterministic
//! (paced) arrivals reproduce SIPp's default fixed-rate mode, and a
//! two-state MMPP provides the bursty overload used in robustness tests.

use des::rng::Distributions;
use des::{SimDuration, SimTime, StreamRng};

/// An arrival process generating the next call instant.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// Poisson process with the given rate (calls/second).
    Poisson {
        /// Mean arrival rate in calls per second.
        rate: f64,
    },
    /// Fixed-gap arrivals (SIPp's `-r` pacing).
    Deterministic {
        /// Constant rate in calls per second.
        rate: f64,
    },
    /// Markov-modulated Poisson process alternating between two rates.
    Mmpp {
        /// Rate in the quiet state (calls/s).
        rate_low: f64,
        /// Rate in the burst state (calls/s).
        rate_high: f64,
        /// Mean sojourn in each state (seconds).
        mean_sojourn: f64,
        /// Currently in the burst state?
        in_high: bool,
        /// When the current state ends.
        state_until: SimTime,
    },
}

impl ArrivalProcess {
    /// Poisson at `rate` calls/second.
    #[must_use]
    pub fn poisson(rate: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        ArrivalProcess::Poisson { rate }
    }

    /// Deterministic at `rate` calls/second.
    #[must_use]
    pub fn deterministic(rate: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        ArrivalProcess::Deterministic { rate }
    }

    /// MMPP alternating `rate_low`/`rate_high` with mean state sojourn
    /// `mean_sojourn` seconds.
    #[must_use]
    pub fn mmpp(rate_low: f64, rate_high: f64, mean_sojourn: f64) -> Self {
        assert!(rate_low >= 0.0 && rate_high > 0.0 && mean_sojourn > 0.0);
        ArrivalProcess::Mmpp {
            rate_low,
            rate_high,
            mean_sojourn,
            in_high: false,
            state_until: SimTime::ZERO,
        }
    }

    /// Multiply the arrival rate by `factor` from the next draw on (a
    /// flash crowd starting, or ending with `1 / factor`).
    pub fn scale_rate(&mut self, factor: f64) {
        match self {
            ArrivalProcess::Poisson { rate } | ArrivalProcess::Deterministic { rate } => {
                *rate *= factor;
            }
            ArrivalProcess::Mmpp {
                rate_low,
                rate_high,
                ..
            } => {
                *rate_low *= factor;
                *rate_high *= factor;
            }
        }
    }

    /// Time of the next arrival strictly after `now`.
    pub fn next_after(&mut self, now: SimTime, rng: &mut StreamRng) -> SimTime {
        match self {
            ArrivalProcess::Poisson { rate } => {
                now + SimDuration::from_secs_f64(rng.exp_mean(1.0 / *rate))
            }
            ArrivalProcess::Deterministic { rate } => now + SimDuration::from_secs_f64(1.0 / *rate),
            ArrivalProcess::Mmpp {
                rate_low,
                rate_high,
                mean_sojourn,
                in_high,
                state_until,
            } => {
                // Advance state machine past `now`, then draw from the
                // current state's rate (thinning-free approximation good
                // enough for bursty-load studies).
                let t = now;
                while t >= *state_until {
                    *in_high = !*in_high;
                    *state_until += SimDuration::from_secs_f64(rng.exp_mean(*mean_sojourn));
                }
                let rate = if *in_high { *rate_high } else { *rate_low };
                let rate = rate.max(1e-9);
                t + SimDuration::from_secs_f64(rng.exp_mean(1.0 / rate))
            }
        }
    }

    /// All arrivals in the window `[0, horizon)` — convenience for tests
    /// and workload pre-generation.
    pub fn arrivals_until(&mut self, horizon: SimTime, rng: &mut StreamRng) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            t = self.next_after(t, rng);
            if t >= horizon {
                return out;
            }
            out.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StreamRng {
        StreamRng::seed_from_u64(7)
    }

    #[test]
    fn poisson_rate_matches() {
        // Table I cell A=240: λ = 2 calls/s over 180 s -> ~360 arrivals.
        let mut p = ArrivalProcess::poisson(2.0);
        let mut r = rng();
        let arrivals = p.arrivals_until(SimTime::from_secs(1800), &mut r);
        let per_sec = arrivals.len() as f64 / 1800.0;
        assert!((per_sec - 2.0).abs() < 0.1, "rate={per_sec}");
    }

    #[test]
    fn poisson_gaps_are_exponential() {
        let mut p = ArrivalProcess::poisson(1.0);
        let mut r = rng();
        let arrivals = p.arrivals_until(SimTime::from_secs(20_000), &mut r);
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
    fn deterministic_is_evenly_spaced() {
        let mut p = ArrivalProcess::deterministic(5.0);
        let mut r = rng();
        let arrivals = p.arrivals_until(SimTime::from_secs(2), &mut r);
        assert_eq!(arrivals.len(), 9, "t=0.2..1.8");
        for w in arrivals.windows(2) {
            let gap = w[1].since(w[0]).as_secs_f64();
            assert!((gap - 0.2).abs() < 1e-9);
        }
    }

    #[test]
    fn arrivals_are_strictly_increasing_and_deterministic() {
        let mut p1 = ArrivalProcess::poisson(3.0);
        let mut p2 = ArrivalProcess::poisson(3.0);
        let a1 = p1.arrivals_until(SimTime::from_secs(100), &mut StreamRng::seed_from_u64(5));
        let a2 = p2.arrivals_until(SimTime::from_secs(100), &mut StreamRng::seed_from_u64(5));
        assert_eq!(a1, a2, "same seed, same schedule");
        assert!(a1.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn mmpp_mean_rate_between_extremes() {
        let mut p = ArrivalProcess::mmpp(0.5, 8.0, 10.0);
        let mut r = rng();
        let arrivals = p.arrivals_until(SimTime::from_secs(5000), &mut r);
        let rate = arrivals.len() as f64 / 5000.0;
        assert!(rate > 0.5 && rate < 8.0, "rate={rate}");
        // Equal sojourns: mean should be near the midpoint 4.25.
        assert!((rate - 4.25).abs() < 0.8, "rate={rate}");
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Compare windowed counts' variance-to-mean ratio (index of
        // dispersion); MMPP > 1, Poisson ≈ 1.
        let dispersion = |arrivals: &[SimTime]| {
            let window = 10.0;
            let horizon = 5000.0;
            let n = (horizon / window) as usize;
            let mut counts = vec![0.0f64; n];
            for a in arrivals {
                let w = (a.as_secs_f64() / window) as usize;
                if w < n {
                    counts[w] += 1.0;
                }
            }
            let mean = counts.iter().sum::<f64>() / n as f64;
            let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / n as f64;
            var / mean
        };
        let mut pois = ArrivalProcess::poisson(4.25);
        let mut mmpp = ArrivalProcess::mmpp(0.5, 8.0, 10.0);
        let pa = pois.arrivals_until(SimTime::from_secs(5000), &mut StreamRng::seed_from_u64(1));
        let ma = mmpp.arrivals_until(SimTime::from_secs(5000), &mut StreamRng::seed_from_u64(1));
        let dp = dispersion(&pa);
        let dm = dispersion(&ma);
        assert!(dp < 1.5, "poisson dispersion {dp}");
        assert!(dm > 2.0 * dp, "mmpp dispersion {dm} vs poisson {dp}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = ArrivalProcess::poisson(0.0);
    }
}
