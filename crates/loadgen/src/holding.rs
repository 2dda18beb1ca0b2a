//! Call holding-time (conversation duration) distributions.
//!
//! The paper's empirical method fixes `h = 120 s` ("a dialogue between
//! end-points without moments of idleness"); the analytical model only
//! needs the mean. Exponential and lognormal laws are provided for the
//! sensitivity study — Erlang-B is famously insensitive to the holding
//! distribution beyond its mean, and `tests/empirical_vs_analytic.rs`
//! demonstrates it.

use des::rng::Distributions;
use des::{SimDuration, StreamRng};

/// A holding-time law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HoldingDist {
    /// Every call lasts exactly this long (the paper's setting).
    Fixed(f64),
    /// Exponential with the given mean (the Erlang-B textbook assumption).
    Exponential(f64),
    /// Lognormal with the given mean and standard deviation (empirically
    /// the best fit to real conversation lengths).
    Lognormal {
        /// Mean duration in seconds.
        mean: f64,
        /// Standard deviation in seconds.
        sd: f64,
    },
}

impl HoldingDist {
    /// The distribution's mean in seconds.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match self {
            HoldingDist::Fixed(m) | HoldingDist::Exponential(m) => *m,
            HoldingDist::Lognormal { mean, .. } => *mean,
        }
    }

    /// Sample one holding time.
    pub fn sample(&self, rng: &mut StreamRng) -> SimDuration {
        let secs = match self {
            HoldingDist::Fixed(m) => *m,
            HoldingDist::Exponential(m) => rng.exp_mean(*m),
            HoldingDist::Lognormal { mean, sd } => rng.lognormal_mean_sd(*mean, *sd),
        };
        SimDuration::from_secs_f64(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_constant() {
        let d = HoldingDist::Fixed(120.0);
        let mut rng = StreamRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), SimDuration::from_secs(120));
        }
        assert_eq!(d.mean(), 120.0);
    }

    #[test]
    fn exponential_mean() {
        let d = HoldingDist::Exponential(120.0);
        let mut rng = StreamRng::seed_from_u64(2);
        let n = 100_000;
        let mean = (0..n)
            .map(|_| d.sample(&mut rng).as_secs_f64())
            .sum::<f64>()
            / f64::from(n);
        assert!((mean - 120.0).abs() / 120.0 < 0.02, "mean={mean}");
        assert_eq!(d.mean(), 120.0);
    }

    #[test]
    fn lognormal_mean_and_positivity() {
        let d = HoldingDist::Lognormal {
            mean: 180.0,
            sd: 90.0,
        };
        let mut rng = StreamRng::seed_from_u64(3);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng).as_secs_f64()).collect();
        assert!(samples.iter().all(|&s| s >= 0.0));
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 180.0).abs() / 180.0 < 0.03, "mean={mean}");
        assert_eq!(d.mean(), 180.0);
    }
}
