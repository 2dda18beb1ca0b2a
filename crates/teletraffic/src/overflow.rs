//! Overflow traffic and the equivalent random method (Wilkinson).
//!
//! The paper's other scaling alternative — "increasing the number of
//! servers" — raises a classical dimensioning question: traffic that
//! overflows a primary PBX is *peaked* (more bursty than Poisson), so a
//! secondary server sized with plain Erlang-B would be under-provisioned.
//! Wilkinson's equivalent random theory (ERT) handles this: characterise
//! the overflow by its mean and variance, find an "equivalent" Poisson
//! system producing the same overflow, and dimension the secondary group
//! inside that equivalent system.

use crate::erlang_b::blocking_probability;
use crate::error::TrafficError;
use crate::units::Erlangs;

/// First two moments of an overflow stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverflowMoments {
    /// Mean overflow intensity in Erlangs.
    pub mean: f64,
    /// Variance of the overflow intensity.
    pub variance: f64,
}

impl OverflowMoments {
    /// Peakedness `z = variance / mean` (1 for Poisson; overflow > 1).
    #[must_use]
    pub fn peakedness(&self) -> f64 {
        if self.mean == 0.0 {
            1.0
        } else {
            self.variance / self.mean
        }
    }

    /// Superpose independent overflow streams (means and variances add).
    #[must_use]
    fn combine(streams: &[OverflowMoments]) -> OverflowMoments {
        let mean = streams.iter().map(|s| s.mean).sum();
        let variance = streams.iter().map(|s| s.variance).sum();
        OverflowMoments { mean, variance }
    }
}

/// Riordan's formulas: moments of the traffic overflowing `channels`
/// servers offered `a` Erlangs of Poisson traffic.
pub fn overflow_moments(a: Erlangs, channels: u32) -> Result<OverflowMoments, TrafficError> {
    if !a.is_valid() {
        return Err(TrafficError::InvalidLoad);
    }
    let av = a.value();
    if av == 0.0 {
        return Ok(OverflowMoments {
            mean: 0.0,
            variance: 0.0,
        });
    }
    let b = blocking_probability(a, channels);
    let mean = av * b;
    let n = f64::from(channels);
    // Riordan: V = M (1 − M + A / (N + 1 + M − A)).
    let variance = mean * (1.0 - mean + av / (n + 1.0 + mean - av));
    Ok(OverflowMoments {
        mean,
        variance: variance.max(mean * 1e-12), // numeric floor
    })
}

/// Rapp's approximation for the equivalent random parameters `(A*, N*)`
/// of an overflow stream with the given moments: a fictitious Poisson
/// load `A*` offered to `N*` primary channels that would overflow with
/// the same mean and variance.
#[must_use]
fn equivalent_random(moments: OverflowMoments) -> (f64, f64) {
    let m = moments.mean;
    let z = moments.peakedness();
    let v = moments.variance;
    // Rapp: A* ≈ V + 3z(z − 1).
    let a_star = v + 3.0 * z * (z - 1.0);
    // N* from the mean-overflow relation, Rapp's closed form.
    let n_star = a_star * (m + z) / (m + z - 1.0) - m - 1.0;
    (a_star.max(m), n_star.max(0.0))
}

/// Channels a **secondary** group needs so that traffic overflowing the
/// given primary systems is itself blocked with probability ≤ `target_pb`.
///
/// `primaries` lists (offered load, channels) of each primary PBX whose
/// overflow is concentrated on the secondary.
pub fn secondary_channels_for(
    primaries: &[(Erlangs, u32)],
    target_pb: f64,
) -> Result<u32, TrafficError> {
    if !(target_pb > 0.0 && target_pb < 1.0) {
        return Err(TrafficError::InvalidProbability);
    }
    let mut streams = Vec::with_capacity(primaries.len());
    for &(a, n) in primaries {
        streams.push(overflow_moments(a, n)?);
    }
    let combined = OverflowMoments::combine(&streams);
    if combined.mean <= 0.0 {
        return Ok(0);
    }
    let (a_star, n_star) = equivalent_random(combined);
    // Grow the secondary group until the equivalent system's end-to-end
    // blocking, rescaled to the overflow stream, meets the target:
    // calls lost at (N* + k) channels relative to the overflow mean.
    let total_mean = combined.mean;
    let mut k = 0u32;
    loop {
        let total_channels = (n_star.ceil() as u32).saturating_add(k);
        let lost = a_star * blocking_probability(Erlangs(a_star), total_channels);
        let pb_on_overflow = lost / total_mean;
        if pb_on_overflow <= target_pb {
            return Ok(k);
        }
        k = k.checked_add(1).ok_or(TrafficError::Unreachable)?;
        if k > 1_000_000 {
            return Err(TrafficError::Unreachable);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_overflow_without_load() {
        let m = overflow_moments(Erlangs(0.0), 10).unwrap();
        assert_eq!(m.mean, 0.0);
        assert_eq!(m.peakedness(), 1.0);
        assert_eq!(
            secondary_channels_for(&[(Erlangs(0.0), 10)], 0.01).unwrap(),
            0
        );
    }

    #[test]
    fn overflow_mean_is_lost_traffic() {
        let a = Erlangs(150.0);
        let m = overflow_moments(a, 165).unwrap();
        let expect = 150.0 * blocking_probability(a, 165);
        assert!((m.mean - expect).abs() < 1e-9);
    }

    #[test]
    fn overflow_is_peaked() {
        // The defining property: overflow traffic has z > 1.
        for &(a, n) in &[(50.0, 45u32), (150.0, 140), (240.0, 165)] {
            let m = overflow_moments(Erlangs(a), n).unwrap();
            assert!(m.peakedness() > 1.0, "A={a} N={n}: z={}", m.peakedness());
        }
    }

    #[test]
    fn peakedness_grows_with_group_size_at_fixed_blocking() {
        // Overflow from a big group is burstier than from a small one at
        // comparable loss — the standard ERT intuition.
        let small = overflow_moments(Erlangs(5.0), 5).unwrap();
        let large = overflow_moments(Erlangs(100.0), 100).unwrap();
        assert!(large.peakedness() > small.peakedness());
    }

    #[test]
    fn equivalent_random_recovers_poisson_limit() {
        // A stream with z = 1 is Poisson: the equivalent system needs no
        // primary channels (N* ≈ 0) and A* ≈ mean.
        let m = OverflowMoments {
            mean: 10.0,
            variance: 10.0,
        };
        let (a_star, n_star) = equivalent_random(m);
        assert!((a_star - 10.0).abs() < 0.5, "A*={a_star}");
        assert!(n_star < 1.0, "N*={n_star}");
    }

    #[test]
    fn equivalent_random_reproduces_the_overflow() {
        // Round-trip: compute overflow of (A, N), find (A*, N*), verify
        // the equivalent system's overflow mean matches.
        let a = Erlangs(120.0);
        let n = 110u32;
        let m = overflow_moments(a, n).unwrap();
        let (a_star, n_star) = equivalent_random(m);
        let mean_star = a_star * blocking_probability(Erlangs(a_star), n_star.round() as u32);
        assert!(
            (mean_star - m.mean).abs() / m.mean < 0.15,
            "overflow mean {} vs equivalent {}",
            m.mean,
            mean_star
        );
    }

    #[test]
    fn combine_adds_moments() {
        let s1 = overflow_moments(Erlangs(100.0), 90).unwrap();
        let s2 = overflow_moments(Erlangs(80.0), 70).unwrap();
        let c = OverflowMoments::combine(&[s1, s2]);
        assert!((c.mean - (s1.mean + s2.mean)).abs() < 1e-12);
        assert!((c.variance - (s1.variance + s2.variance)).abs() < 1e-12);
    }

    #[test]
    fn secondary_dimensioning_beats_naive_erlang_b() {
        // Two overloaded 165-channel Asterisk servers overflow onto a
        // shared secondary. ERT must demand at least as many channels as
        // naively treating the overflow as Poisson (peaked traffic is
        // harder to serve).
        let primaries = [(Erlangs(200.0), 165u32), (Erlangs(190.0), 165u32)];
        let ert = secondary_channels_for(&primaries, 0.01).unwrap();
        let combined_mean: f64 = primaries
            .iter()
            .map(|&(a, n)| a.value() * blocking_probability(a, n))
            .sum();
        let naive = crate::erlang_b::channels_for(Erlangs(combined_mean), 0.01).unwrap();
        assert!(
            ert >= naive,
            "ERT {ert} must be >= naive Erlang-B {naive} for peaked traffic"
        );
        assert!(ert > 0);
        // And it must actually be enough in the equivalent model.
        assert!(ert < 200, "sane magnitude: {ert}");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(overflow_moments(Erlangs(-1.0), 5).is_err());
        assert!(secondary_channels_for(&[(Erlangs(10.0), 5)], 0.0).is_err());
        assert!(secondary_channels_for(&[(Erlangs(10.0), 5)], 1.0).is_err());
    }
}
