//! Extended Erlang-B: blocked callers retry.
//!
//! Plain Erlang-B assumes blocked calls disappear. On a campus VoWiFi
//! deployment a blocked caller often simply redials, inflating the offered
//! load. The extended Erlang-B model (Jewett/"EEB") iterates the fixed
//! point: a fraction `recall` of blocked attempts is re-offered, so
//!
//! ```text
//! A_total = A_fresh + recall · B(A_total, N) · A_total
//! ```
//!
//! The paper's "effective call policy" discussion (§IV) is exactly about
//! containing this feedback loop.

use crate::erlang_b::blocking_probability;
use crate::error::TrafficError;
use crate::units::Erlangs;

/// Result of the extended Erlang-B fixed point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtendedErlangB {
    /// Total offered load including retries, in Erlangs.
    pub total_offered: Erlangs,
    /// Blocking probability at the fixed point.
    pub blocking: f64,
    /// Number of fixed-point iterations performed.
    pub iterations: u32,
}

/// Solve the retry fixed point for fresh load `fresh`, `channels` servers,
/// and a `recall` probability in `[0, 1]` that a blocked caller retries.
///
/// Converges by damped iteration; returns an error if inputs are invalid or
/// the iteration fails to converge within `max_iter` (practically only for
/// `recall = 1` at overload, where the fixed point diverges).
pub fn extended_erlang_b(
    fresh: Erlangs,
    channels: u32,
    recall: f64,
    max_iter: u32,
) -> Result<ExtendedErlangB, TrafficError> {
    if !fresh.is_valid() {
        return Err(TrafficError::InvalidLoad);
    }
    if !(0.0..=1.0).contains(&recall) || !recall.is_finite() {
        return Err(TrafficError::InvalidParameter("recall"));
    }
    let fresh_v = fresh.value();
    let mut total = fresh_v;
    let mut b = blocking_probability(Erlangs(total), channels);
    for it in 1..=max_iter {
        let next_total = fresh_v + recall * b * total;
        let next_b = blocking_probability(Erlangs(next_total), channels);
        // Damping keeps the iteration stable near saturation.
        let damped = 0.5 * (total + next_total);
        let converged = (damped - total).abs() < 1e-9 && (next_b - b).abs() < 1e-12;
        total = damped;
        b = blocking_probability(Erlangs(total), channels);
        if converged {
            return Ok(ExtendedErlangB {
                total_offered: Erlangs(total),
                blocking: b,
                iterations: it,
            });
        }
        let _ = next_b;
    }
    // recall < 1 always converges geometrically; recall == 1 can stall at
    // extreme overload. Surface the best estimate as Unreachable only if the
    // iteration is still moving materially.
    let residual = (fresh_v + recall * b * total - total).abs();
    if residual < 1e-6 * total.max(1.0) {
        Ok(ExtendedErlangB {
            total_offered: Erlangs(total),
            blocking: b,
            iterations: max_iter,
        })
    } else {
        Err(TrafficError::Unreachable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_recall_is_plain_erlang_b() {
        let r = extended_erlang_b(Erlangs(150.0), 165, 0.0, 100).unwrap();
        let plain = blocking_probability(Erlangs(150.0), 165);
        assert!((r.blocking - plain).abs() < 1e-9);
        assert!((r.total_offered.value() - 150.0).abs() < 1e-6);
    }

    #[test]
    fn retries_increase_offered_load_and_blocking() {
        let plain = blocking_probability(Erlangs(200.0), 165);
        let r = extended_erlang_b(Erlangs(200.0), 165, 0.7, 500).unwrap();
        assert!(r.total_offered.value() > 200.0);
        assert!(r.blocking > plain);
    }

    #[test]
    fn light_load_unaffected() {
        // With essentially no blocking there is nothing to retry.
        let r = extended_erlang_b(Erlangs(40.0), 165, 0.9, 200).unwrap();
        assert!((r.total_offered.value() - 40.0).abs() < 1e-3);
        assert!(r.blocking < 1e-9);
    }

    #[test]
    fn fixed_point_self_consistent() {
        let fresh = 220.0;
        let recall = 0.5;
        let r = extended_erlang_b(Erlangs(fresh), 165, recall, 500).unwrap();
        let rhs = fresh + recall * r.blocking * r.total_offered.value();
        assert!(
            (r.total_offered.value() - rhs).abs() < 1e-4,
            "fixed point residual too large"
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(extended_erlang_b(Erlangs(-1.0), 10, 0.5, 100).is_err());
        assert!(extended_erlang_b(Erlangs(1.0), 10, 1.5, 100).is_err());
        assert!(extended_erlang_b(Erlangs(1.0), 10, f64::NAN, 100).is_err());
    }

    #[test]
    fn monotone_in_recall() {
        let mut prev = 0.0;
        for recall in [0.0, 0.25, 0.5, 0.75, 0.95] {
            let r = extended_erlang_b(Erlangs(210.0), 165, recall, 1000).unwrap();
            assert!(r.blocking >= prev - 1e-9, "recall={recall}");
            prev = r.blocking;
        }
    }
}
