//! The Erlang-B loss model (Eq. 2 of the paper).
//!
//! For offered load `A` Erlangs and `N` channels, the probability that an
//! arriving call finds all channels busy (and is lost) is
//!
//! ```text
//!            A^N / N!
//! B(A, N) = ─────────────────
//!            Σ_{i=0}^{N} A^i / i!
//! ```
//!
//! Evaluating the textbook formula directly overflows for modest `N`; we use
//! the standard stable recurrence instead:
//!
//! ```text
//! B(A, 0) = 1
//! B(A, n) = A·B(A, n−1) / (n + A·B(A, n−1))
//! ```
//!
//! which stays in `[0, 1]` at every step and costs O(N) multiplications.

use crate::error::TrafficError;
use crate::units::Erlangs;

/// Call blocking probability `B(A, N)` for offered load `a` and `channels`
/// servers.
///
/// Edge cases: zero load never blocks (unless there are zero channels, in
/// which case everything blocks); an invalid (negative or non-finite) load
/// yields `NaN`.
///
/// ```
/// use teletraffic::{erlang_b, Erlangs};
/// let pb = erlang_b::blocking_probability(Erlangs(200.0), 165);
/// assert!(pb > 0.19 && pb < 0.23); // the paper's ~21% anchor
/// ```
#[must_use]
pub fn blocking_probability(a: Erlangs, channels: u32) -> f64 {
    let a = a.value();
    if !(a.is_finite() && a >= 0.0) {
        return f64::NAN;
    }
    if a == 0.0 {
        return if channels == 0 { 1.0 } else { 0.0 };
    }
    let mut b = 1.0_f64; // B(A, 0)
    for n in 1..=u64::from(channels) {
        let ab = a * b;
        b = ab / (n as f64 + ab);
    }
    b
}

/// Blocking probabilities for every channel count `0..=max_channels`.
///
/// One pass of the recurrence; used to draw the paper's Fig. 3 curves.
#[must_use]
pub fn blocking_curve(a: Erlangs, max_channels: u32) -> Vec<f64> {
    let av = a.value();
    let mut out = Vec::with_capacity(max_channels as usize + 1);
    if !(av.is_finite() && av >= 0.0) {
        out.resize(max_channels as usize + 1, f64::NAN);
        return out;
    }
    if av == 0.0 {
        out.push(1.0);
        out.resize(max_channels as usize + 1, 0.0);
        return out;
    }
    let mut b = 1.0_f64;
    out.push(b);
    for n in 1..=u64::from(max_channels) {
        let ab = av * b;
        b = ab / (n as f64 + ab);
        out.push(b);
    }
    out
}

/// Smallest number of channels `N` such that `B(A, N) ≤ target_pb`.
///
/// This is the dimensioning question of the paper's §III-B: "the least
/// amount of resources necessary to deal with the offered load".
///
/// ```
/// use teletraffic::{erlang_b, Erlangs};
/// // 150 E at 2% blocking needs ~164 channels.
/// let n = erlang_b::channels_for(Erlangs(150.0), 0.02).unwrap();
/// assert!(n >= 160 && n <= 170);
/// ```
pub fn channels_for(a: Erlangs, target_pb: f64) -> Result<u32, TrafficError> {
    if !a.is_valid() {
        return Err(TrafficError::InvalidLoad);
    }
    if !(target_pb > 0.0 && target_pb < 1.0) {
        return Err(TrafficError::InvalidProbability);
    }
    let av = a.value();
    if av == 0.0 {
        return Ok(0);
    }
    let mut b = 1.0_f64;
    let mut n: u64 = 0;
    // B(A, n) decreases strictly in n for A > 0, so the walk terminates.
    // Guard against pathological targets anyway.
    let hard_cap = (av.ceil() as u64 + 64) * 16 + 1024;
    while b > target_pb {
        n += 1;
        let ab = av * b;
        b = ab / (n as f64 + ab);
        if n > hard_cap {
            return Err(TrafficError::Unreachable);
        }
    }
    u32::try_from(n).map_err(|_| TrafficError::Unreachable)
}

/// `B(A, N)` together with its derivative `∂B/∂A`, both propagated
/// through one pass of the stable recurrence.
///
/// Writing `u = A·B(A, n−1)` and `d = ∂B/∂A`:
///
/// ```text
/// u′  = B(A, n−1) + A·d_{n−1}
/// B_n = u / (n + u)
/// d_n = n·u′ / (n + u)²
/// ```
///
/// This is what lets [`load_for`] take Newton steps at the same O(N) cost
/// as a single blocking evaluation.
fn blocking_and_derivative(a: f64, channels: u32) -> (f64, f64) {
    let mut b = 1.0_f64; // B(A, 0)
    let mut d = 0.0_f64; // ∂B/∂A at n = 0
    for n in 1..=u64::from(channels) {
        let nf = n as f64;
        let u = a * b;
        let du = b + a * d;
        let denom = nf + u;
        d = nf * du / (denom * denom);
        b = u / denom;
    }
    (b, d)
}

/// Largest offered load `A` such that `B(A, channels) ≤ target_pb`.
///
/// Solved by Newton iteration on the (strictly increasing in `A`)
/// blocking probability, with the derivative propagated through the same
/// recurrence that evaluates `B` — one O(N) pass per step instead of the
/// O(N·log(range/tol)) a pure bisection costs. Steps are safeguarded by a
/// shrinking bracket, with bisection as the fallback, so convergence is
/// guaranteed. The answer is exact to `tol` Erlangs.
pub fn load_for(channels: u32, target_pb: f64) -> Result<Erlangs, TrafficError> {
    load_for_tol(channels, target_pb, 1e-9)
}

/// [`load_for`] with an explicit absolute tolerance in Erlangs.
fn load_for_tol(channels: u32, target_pb: f64, tol: f64) -> Result<Erlangs, TrafficError> {
    if !(target_pb > 0.0 && target_pb < 1.0) {
        return Err(TrafficError::InvalidProbability);
    }
    if channels == 0 {
        // With no channels every call blocks; no positive load meets pb < 1.
        return Err(TrafficError::Unreachable);
    }
    // Bracket: blocking at A=0 is 0; grow the upper bound until it blocks
    // more than the target.
    let mut lo = 0.0_f64;
    let mut hi = channels as f64;
    while blocking_probability(Erlangs(hi), channels) < target_pb {
        hi *= 2.0;
        if hi > 1e12 {
            return Err(TrafficError::Unreachable);
        }
    }
    // Newton from the bracket midpoint; every iterate also tightens the
    // bracket, and a step that escapes it (or a vanishing derivative)
    // falls back to the midpoint — plain bisection in the worst case.
    let mut a = 0.5 * (lo + hi);
    while hi - lo > tol {
        let (b, d) = blocking_and_derivative(a, channels);
        if b > target_pb {
            hi = a;
        } else {
            lo = a;
        }
        if hi - lo <= tol {
            break;
        }
        let newton = a - (b - target_pb) / d;
        a = if d > 0.0 && newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
    }
    Ok(Erlangs(0.5 * (lo + hi)))
}

/// A memoized Erlang-B curve: every `B(A, n)` for `n ∈ 0..=max_channels`
/// from one pass of the recurrence, for callers that sweep channel counts
/// at a fixed load (figure rails, dimensioning tables). Point lookups are
/// then O(1) instead of O(n) each.
#[must_use = "building the curve costs an O(N) pass; use the lookups"]
#[derive(Debug, Clone)]
pub struct BlockingCurve {
    a: Erlangs,
    values: Vec<f64>,
}

impl BlockingCurve {
    /// Evaluate the curve for offered load `a` up to `max_channels`.
    pub fn new(a: Erlangs, max_channels: u32) -> Self {
        BlockingCurve {
            a,
            values: blocking_curve(a, max_channels),
        }
    }

    /// The offered load this curve was built for.
    #[must_use]
    pub fn offered(&self) -> Erlangs {
        self.a
    }

    /// Largest channel count the curve covers.
    #[cfg(test)]
    #[must_use]
    pub fn max_channels(&self) -> u32 {
        (self.values.len() - 1) as u32
    }

    /// `B(A, channels)`; `NaN` beyond the largest channel count the curve
    /// was built for.
    #[must_use]
    pub fn at(&self, channels: u32) -> f64 {
        self.values
            .get(channels as usize)
            .copied()
            .unwrap_or(f64::NAN)
    }

    /// Smallest `N ≤ max_channels` with `B(A, N) ≤ target_pb`, or `None`
    /// if the curve never gets there (memoized [`channels_for`]).
    #[must_use]
    pub fn channels_for(&self, target_pb: f64) -> Option<u32> {
        self.values
            .iter()
            .position(|&b| b <= target_pb)
            .map(|n| n as u32)
    }
}

/// Process-wide memo of [`BlockingCurve`]s, keyed by `(A bits, N)`.
///
/// A sweep evaluates the same analytic rails for every replication of
/// every cell — Fig. 6 alone asks for the 170-channel curve at 15 loads
/// × every rep. The curves are immutable once built, so the sweep plane
/// hosts them behind a process-wide `Arc` and every run after the first
/// gets a refcount bump instead of an O(N) recurrence pass. Keying by
/// the load's *bit pattern* keeps the memo exact: two loads that differ
/// in the last ulp get distinct curves, so memoized results are
/// bit-identical to cold ones by construction.
pub fn shared_curve(a: Erlangs, max_channels: u32) -> std::sync::Arc<BlockingCurve> {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex, OnceLock};
    type CurveMemo = Mutex<HashMap<(u64, u32), Arc<BlockingCurve>>>;
    static MEMO: OnceLock<CurveMemo> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (a.value().to_bits(), max_channels);
    let mut map = memo
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    Arc::clone(
        map.entry(key)
            .or_insert_with(|| Arc::new(BlockingCurve::new(a, max_channels))),
    )
}

/// Process-wide memo of [`load_for`] answers, keyed by `(N, target bits)`.
///
/// The campaign derives its engineered capacity (`load_for(channels,
/// 0.01)`) once per *cell*; under the sweep executor that Newton solve
/// would otherwise repeat per cell × replication. Same exactness
/// argument as [`shared_curve`]: the memo stores the identical `Result`
/// the cold path computes.
pub fn shared_load_for(channels: u32, target_pb: f64) -> Result<Erlangs, TrafficError> {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    type LoadMemo = Mutex<HashMap<(u32, u64), Result<Erlangs, TrafficError>>>;
    static MEMO: OnceLock<LoadMemo> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (channels, target_pb.to_bits());
    let mut map = memo
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    map.entry(key)
        .or_insert_with(|| load_for(channels, target_pb))
        .clone()
}

/// Channel utilisation: the carried traffic `A · (1 − B(A, N))` — the load
/// that actually occupies channels after blocking — divided by `N`.
#[must_use]
pub fn utilisation(a: Erlangs, channels: u32) -> f64 {
    if channels == 0 {
        return 0.0;
    }
    a.value() * (1.0 - blocking_probability(a, channels)) / f64::from(channels)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct (unstable) evaluation for small N, used as an oracle.
    fn naive_erlang_b(a: f64, n: u32) -> f64 {
        let mut sum = 0.0;
        let mut term = 1.0; // A^0/0!
        for i in 1..=n {
            sum += term;
            term *= a / f64::from(i);
        }
        sum += term;
        term / sum
    }

    #[test]
    fn matches_naive_formula_small_n() {
        for &a in &[0.5, 1.0, 5.0, 12.0, 40.0] {
            for n in 0..=60u32 {
                let fast = blocking_probability(Erlangs(a), n);
                let slow = naive_erlang_b(a, n);
                assert!((fast - slow).abs() < 1e-10, "A={a} N={n}: {fast} vs {slow}");
            }
        }
    }

    #[test]
    fn classic_tabulated_values() {
        // Values from standard Erlang-B tables.
        let cases = [
            // (A, N, B) — traffic, channels, blocking
            (1.0, 1, 0.5),
            (1.0, 2, 0.2),
            (2.0, 2, 0.4),
            (10.0, 10, 0.214625),
            (100.0, 100, 0.0757),
            (20.0, 30, 0.0085), // ~0.85%
        ];
        for (a, n, want) in cases {
            let got = blocking_probability(Erlangs(a), n);
            assert!(
                (got - want).abs() / want < 0.02,
                "A={a} N={n}: got {got}, want ~{want}"
            );
        }
    }

    #[test]
    fn paper_anchor_values() {
        // Fig. 6 / Table I anchors: with N = 165 channels the model gives
        // ~4% at 160 E, ~21% at 200 E, ~31% at 240 E, and 1.8% at 150 E.
        let pb160 = blocking_probability(Erlangs(160.0), 165);
        let pb200 = blocking_probability(Erlangs(200.0), 165);
        let pb240 = blocking_probability(Erlangs(240.0), 165);
        let pb150 = blocking_probability(Erlangs(150.0), 165);
        assert!(pb160 > 0.02 && pb160 < 0.07, "pb160={pb160}");
        assert!(pb200 > 0.17 && pb200 < 0.24, "pb200={pb200}");
        assert!(pb240 > 0.28 && pb240 < 0.36, "pb240={pb240}");
        assert!((pb150 - 0.018).abs() < 0.01, "pb150={pb150}");
    }

    #[test]
    fn zero_load_and_zero_channels() {
        assert_eq!(blocking_probability(Erlangs(0.0), 0), 1.0);
        assert_eq!(blocking_probability(Erlangs(0.0), 10), 0.0);
        assert_eq!(blocking_probability(Erlangs(5.0), 0), 1.0);
    }

    #[test]
    fn invalid_load_is_nan() {
        assert!(blocking_probability(Erlangs(-1.0), 5).is_nan());
        assert!(blocking_probability(Erlangs(f64::NAN), 5).is_nan());
    }

    #[test]
    fn huge_inputs_stay_finite() {
        let b = blocking_probability(Erlangs(50_000.0), 50_000);
        assert!(b.is_finite() && (0.0..=1.0).contains(&b));
        let b2 = blocking_probability(Erlangs(1e6), 1_000_000);
        assert!(b2.is_finite() && (0.0..=1.0).contains(&b2));
    }

    #[test]
    fn curve_matches_pointwise() {
        let a = Erlangs(37.5);
        let curve = blocking_curve(a, 80);
        assert_eq!(curve.len(), 81);
        for (n, &b) in curve.iter().enumerate() {
            let direct = blocking_probability(a, n as u32);
            assert!((b - direct).abs() < 1e-14, "n={n}");
        }
    }

    #[test]
    fn curve_zero_load() {
        let curve = blocking_curve(Erlangs(0.0), 4);
        assert_eq!(curve, vec![1.0, 0.0, 0.0, 0.0, 0.0]);
        let bad = blocking_curve(Erlangs(f64::NAN), 2);
        assert!(bad.iter().all(|x| x.is_nan()));
    }

    #[test]
    fn channels_for_meets_target_tightly() {
        for &a in &[1.0, 10.0, 150.0, 240.0] {
            for &pb in &[0.001, 0.01, 0.05, 0.2] {
                let n = channels_for(Erlangs(a), pb).unwrap();
                assert!(blocking_probability(Erlangs(a), n) <= pb);
                if n > 0 {
                    // One fewer channel must violate the target (minimality).
                    assert!(blocking_probability(Erlangs(a), n - 1) > pb);
                }
            }
        }
    }

    #[test]
    fn channels_for_edge_cases() {
        assert_eq!(channels_for(Erlangs(0.0), 0.01), Ok(0));
        assert_eq!(
            channels_for(Erlangs(-1.0), 0.01),
            Err(TrafficError::InvalidLoad)
        );
        assert_eq!(
            channels_for(Erlangs(1.0), 0.0),
            Err(TrafficError::InvalidProbability)
        );
        assert_eq!(
            channels_for(Erlangs(1.0), 1.0),
            Err(TrafficError::InvalidProbability)
        );
    }

    #[test]
    fn load_for_inverts_blocking() {
        for &n in &[1u32, 10, 42, 165] {
            for &pb in &[0.01, 0.05, 0.21] {
                let a = load_for(n, pb).unwrap();
                let back = blocking_probability(a, n);
                assert!((back - pb).abs() < 1e-6, "n={n} pb={pb} back={back}");
            }
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        for &a in &[0.5, 10.0, 150.0, 240.0] {
            for &n in &[1u32, 10, 165] {
                let (b, d) = blocking_and_derivative(a, n);
                assert!((b - blocking_probability(Erlangs(a), n)).abs() < 1e-14);
                let h = 1e-6 * a.max(1.0);
                let fd = (blocking_probability(Erlangs(a + h), n)
                    - blocking_probability(Erlangs(a - h), n))
                    / (2.0 * h);
                assert!(
                    (d - fd).abs() < 1e-6 * d.abs().max(1e-9),
                    "A={a} N={n}: analytic {d} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn blocking_curve_struct_memoizes_lookups() {
        let curve = BlockingCurve::new(Erlangs(150.0), 170);
        assert_eq!(curve.max_channels(), 170);
        assert_eq!(curve.offered().value(), 150.0);
        for n in [0u32, 1, 160, 165, 170] {
            assert_eq!(
                curve.at(n).to_bits(),
                blocking_probability(Erlangs(150.0), n).to_bits(),
                "n={n}"
            );
        }
        assert!(curve.at(171).is_nan(), "beyond the curve");
        // Memoized channels_for agrees with the incremental walk.
        let n = curve.channels_for(0.02).unwrap();
        assert_eq!(n, channels_for(Erlangs(150.0), 0.02).unwrap());
        // An unreachable target inside the covered range.
        assert_eq!(
            BlockingCurve::new(Erlangs(500.0), 100).channels_for(0.01),
            None
        );
    }

    #[test]
    fn shared_curve_is_the_cold_curve_behind_one_arc() {
        let a = shared_curve(Erlangs(150.0), 170);
        let b = shared_curve(Erlangs(150.0), 170);
        assert!(std::sync::Arc::ptr_eq(&a, &b), "second call is a memo hit");
        let cold = BlockingCurve::new(Erlangs(150.0), 170);
        for n in 0..=170 {
            assert_eq!(a.at(n).to_bits(), cold.at(n).to_bits(), "n={n}");
        }
        // A last-ulp-different load is a different key, not a collision.
        let close = shared_curve(Erlangs(150.0 + f64::EPSILON * 256.0), 170);
        assert!(!std::sync::Arc::ptr_eq(&a, &close));
    }

    #[test]
    fn shared_load_for_matches_cold_solve() {
        let memo = shared_load_for(165, 0.01).unwrap();
        let cold = load_for(165, 0.01).unwrap();
        assert_eq!(memo.value().to_bits(), cold.value().to_bits());
        assert_eq!(shared_load_for(165, 0.01).unwrap().value(), memo.value());
        assert_eq!(
            shared_load_for(0, 0.05),
            Err(TrafficError::Unreachable),
            "errors memoize too"
        );
    }

    #[test]
    fn load_for_rejects_bad_inputs() {
        assert_eq!(load_for(0, 0.05), Err(TrafficError::Unreachable));
        assert_eq!(load_for(10, 0.0), Err(TrafficError::InvalidProbability));
        assert_eq!(load_for(10, 1.5), Err(TrafficError::InvalidProbability));
    }

    #[test]
    fn utilisation_of_carried_traffic() {
        // Light load: everything is carried.
        let u = utilisation(Erlangs(1.0), 100);
        assert!((u - 0.01).abs() < 1e-11);
        // Heavy overload: carried traffic approaches the channel count.
        let u = utilisation(Erlangs(10_000.0), 100);
        assert!(u > 0.99 && u <= 1.0);
        assert_eq!(utilisation(Erlangs(5.0), 0), 0.0);
    }

    #[test]
    fn fig3_shape_more_channels_less_blocking() {
        // The property the paper reads off Fig. 3.
        for &a in &[20.0, 100.0, 240.0] {
            let curve = blocking_curve(Erlangs(a), 260);
            for w in curve.windows(2) {
                assert!(w[1] <= w[0] + 1e-15, "A={a}: not non-increasing");
            }
        }
        // And more load -> more blocking at fixed N.
        let n = 150;
        let mut prev = 0.0;
        for a in (20..=240).step_by(20) {
            let b = blocking_probability(Erlangs(f64::from(a)), n);
            assert!(b >= prev);
            prev = b;
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// B is always a probability.
        #[test]
        fn blocking_in_unit_interval(a in 0.0f64..5000.0, n in 0u32..3000) {
            let b = blocking_probability(Erlangs(a), n);
            prop_assert!((0.0..=1.0).contains(&b));
        }

        /// The defining recurrence B(A,n) = A·B(A,n−1)/(n + A·B(A,n−1)).
        #[test]
        fn recurrence_identity(a in 0.001f64..2000.0, n in 1u32..500) {
            let prev = blocking_probability(Erlangs(a), n - 1);
            let here = blocking_probability(Erlangs(a), n);
            let expect = a * prev / (f64::from(n) + a * prev);
            prop_assert!((here - expect).abs() < 1e-12);
        }

        /// Monotone non-increasing in N.
        #[test]
        fn monotone_in_channels(a in 0.0f64..2000.0, n in 0u32..1000) {
            let b0 = blocking_probability(Erlangs(a), n);
            let b1 = blocking_probability(Erlangs(a), n + 1);
            prop_assert!(b1 <= b0 + 1e-15);
        }

        /// Monotone non-decreasing in A.
        #[test]
        fn monotone_in_load(a in 0.0f64..1000.0, da in 0.0f64..100.0, n in 0u32..500) {
            let b0 = blocking_probability(Erlangs(a), n);
            let b1 = blocking_probability(Erlangs(a + da), n);
            prop_assert!(b1 >= b0 - 1e-15);
        }

        /// channels_for really is the minimal channel count.
        #[test]
        fn channels_for_minimality(a in 0.01f64..500.0, pb in 0.0005f64..0.5) {
            let n = channels_for(Erlangs(a), pb).unwrap();
            prop_assert!(blocking_probability(Erlangs(a), n) <= pb);
            if n > 0 {
                prop_assert!(blocking_probability(Erlangs(a), n - 1) > pb);
            }
        }

        /// load_for is a right inverse of blocking at fixed N.
        #[test]
        fn load_for_right_inverse(n in 1u32..400, pb in 0.001f64..0.9) {
            let a = load_for_tol(n, pb, 1e-10).unwrap();
            let back = blocking_probability(a, n);
            prop_assert!((back - pb).abs() < 1e-6);
        }

        /// Carried traffic can never exceed offered traffic nor channels.
        #[test]
        fn carried_bounds(a in 0.0f64..2000.0, n in 1u32..500) {
            let c = utilisation(Erlangs(a), n) * f64::from(n);
            prop_assert!(c <= a + 1e-9);
            prop_assert!(c <= f64::from(n) + 1e-9);
            prop_assert!(c >= -1e-12);
        }
    }
}
