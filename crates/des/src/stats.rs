//! Output-analysis statistics for simulation experiments.
//!
//! Everything here is O(1) per observation (the histogram is O(1) amortised)
//! so instrumentation never dominates the event loop, per the performance
//! guidance this workspace follows.

use crate::time::SimTime;

/// Welford's online mean/variance accumulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record an observation.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (NaN when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (NaN below two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Minimum observation (∞ when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (−∞ when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Time-weighted average of a piecewise-constant signal (e.g. number of
/// busy channels, queue depth, CPU utilisation).
#[derive(Debug, Clone, Copy)]
pub struct TimeWeighted {
    last_t: SimTime,
    last_v: f64,
    area: f64,
    start: SimTime,
    peak: f64,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// A fresh accumulator; the signal is undefined until [`Self::set`].
    #[must_use]
    pub fn new() -> Self {
        TimeWeighted {
            last_t: SimTime::ZERO,
            last_v: 0.0,
            area: 0.0,
            start: SimTime::ZERO,
            peak: 0.0,
            started: false,
        }
    }

    /// Record that the signal takes value `v` from time `t` onward.
    pub fn set(&mut self, t: SimTime, v: f64) {
        if self.started {
            self.area += self.last_v * t.since(self.last_t).as_secs_f64();
        } else {
            self.start = t;
            self.started = true;
        }
        self.last_t = t;
        self.last_v = v;
        self.peak = self.peak.max(v);
    }

    /// Current signal value.
    #[must_use]
    pub fn current(&self) -> f64 {
        self.last_v
    }

    /// Peak signal value observed.
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-weighted mean over `[start, until]` (NaN before any sample or
    /// over a zero-length window).
    #[must_use]
    pub fn mean_until(&self, until: SimTime) -> f64 {
        if !self.started {
            return f64::NAN;
        }
        let span = until.since(self.start).as_secs_f64();
        if span <= 0.0 {
            return f64::NAN;
        }
        let tail = self.last_v * until.since(self.last_t).as_secs_f64();
        (self.area + tail) / span
    }
}

/// Fixed-width bucket histogram with overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    width: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// `buckets` equal-width bins covering `[lo, hi)`.
    ///
    /// # Panics
    /// If `hi <= lo` or `buckets == 0`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(hi > lo && buckets > 0, "degenerate histogram");
        Histogram {
            lo,
            width: (hi - lo) / buckets as f64,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        if idx >= self.buckets.len() {
            self.overflow += 1;
        } else {
            self.buckets[idx] += 1;
        }
    }

    /// Total observations recorded (including out-of-range).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Count in bucket `i`.
    #[must_use]
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Number of in-range buckets.
    #[must_use]
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Observations below the range.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range top.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate quantile by linear interpolation within the bucket
    /// (`q` in `[0,1]`; NaN when empty).
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return self.lo;
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            if seen + c >= target {
                let into = (target - seen) as f64 / c.max(1) as f64;
                return self.lo + (i as f64 + into) * self.width;
            }
            seen += c;
        }
        self.lo + self.buckets.len() as f64 * self.width
    }
}

/// Batch-means confidence interval for a stream of (possibly autocorrelated)
/// simulation outputs.
///
/// Observations are grouped into fixed-size batches; the batch means are
/// treated as approximately i.i.d. normal, yielding a Student-t interval.
#[derive(Debug, Clone)]
pub struct BatchMeans {
    batch_size: u64,
    in_batch: u64,
    batch_sum: f64,
    means: Vec<f64>,
}

impl BatchMeans {
    /// Batches of `batch_size` observations each.
    ///
    /// # Panics
    /// If `batch_size == 0`.
    #[must_use]
    pub fn new(batch_size: u64) -> Self {
        assert!(batch_size > 0);
        BatchMeans {
            batch_size,
            in_batch: 0,
            batch_sum: 0.0,
            means: Vec::new(),
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.batch_sum += x;
        self.in_batch += 1;
        if self.in_batch == self.batch_size {
            self.means.push(self.batch_sum / self.batch_size as f64);
            self.batch_sum = 0.0;
            self.in_batch = 0;
        }
    }

    /// Number of completed batches.
    #[must_use]
    pub fn batches(&self) -> usize {
        self.means.len()
    }

    /// Grand mean over completed batches (NaN when none).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.means.is_empty() {
            return f64::NAN;
        }
        self.means.iter().sum::<f64>() / self.means.len() as f64
    }

    /// Half-width of the ~95% confidence interval (NaN below two batches).
    #[must_use]
    pub fn half_width_95(&self) -> f64 {
        let k = self.means.len();
        if k < 2 {
            return f64::NAN;
        }
        let mean = self.mean();
        let var = self.means.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / (k - 1) as f64;
        t_95(k - 1) * (var / k as f64).sqrt()
    }
}

/// Two-sided 95% Student-t critical value for `df` degrees of freedom
/// (table for small df, normal limit beyond).
fn t_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::NAN
    } else if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.96
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Distributions, StreamRng};

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.record(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_empty_and_single() {
        let w = Welford::new();
        assert!(w.mean().is_nan());
        assert!(w.variance().is_nan());
        let mut w1 = Welford::new();
        w1.record(3.0);
        assert_eq!(w1.mean(), 3.0);
        assert!(w1.variance().is_nan());
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let mut rng = StreamRng::seed_from_u64(5);
        let xs: Vec<f64> = (0..1000).map(|_| rng.normal(10.0, 3.0)).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..400] {
            a.record(x);
        }
        for &x in &xs[400..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-6);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        // Merging an empty accumulator is a no-op in both directions.
        let empty = Welford::new();
        let before = a.mean();
        a.merge(&empty);
        assert_eq!(a.mean(), before);
        let mut e2 = Welford::new();
        e2.merge(&a);
        assert_eq!(e2.count(), a.count());
    }

    #[test]
    fn time_weighted_square_wave() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::from_secs(0), 0.0);
        tw.set(SimTime::from_secs(10), 4.0); // 0 for 10s
        tw.set(SimTime::from_secs(20), 2.0); // 4 for 10s
                                             // Mean over [0,30]: (0·10 + 4·10 + 2·10)/30 = 2.0
        let m = tw.mean_until(SimTime::from_secs(30));
        assert!((m - 2.0).abs() < 1e-12);
        assert_eq!(tw.current(), 2.0);
        assert_eq!(tw.peak(), 4.0);
    }

    #[test]
    fn time_weighted_empty_and_zero_window() {
        let tw = TimeWeighted::new();
        assert!(tw.mean_until(SimTime::from_secs(5)).is_nan());
        let mut tw2 = TimeWeighted::new();
        tw2.set(SimTime::from_secs(5), 1.0);
        assert!(tw2.mean_until(SimTime::from_secs(5)).is_nan());
    }

    #[test]
    fn time_weighted_busy_channels_shape() {
        // A call arriving at t=0 and leaving at t=60 within a 120 s window
        // occupies 0.5 channels on average.
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::ZERO, 1.0);
        tw.set(SimTime::from_secs(60), 0.0);
        let m = tw.mean_until(SimTime::from_secs(120));
        assert!((m - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..100 {
            h.record(f64::from(i) / 10.0); // 0.0..9.9 uniformly
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.num_buckets(), 10);
        for i in 0..10 {
            assert_eq!(h.bucket(i), 10);
        }
        let med = h.quantile(0.5);
        assert!((med - 5.0).abs() < 0.5, "median={med}");
        let p90 = h.quantile(0.9);
        assert!((p90 - 9.0).abs() < 0.5, "p90={p90}");
    }

    #[test]
    fn histogram_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-5.0);
        h.record(2.0);
        h.record(0.5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 3);
        assert!(Histogram::new(0.0, 1.0, 1).quantile(0.5).is_nan());
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn histogram_rejects_bad_range() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }

    #[test]
    fn batch_means_covers_true_mean() {
        // AR(1)-ish correlated stream with known mean 50.
        let mut rng = StreamRng::seed_from_u64(77);
        let mut bm = BatchMeans::new(500);
        let mut x = 50.0;
        for _ in 0..50_000 {
            x = 0.9 * x + 0.1 * rng.normal(50.0, 10.0);
            bm.record(x);
        }
        assert!(bm.batches() == 100);
        let mean = bm.mean();
        let hw = bm.half_width_95();
        assert!(hw.is_finite() && hw > 0.0);
        assert!(
            (mean - 50.0).abs() < 3.0 * hw.max(0.5),
            "mean={mean} hw={hw}"
        );
    }

    #[test]
    fn batch_means_degenerate() {
        let mut bm = BatchMeans::new(10);
        assert!(bm.mean().is_nan());
        assert!(bm.half_width_95().is_nan());
        for _ in 0..10 {
            bm.record(1.0);
        }
        assert_eq!(bm.batches(), 1);
        assert_eq!(bm.mean(), 1.0);
        assert!(bm.half_width_95().is_nan(), "one batch has no interval");
    }

    #[test]
    fn t_table_monotone_towards_normal() {
        assert!(t_95(1) > t_95(2));
        assert!(t_95(29) > t_95(31));
        assert_eq!(t_95(1000), 1.96);
        assert!(t_95(0).is_nan());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Welford never loses observations and the mean stays within
        /// [min, max].
        #[test]
        fn welford_mean_bounded(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut w = Welford::new();
            for &x in &xs { w.record(x); }
            prop_assert_eq!(w.count(), xs.len() as u64);
            prop_assert!(w.mean() >= w.min() - 1e-9);
            prop_assert!(w.mean() <= w.max() + 1e-9);
        }

        /// Merge is equivalent to concatenation for any split point.
        #[test]
        fn welford_merge_any_split(
            xs in proptest::collection::vec(-1e3f64..1e3, 2..100),
            split_frac in 0.0f64..1.0,
        ) {
            let split = ((xs.len() as f64 * split_frac) as usize).min(xs.len());
            let mut whole = Welford::new();
            for &x in &xs { whole.record(x); }
            let mut a = Welford::new();
            let mut b = Welford::new();
            for &x in &xs[..split] { a.record(x); }
            for &x in &xs[split..] { b.record(x); }
            a.merge(&b);
            prop_assert_eq!(a.count(), whole.count());
            prop_assert!((a.mean() - whole.mean()).abs() < 1e-6);
        }

        /// Histogram conserves observations across buckets + out-of-range.
        #[test]
        fn histogram_conservation(xs in proptest::collection::vec(-10.0f64..20.0, 0..300)) {
            let mut h = Histogram::new(0.0, 10.0, 13);
            for &x in &xs { h.record(x); }
            let in_buckets: u64 = (0..h.num_buckets()).map(|i| h.bucket(i)).sum();
            prop_assert_eq!(in_buckets + h.underflow() + h.overflow(), xs.len() as u64);
        }

        /// Quantiles are monotone in q.
        #[test]
        fn histogram_quantile_monotone(xs in proptest::collection::vec(0.0f64..10.0, 1..200)) {
            let mut h = Histogram::new(0.0, 10.0, 20);
            for &x in &xs { h.record(x); }
            let q25 = h.quantile(0.25);
            let q50 = h.quantile(0.5);
            let q75 = h.quantile(0.75);
            prop_assert!(q25 <= q50 + 1e-9);
            prop_assert!(q50 <= q75 + 1e-9);
        }
    }
}
