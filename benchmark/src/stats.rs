//! Order statistics over small samples of host timings.

/// Minimum, quartiles and count of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarise `values`; `None` when empty. A single value is its own
    /// quartiles.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = match v.len() {
            0 => return None,
            1 => (v[0], v[0], v[0]),
            _ => quartiles(&v),
        };
        Some(Summary {
            n: v.len(),
            min: v[0],
            q1,
            median,
            q3,
        })
    }

    /// Interquartile range as a share of the median — the spread the
    /// acceptance rule compares against a metric's bound.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Smallest value, or NaN for an empty slice.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// Median of an unsorted slice, or NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(f64::NAN, |s| s.median)
}

/// The three cut points Python's `statistics.quantiles(v, n=4)` returns
/// (its default "exclusive" method) for sorted `v` with at least two
/// elements, so spreads computed here match the driver's.
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let len = v.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min), (10, 1.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_samples() {
        assert!(Summary::of(&[]).is_none());
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.min, s.q1, s.median, s.q3), (4.0, 4.0, 4.0, 4.0));
        assert_eq!(s.spread(), 0.0);
        assert!(min(&[]).is_nan());
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
