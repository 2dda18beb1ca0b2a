//! Deterministic, splittable random-number streams.
//!
//! Every stochastic component of the simulation (arrival process, holding
//! times, network perturbations) draws from its **own named stream** derived
//! from the master seed. That way adding a new consumer of randomness never
//! perturbs the draws seen by existing components — the classic "common
//! random numbers" discipline for comparable experiments — and parallel
//! replications (fanned out by the `capacity` sweep executor) are trivially
//! reproducible because streams carry no shared state.
//!
//! The generator is xoshiro256++ (public domain, Blackman & Vigna), seeded
//! through SplitMix64 as its authors recommend. Both are implemented here in
//! ~40 lines rather than pulled from a crate so the whole simulation is
//! self-contained and auditable.

/// SplitMix64 step — used for seeding and for stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a decorrelated seed for replication `rep` of an experiment run
/// with master seed `seed`.
///
/// Earlier sweep code used `seed ^ rep.wrapping_mul(GOLDEN)`, which is a
/// linear map of `rep`: consecutive replications share most high bits and
/// the XOR preserves bit-level structure, so replication seeds (and hence
/// the xoshiro states seeded from them) are correlated in exactly the runs
/// that are then averaged together. Passing the combination through a full
/// SplitMix64 finalizer avalanches every input bit into every output bit —
/// one flipped bit in `rep` flips each output bit with probability ½.
/// Every replication loop (`farm`, `figures`, `policy`) routes through
/// this helper so the derivation can never drift apart again.
#[inline]
#[must_use]
pub fn stream_seed(seed: u64, rep: u64) -> u64 {
    let mut state = seed.wrapping_add(rep.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(&mut state)
}

/// FNV-1a over a label, used to give each named stream a distinct seed
/// offset (stable across platforms and runs).
#[inline]
fn label_hash(label: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// xoshiro256++ pseudo-random generator.
#[derive(Debug, Clone)]
pub struct StreamRng {
    s: [u64; 4],
}

impl StreamRng {
    /// Seed a generator from a 64-bit seed via SplitMix64.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro must not be seeded with all zeros; SplitMix64 cannot
        // produce four consecutive zeros, but be defensive.
        if s == [0, 0, 0, 0] {
            StreamRng { s: [1, 2, 3, 4] }
        } else {
            StreamRng { s }
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A factory of independent named random streams sharing a master seed.
#[derive(Debug, Clone, Copy)]
pub struct RngStream {
    master: u64,
}

impl RngStream {
    /// Create a stream factory for a master seed.
    #[must_use]
    pub fn new(master: u64) -> Self {
        RngStream { master }
    }

    /// Derive the generator for a named component ("arrivals", "network"…).
    #[must_use]
    pub fn stream(&self, label: &str) -> StreamRng {
        StreamRng::seed_from_u64(self.master ^ label_hash(label))
    }

    /// Derive a generator for a named component plus an index (e.g. one
    /// stream per replication).
    #[cfg(test)]
    #[must_use]
    pub fn indexed(&self, label: &str, index: u64) -> StreamRng {
        let mut mix = self.master ^ label_hash(label) ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
        StreamRng::seed_from_u64(splitmix64(&mut mix))
    }
}

/// Distribution sampling on top of a raw 64-bit stream.
///
/// These samplers use inverse-CDF / Box–Muller forms so they are exactly
/// reproducible from the raw bit stream, independent of any external
/// distribution crate's implementation details.
pub trait Distributions {
    /// Next raw 64-bit output: every sampler below draws from it.
    fn next_u64(&mut self) -> u64;

    /// Uniform in `[0, 1)` with 53-bit resolution.
    #[inline]
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, 1)` that never returns exactly zero (safe for `ln`).
    #[inline]
    fn open_unit_f64(&mut self) -> f64 {
        loop {
            let u = self.unit_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit_f64()
    }

    /// Uniform integer in `[0, n)` via Lemire's unbiased method.
    #[inline]
    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // 128-bit multiply rejection sampling.
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(n);
            let low = m as u64;
            if low >= n {
                return (m >> 64) as u64;
            }
            // Threshold test for the rare biased region.
            let threshold = n.wrapping_neg() % n;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    fn coin(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Exponential with the given mean (inverse-CDF).
    #[inline]
    fn exp_mean(&mut self, mean: f64) -> f64 {
        -mean * self.open_unit_f64().ln()
    }

    /// Standard normal via Box–Muller (one value per call; simple and
    /// stateless, which keeps streams splittable).
    #[inline]
    fn std_normal(&mut self) -> f64 {
        let u1 = self.open_unit_f64();
        let u2 = self.unit_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with given mean and standard deviation.
    #[inline]
    fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.std_normal()
    }

    /// Lognormal parameterised by the mean and standard deviation of the
    /// *resulting* distribution (not of the underlying normal) — the natural
    /// way to specify call holding times.
    #[inline]
    fn lognormal_mean_sd(&mut self, mean: f64, sd: f64) -> f64 {
        assert!(mean > 0.0, "lognormal mean must be positive");
        let cv2 = (sd / mean).powi(2);
        let sigma2 = (1.0 + cv2).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        (mu + sigma2.sqrt() * self.std_normal()).exp()
    }

    /// Poisson-distributed count with the given mean (Knuth for small
    /// means, normal approximation above 64).
    #[inline]
    fn poisson(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        if mean > 64.0 {
            let x = self.normal(mean, mean.sqrt()).round();
            return if x < 0.0 { 0 } else { x as u64 };
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.unit_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
}

impl Distributions for StreamRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = StreamRng::seed_from_u64(42);
        let mut b = StreamRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StreamRng::seed_from_u64(1);
        let mut b = StreamRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_raw() == b.next_raw()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn named_streams_are_independent_and_stable() {
        let f = RngStream::new(7);
        let x1: Vec<u64> = {
            let mut r = f.stream("arrivals");
            (0..8).map(|_| r.next_raw()).collect()
        };
        let x2: Vec<u64> = {
            let mut r = f.stream("arrivals");
            (0..8).map(|_| r.next_raw()).collect()
        };
        let y: Vec<u64> = {
            let mut r = f.stream("network");
            (0..8).map(|_| r.next_raw()).collect()
        };
        assert_eq!(x1, x2, "same label, same stream");
        assert_ne!(x1, y, "different labels, different streams");
        let z: Vec<u64> = {
            let mut r = f.indexed("rep", 3);
            (0..8).map(|_| r.next_raw()).collect()
        };
        let z2: Vec<u64> = {
            let mut r = f.indexed("rep", 4);
            (0..8).map(|_| r.next_raw()).collect()
        };
        assert_ne!(z, z2, "different indices, different streams");
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = StreamRng::seed_from_u64(9);
        for _ in 0..100_000 {
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn unit_f64_mean_is_half() {
        let mut r = StreamRng::seed_from_u64(3);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.unit_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean={mean}");
    }

    #[test]
    fn exponential_mean_and_positivity() {
        let mut r = StreamRng::seed_from_u64(11);
        let target = 120.0;
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.exp_mean(target);
            assert!(x > 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - target).abs() / target < 0.02, "mean={mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = StreamRng::seed_from_u64(13);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn lognormal_moments() {
        let mut r = StreamRng::seed_from_u64(17);
        let n = 300_000;
        let xs: Vec<f64> = (0..n).map(|_| r.lognormal_mean_sd(180.0, 60.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!(xs.iter().all(|&x| x > 0.0));
        assert!((mean - 180.0).abs() / 180.0 < 0.02, "mean={mean}");
    }

    #[test]
    fn poisson_mean_small_and_large() {
        let mut r = StreamRng::seed_from_u64(19);
        for &lambda in &[0.5, 4.0, 30.0, 200.0] {
            let n = 50_000;
            let mean = (0..n).map(|_| r.poisson(lambda) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() / lambda < 0.05,
                "lambda={lambda} mean={mean}"
            );
        }
        assert_eq!(r.poisson(0.0), 0);
        assert_eq!(r.poisson(-1.0), 0);
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = StreamRng::seed_from_u64(23);
        let n = 120_000;
        let mut buckets = [0u32; 6];
        for _ in 0..n {
            let x = r.below(6);
            assert!(x < 6);
            buckets[x as usize] += 1;
        }
        for &b in &buckets {
            let expect = n as f64 / 6.0;
            assert!((f64::from(b) - expect).abs() / expect < 0.05);
        }
    }

    #[test]
    fn coin_probability() {
        let mut r = StreamRng::seed_from_u64(29);
        let n = 100_000;
        let heads = (0..n).filter(|_| r.coin(0.3)).count();
        let frac = heads as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac={frac}");
        assert_eq!((0..100).filter(|_| r.coin(0.0)).count(), 0);
        assert_eq!((0..100).filter(|_| r.coin(1.0)).count(), 100);
    }

    #[test]
    fn stream_seed_is_deterministic_and_distinct() {
        assert_eq!(stream_seed(2015, 3), stream_seed(2015, 3));
        let mut seen = std::collections::BTreeSet::new();
        for rep in 0..1000u64 {
            assert!(seen.insert(stream_seed(2015, rep)), "collision at {rep}");
        }
        assert_ne!(stream_seed(2015, 0), stream_seed(2016, 0));
    }

    #[test]
    fn stream_seed_avalanches_across_reps() {
        // The point of the helper: adjacent replication indices must not
        // leave bit structure in the derived seeds. Expect close to 32 of
        // 64 bits to flip between consecutive reps — the old
        // `seed ^ rep * GOLDEN` derivation leaves far fewer in the low
        // bits and perfectly correlated high bits.
        let mut total = 0u32;
        let n = 256u64;
        for rep in 0..n {
            total += (stream_seed(99, rep) ^ stream_seed(99, rep + 1)).count_ones();
        }
        let mean = f64::from(total) / n as f64;
        assert!((mean - 32.0).abs() < 2.0, "mean flips {mean}");
    }
}
