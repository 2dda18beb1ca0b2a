//! Series builders for the paper's Figures 3, 6 and 7, plus the
//! fault-recovery timeline used by the robustness experiments.

use crate::experiment::{run_world, EmpiricalConfig, EmpiricalRunner};
use crate::sweep::{self, AdaptivePolicy};
use des::SimTime;
use serde::{Deserialize, Serialize};
use teletraffic::{blocking_probability, Erlangs};

/// One analytical curve of Fig. 3: `Pb%` as a function of `N` for a fixed
/// workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Curve {
    /// Workload in Erlangs.
    pub erlangs: f64,
    /// `(N, Pb%)` points.
    pub points: Vec<(u32, f64)>,
}

/// Fig. 3 — Erlang-B blocking vs channel count for workloads 20…240 E.
#[must_use]
pub fn fig3(max_channels: u32) -> Vec<Fig3Curve> {
    (1..=12)
        .map(|k| {
            let a = f64::from(k) * 20.0;
            let curve = teletraffic::erlang_b::blocking_curve(Erlangs(a), max_channels);
            Fig3Curve {
                erlangs: a,
                points: curve
                    .iter()
                    .enumerate()
                    .skip(1)
                    .map(|(n, &b)| (n as u32, b * 100.0))
                    .collect(),
            }
        })
        .collect()
}

/// One point of the Fig. 6 comparison.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Point {
    /// Offered load in Erlangs.
    pub erlangs: f64,
    /// Mean empirical blocking (%), averaged over replications.
    pub empirical_pb_pct: f64,
    /// Half-width of the 95% CI over replications (%).
    pub ci_half_width_pct: f64,
    /// Erlang-B `Pb%` at N = 160.
    pub analytic_160: f64,
    /// Erlang-B `Pb%` at N = 165.
    pub analytic_165: f64,
    /// Erlang-B `Pb%` at N = 170.
    pub analytic_170: f64,
}

/// The configuration one Fig. 6 replication runs: `signalling_only` at
/// load `a`, with the placement window extended from the paper's 180 s
/// to 600 s so the steady-state (warmup-truncated) blocking estimator is
/// apples-to-apples against the stationary Erlang-B rails. The raw
/// transient-laden measure appears in Table I exactly as the paper
/// records it.
fn fig6_cfg(a: f64, seed: u64) -> EmpiricalConfig {
    let mut cfg = EmpiricalConfig::signalling_only(a, seed);
    cfg.placement_window_s = 600.0;
    cfg
}

/// One Fig. 6 point from its replication samples (already in rep order)
/// plus the analytic rails.
fn fig6_point(a: f64, pbs: &[f64]) -> Fig6Point {
    let (mean, ci) = sweep::mean_ci(pbs);
    let rail = |channels| blocking_probability(Erlangs(a), channels) * 100.0;
    Fig6Point {
        erlangs: a,
        empirical_pb_pct: mean,
        ci_half_width_pct: ci,
        analytic_160: rail(160),
        analytic_165: rail(165),
        analytic_170: rail(170),
    }
}

/// Fig. 6 — empirical blocking vs the Erlang-B curves for N = 160/165/170.
///
/// Sweeps `loads` with `replications` independent seeded runs per point.
/// The `(load, rep)` grid fans out through the shared-cursor executor
/// ([`crate::sweep`]) on [`des::pool::total`] threads and, thanks to
/// per-run RNG streams plus index-keyed collection, produces identical
/// numbers at any thread count.
///
/// # Panics
/// With the [`ConfigError`](crate::experiment::ConfigError)'s text, if
/// [`EmpiricalConfig::validate`] refuses a load's configuration.
#[must_use]
pub fn fig6(loads: &[f64], replications: u64, base_seed: u64) -> Vec<Fig6Point> {
    let pbs = sweep::run_grid(
        loads.len(),
        replications,
        base_seed,
        |cell, _, seed| fig6_cfg(loads[cell], seed),
        |_, run| run.steady_pb * 100.0,
    )
    .unwrap_or_else(|refused| panic!("{refused}"));
    loads
        .iter()
        .enumerate()
        .map(|(cell, &a)| fig6_point(a, sweep::grid_row(&pbs, replications, cell)))
        .collect()
}

/// Adaptive-replication Fig. 6: every load point starts at
/// `policy.min_reps` replications and keeps spending — through the same
/// executor — until its 95% CI half-width (in percentage
/// points) reaches `policy.ci_target` or the point exhausts
/// `policy.max_reps`. Replication `r` of a load always runs seed
/// `stream_seed(base_seed, r)`, so the sample sets (and hence every
/// reported number) are a pure function of `(loads, policy, base_seed)`
/// at any worker count.
#[must_use]
pub fn fig6_adaptive(loads: &[f64], policy: AdaptivePolicy, base_seed: u64) -> Vec<Fig6Point> {
    let costs: Vec<u64> = loads
        .iter()
        .map(|&a| sweep::run_cost(&fig6_cfg(a, 0)))
        .collect();
    let estimates = sweep::adaptive_sweep(&costs, policy, |cell, rep| {
        let cfg = fig6_cfg(loads[cell], des::stream_seed(base_seed, rep));
        EmpiricalRunner::run(cfg).steady_pb * 100.0
    });
    loads
        .iter()
        .zip(&estimates)
        .map(|(&a, est)| fig6_point(a, &est.samples))
        .collect()
}

/// The paper's Fig. 6 x-axis: 120…260 E in steps of 10.
#[must_use]
pub fn fig6_default_loads() -> Vec<f64> {
    (12..=26).map(|k| f64::from(k) * 10.0).collect()
}

/// One curve of Fig. 7.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Curve {
    /// Mean call duration in minutes.
    pub duration_min: f64,
    /// `(population %, Pb%)` points.
    pub points: Vec<(f64, f64)>,
}

/// Fig. 7 — blocking vs percentage of a calling population, for mean call
/// durations of 2.0 / 2.5 / 3.0 minutes, N = 165 channels, population
/// 8000 (the paper's VoWiFi dimensioning study).
#[must_use]
pub fn fig7(population: u64, channels: u32) -> Vec<Fig7Curve> {
    [2.0, 2.5, 3.0]
        .iter()
        .map(|&dur| {
            let points = (1..=100)
                .map(|pct| {
                    let frac = f64::from(pct) / 100.0;
                    let a = Erlangs::from_population(population, frac, dur);
                    (f64::from(pct), blocking_probability(a, channels) * 100.0)
                })
                .collect();
            Fig7Curve {
                duration_min: dur,
                points,
            }
        })
        .collect()
}

/// Answer-rate timeline for a (usually fault-laden) run: one
/// `(second, answers)` sample per simulated second up to `horizon_s`.
/// This is the series [`crate::experiment::compute_recoveries`] scans;
/// exposed so recovery plots can show the dip-and-heal shape directly.
#[must_use]
pub fn recovery_timeline(config: EmpiricalConfig, horizon_s: f64) -> Vec<(u64, u64)> {
    let sim = run_world(config, SimTime::from_secs_f64(horizon_s));
    sim.world
        .answers_per_second()
        .iter()
        .enumerate()
        .map(|(s, &n)| (s as u64, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_has_twelve_monotone_curves() {
        let curves = fig3(260);
        assert_eq!(curves.len(), 12);
        assert_eq!(curves[0].erlangs, 20.0);
        assert_eq!(curves[11].erlangs, 240.0);
        for c in &curves {
            assert_eq!(c.points.len(), 260);
            // Non-increasing in N.
            for w in c.points.windows(2) {
                assert!(w[1].1 <= w[0].1 + 1e-9, "A={}", c.erlangs);
            }
            // Percent scale.
            assert!(c.points.iter().all(|&(_, pb)| (0.0..=100.0).contains(&pb)));
        }
        // Heavier workload blocks more at fixed N.
        let at_n150 = |c: &Fig3Curve| c.points[149].1;
        assert!(at_n150(&curves[11]) > at_n150(&curves[0]));
    }

    #[test]
    fn fig7_anchors_from_the_paper() {
        let curves = fig7(8000, 165);
        assert_eq!(curves.len(), 3);
        let at = |c: &Fig7Curve, pct: usize| c.points[pct - 1].1;
        // "With 60% of the population placing calls, 2.0 min: <5% blocked."
        assert!(
            at(&curves[0], 60) < 5.0,
            "2.0min@60% = {}",
            at(&curves[0], 60)
        );
        // "2.5 min: nearly 21%."
        assert!(
            (at(&curves[1], 60) - 21.0).abs() < 3.0,
            "2.5min@60% = {}",
            at(&curves[1], 60)
        );
        // "3.0 min: surpasses 34%."
        assert!(
            at(&curves[2], 60) > 30.0,
            "3.0min@60% = {}",
            at(&curves[2], 60)
        );
        // Longer calls always block more.
        for pct in [20usize, 40, 60, 80, 100] {
            assert!(at(&curves[0], pct) <= at(&curves[1], pct) + 1e-9);
            assert!(at(&curves[1], pct) <= at(&curves[2], pct) + 1e-9);
        }
    }

    #[test]
    fn fig6_empirical_tracks_analytic_at_small_scale() {
        // Tiny sweep (3 loads × 2 reps) to keep debug-mode runtime sane;
        // the full sweep runs in the benchmark.
        let pts = fig6(&[140.0, 200.0, 240.0], 2, 99);
        assert_eq!(pts.len(), 3);
        // At 140 E vs 165 channels there is almost no blocking.
        assert!(pts[0].empirical_pb_pct < 3.0, "{:?}", pts[0]);
        // At 240 E blocking is substantial and between the analytic rails.
        let p240 = &pts[2];
        assert!(p240.empirical_pb_pct > 15.0, "{p240:?}");
        assert!(
            p240.empirical_pb_pct > p240.analytic_170 - 12.0
                && p240.empirical_pb_pct < p240.analytic_160 + 12.0,
            "{p240:?}"
        );
        // Analytic rails are ordered: fewer channels block more.
        for p in &pts {
            assert!(p.analytic_160 >= p.analytic_165);
            assert!(p.analytic_165 >= p.analytic_170);
        }
    }

    /// Every analytic rail is the direct Erlang-B recurrence at its own
    /// load and channel count, bit for bit: the smoke run's `analytic_pb`
    /// and each Fig. 6 point's three rails. The Fig. 3 curve, one pass of
    /// the same recurrence, agrees with each point evaluation too.
    #[test]
    fn analytic_rails_are_the_direct_recurrence_bit_for_bit() {
        let smoke = EmpiricalConfig::smoke(42);
        let run = EmpiricalRunner::run(smoke.clone());
        let direct = blocking_probability(Erlangs(smoke.erlangs), smoke.channels);
        assert_eq!(run.analytic_pb.to_bits(), direct.to_bits());
        for a in fig6_default_loads() {
            let point = fig6_point(a, &[0.0, 1.0]);
            let curve = teletraffic::erlang_b::blocking_curve(Erlangs(a), 170);
            let rails = [
                (160, point.analytic_160),
                (165, point.analytic_165),
                (170, point.analytic_170),
            ];
            for (n, rail) in rails {
                let direct = blocking_probability(Erlangs(a), n);
                assert_eq!(rail.to_bits(), (direct * 100.0).to_bits(), "A={a} N={n}");
                assert_eq!(curve[n as usize].to_bits(), direct.to_bits(), "A={a} N={n}");
            }
        }
    }

    #[test]
    fn fig6_adaptive_with_loose_target_equals_fixed_min_reps() {
        // A target every cell meets immediately makes the adaptive sweep
        // spend exactly min_reps per point with the same indexed seeds —
        // so it must reproduce the fixed-replication sweep bit for bit.
        let policy = AdaptivePolicy {
            ci_target: 1.0e6,
            min_reps: 2,
            max_reps: 4,
        };
        let fixed = fig6(&[140.0, 240.0], 2, 99);
        let adaptive = fig6_adaptive(&[140.0, 240.0], policy, 99);
        assert_eq!(fixed.len(), adaptive.len());
        for (f, a) in fixed.iter().zip(&adaptive) {
            assert_eq!(f.empirical_pb_pct.to_bits(), a.empirical_pb_pct.to_bits());
            assert_eq!(f.ci_half_width_pct.to_bits(), a.ci_half_width_pct.to_bits());
            assert_eq!(f.analytic_165.to_bits(), a.analytic_165.to_bits());
        }
    }

    #[test]
    fn recovery_timeline_is_per_second_and_nonempty() {
        let mut cfg = EmpiricalConfig::smoke(9);
        cfg.media = crate::experiment::MediaMode::Off;
        let tl = recovery_timeline(cfg, 30.0);
        assert!(tl.len() >= 15, "timeline covers the window: {}", tl.len());
        assert!(tl.iter().any(|&(_, n)| n > 0), "some answers observed");
        assert!(tl.iter().enumerate().all(|(i, &(s, _))| s == i as u64));
    }

    #[test]
    fn fig6_default_axis() {
        let loads = fig6_default_loads();
        assert_eq!(loads.first(), Some(&120.0));
        assert_eq!(loads.last(), Some(&260.0));
        assert_eq!(loads.len(), 15);
    }
}
