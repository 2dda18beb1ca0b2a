//! The overload-control campaign: every admission law, swept through
//! deep overload.
//!
//! Classic SIP overload studies (Hilt & Widjaja; Shen, Schulzrinne &
//! Nahum) compare control algorithms by driving a server from below its
//! engineered load to several multiples of it and plotting *goodput
//! versus offered load*: an uncontrolled server's goodput collapses past
//! the knee, a well-controlled one holds it flat. This module runs that
//! exact protocol on the simulated testbed — one curve per
//! [`ControlLaw`] (plus the uncontrolled baseline), each point one
//! deterministic run at a multiple of the pool's engineered capacity,
//! with a flash crowd layered on top so the controls are measured
//! through their transient, not just in equilibrium.
//!
//! "Engineered capacity" is the Erlang-B inverse: the offered load at
//! which the channel pool blocks 1% of calls
//! ([`teletraffic::erlang_b::load_for`]). Sweeping multipliers of that
//! anchor makes curves comparable across pool sizes.

use crate::experiment::{EmpiricalConfig, MediaMode};
use crate::sweep;
use des::SimDuration;
use faults::{FaultKind, FaultSchedule};
use loadgen::{HoldingDist, RetryPolicy};
use overload::ControlLaw;
use serde::Serialize;

/// Campaign-wide knobs; the per-cell physics comes from
/// [`EmpiricalConfig::smoke`] scaled by these.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Channel pool of the server under test.
    pub channels: u32,
    /// Mean holding time in seconds (fixed distribution).
    pub holding_s: f64,
    /// Placement window per cell in seconds.
    pub placement_window_s: f64,
    /// Offered-load multipliers of engineered capacity to sweep.
    pub multipliers: Vec<f64>,
    /// Flash-crowd arrival multiplier layered onto every cell.
    pub flash_multiplier: f64,
    /// Flash-crowd duration in seconds.
    pub flash_duration_s: f64,
    /// Distinct registered users per side.
    pub user_pool: u32,
    /// Media plane for the cells (`Off` keeps the sweep fast; the
    /// admission physics is in the signalling plane).
    pub media: MediaMode,
    /// Master seed; every cell derives its own via [`des::stream_seed`].
    pub seed: u64,
}

impl CampaignConfig {
    /// The full evaluation sweep: a 60-channel pool driven at 0.5×–4×
    /// engineered capacity with an 8× flash crowd mid-window.
    #[must_use]
    pub fn evaluation_default(seed: u64) -> Self {
        CampaignConfig {
            channels: 60,
            holding_s: 30.0,
            placement_window_s: 300.0,
            multipliers: vec![0.5, 1.0, 1.5, 2.0, 3.0, 4.0],
            flash_multiplier: 8.0,
            flash_duration_s: 20.0,
            user_pool: 100,
            media: MediaMode::Off,
            seed,
        }
    }

    /// A tiny cell that sweeps the same multiplier range in well under a
    /// second — the CI smoke configuration.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        CampaignConfig {
            channels: 10,
            holding_s: 10.0,
            placement_window_s: 60.0,
            multipliers: vec![0.5, 1.0, 2.0, 4.0],
            flash_multiplier: 6.0,
            flash_duration_s: 10.0,
            user_pool: 30,
            media: MediaMode::Off,
            seed,
        }
    }

    /// Engineered capacity: the load this pool carries at 1 % blocking
    /// (memoized process-wide), the unit of the swept multipliers.
    #[must_use]
    pub fn engineered_erlangs(&self) -> f64 {
        teletraffic::erlang_b::shared_load_for(self.channels, 0.01)
            .map(|e| e.value())
            .unwrap_or(f64::from(self.channels))
    }

    /// The algorithms under comparison: the uncontrolled baseline plus
    /// every law in the [`overload`] suite, feedback laws sized to this
    /// campaign's engineered capacity.
    #[must_use]
    pub fn algorithms(&self, engineered_erlangs: f64) -> Vec<(String, Option<ControlLaw>)> {
        let capacity_cps = engineered_erlangs / self.holding_s;
        let laws = [
            ControlLaw::hysteresis_default(),
            ControlLaw::rate_based_for(capacity_cps),
            ControlLaw::window_based_for(self.channels),
            ControlLaw::signal_based_default(),
            ControlLaw::mos_cac_default(),
        ];
        let mut out = vec![("none".to_owned(), None)];
        out.extend(laws.map(|law| (law.name().to_owned(), Some(law))));
        out
    }
}

/// One swept point of one algorithm's curve.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignPoint {
    /// Offered load as a multiple of engineered capacity.
    pub multiplier: f64,
    /// Offered load in Erlangs.
    pub offered_erlangs: f64,
    /// Offered call rate (calls/second).
    pub offered_cps: f64,
    /// Goodput rate over the placement window (full conversations
    /// carried per second) — the figure-of-merit axis.
    pub goodput_cps: f64,
    /// Calls attempted.
    pub attempted: u64,
    /// Full conversations carried (first try or after backoff).
    pub goodput: u64,
    /// Calls shed by the admission law.
    pub shed: u64,
    /// Calls hard-blocked (no channel, no law engaged).
    pub blocked: u64,
    /// Shed calls that completed after backoff.
    pub shed_then_ok: u64,
    /// Physics digest of the underlying run (reproducibility receipt).
    pub digest: u64,
}

/// The goodput-vs-offered-load curve of one algorithm.
#[derive(Debug, Clone, Serialize)]
pub struct AlgorithmCurve {
    /// Algorithm name (`"none"` or a [`ControlLaw::name`]).
    pub algorithm: String,
    /// One point per swept multiplier, in sweep order.
    pub points: Vec<CampaignPoint>,
}

/// A complete campaign result.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignResult {
    /// Channel pool of the server under test.
    pub channels: u32,
    /// Engineered capacity in Erlangs (1% Erlang-B blocking).
    pub engineered_erlangs: f64,
    /// Flash-crowd multiplier applied to every cell.
    pub flash_multiplier: f64,
    /// One curve per algorithm.
    pub curves: Vec<AlgorithmCurve>,
}

/// Build the [`EmpiricalConfig`] for one campaign cell offering
/// `erlangs` under `law` (seeded with the campaign seed; `run_campaign`
/// re-seeds each cell from its grid position).
#[must_use]
pub fn cell_config(cc: &CampaignConfig, erlangs: f64, law: Option<ControlLaw>) -> EmpiricalConfig {
    let mut cfg = EmpiricalConfig::smoke(cc.seed);
    cfg.erlangs = erlangs;
    cfg.channels = cc.channels;
    cfg.holding = HoldingDist::Fixed(cc.holding_s);
    cfg.placement_window_s = cc.placement_window_s;
    cfg.user_pool = cc.user_pool;
    cfg.media = cc.media;
    cfg.overload_law = law;
    // Shed callers retry with capped exponential backoff — the campaign
    // measures controlled retry behaviour, not caller abandonment.
    cfg.retry = Some(RetryPolicy {
        max_retries: 4,
        base_backoff: SimDuration::from_secs(2),
        max_backoff: SimDuration::from_secs(16),
    });
    // A flash crowd a third of the way in, so every curve includes the
    // control's transient response, not just its steady state.
    cfg.faults = FaultSchedule::new().at(
        cc.placement_window_s / 3.0,
        FaultKind::FlashCrowd {
            rate_multiplier: cc.flash_multiplier,
            duration: SimDuration::from_secs_f64(cc.flash_duration_s),
        },
    );
    cfg
}

/// Run the campaign: every algorithm × every multiplier, the whole grid
/// fanned out through the shared-cursor executor ([`crate::sweep`]),
/// each cell a pure function of `(seed, algorithm, multiplier)` collected
/// back into curve order.
#[must_use]
pub fn run_campaign(cc: &CampaignConfig) -> CampaignResult {
    let engineered = cc.engineered_erlangs();
    let algorithms = cc.algorithms(engineered);
    let n_mult = cc.multipliers.len();
    // One grid cell per (algorithm, multiplier), flat index ai·n_mult + mi,
    // one replication each; heavier multipliers cost proportionally more
    // events, which the cost model picks up from the cell's own config.
    let offered = |cell: usize| engineered * cc.multipliers[cell % n_mult];
    let mut points = sweep::run_grid(
        algorithms.len() * n_mult,
        1,
        cc.seed,
        |cell, _, _| {
            let (ai, mi) = (cell / n_mult, cell % n_mult);
            let mut cfg = cell_config(cc, offered(cell), algorithms[ai].1);
            // Decorrelate cells without losing reproducibility: the cell
            // seed is a pure function of the campaign seed and the
            // cell's grid position.
            cfg.seed = des::stream_seed(cc.seed, (ai * 1000 + mi) as u64);
            cfg
        },
        |cell, r| CampaignPoint {
            multiplier: cc.multipliers[cell % n_mult],
            offered_erlangs: offered(cell),
            offered_cps: offered(cell) / cc.holding_s,
            goodput_cps: r.goodput as f64 / cc.placement_window_s,
            attempted: r.attempted,
            goodput: r.goodput,
            shed: r.shed,
            blocked: r.blocked,
            shed_then_ok: r.shed_then_ok,
            digest: r.digest(),
        },
    )
    .into_iter();
    let curves = algorithms
        .iter()
        .map(|(name, _)| AlgorithmCurve {
            algorithm: name.clone(),
            points: points.by_ref().take(n_mult).collect(),
        })
        .collect();
    CampaignResult {
        channels: cc.channels,
        engineered_erlangs: engineered,
        flash_multiplier: cc.flash_multiplier,
        curves,
    }
}

/// Render the campaign as a text figure: one goodput-vs-offered-load
/// block per algorithm.
#[must_use]
pub fn render_campaign(result: &CampaignResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Overload-control campaign — {} channels, engineered capacity {:.1} E \
         (1% GoS), {}x flash crowd in every cell",
        result.channels, result.engineered_erlangs, result.flash_multiplier
    );
    let _ = writeln!(
        out,
        "{:<14} {:>5} {:>10} {:>8} {:>9} {:>8} {:>8} {:>8}",
        "algorithm", "mult", "offered/s", "good/s", "attempted", "shed", "blocked", "retried-ok"
    );
    for curve in &result.curves {
        for p in &curve.points {
            let _ = writeln!(
                out,
                "{:<14} {:>5.1} {:>10.2} {:>8.2} {:>9} {:>8} {:>8} {:>8}",
                curve.algorithm,
                p.multiplier,
                p.offered_cps,
                p.goodput_cps,
                p.attempted,
                p.shed,
                p.blocked,
                p.shed_then_ok
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_covers_every_algorithm_and_multiplier() {
        let cc = CampaignConfig::smoke(11);
        let result = run_campaign(&cc);
        // Baseline + the full law suite.
        assert_eq!(result.curves.len(), 6);
        let names: Vec<&str> = result.curves.iter().map(|c| c.algorithm.as_str()).collect();
        assert_eq!(
            names,
            [
                "none",
                "hysteresis503",
                "rate_based",
                "window_based",
                "signal_based",
                "mos_cac"
            ]
        );
        for curve in &result.curves {
            assert_eq!(curve.points.len(), cc.multipliers.len());
            for p in &curve.points {
                assert!(p.attempted > 0, "{}: cell placed calls", curve.algorithm);
                assert!(
                    p.goodput_cps >= 0.0 && p.goodput <= p.attempted,
                    "{}: sane goodput",
                    curve.algorithm
                );
            }
        }
        // At half engineered capacity nothing should be refused, with or
        // without a law.
        for curve in &result.curves {
            let light = &curve.points[0];
            assert!(
                light.goodput > 0,
                "{}: light load carries traffic",
                curve.algorithm
            );
        }
    }

    #[test]
    fn campaign_is_reproducible_cell_for_cell() {
        let cc = CampaignConfig::smoke(29);
        let a = run_campaign(&cc);
        let b = run_campaign(&cc);
        for (ca, cb) in a.curves.iter().zip(&b.curves) {
            for (pa, pb) in ca.points.iter().zip(&cb.points) {
                assert_eq!(pa.digest, pb.digest, "{} cell digests", ca.algorithm);
            }
        }
    }
}
