//! The §IV call-policy study — an implemented "future work" item.
//!
//! The paper closes by proposing "an effective call policy that would
//! impose limits to the number of calls a user may place" as the way to
//! serve a large population from one server. This module quantifies that
//! proposal: sweep a per-user concurrent-call ceiling under overload and
//! measure how channel blocking, policy refusals and carried traffic
//! trade off.

use crate::experiment::{ConfigError, EmpiricalConfig};
use crate::sweep;
use serde::Serialize;

/// Result of one policy setting.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyRow {
    /// Per-user ceiling (`None` = unlimited).
    pub limit: Option<u32>,
    /// Calls that failed, % of attempts: every final error other than 486
    /// and 503 ([`crate::experiment::RunResult::failed`]). The policy's
    /// 403 refusals count here, and so would a 404, 480 or 500.
    pub failed_pct: f64,
    /// Calls blocked for lack of channels, % of attempts.
    pub channel_blocked_pct: f64,
    /// Calls completed, % of attempts.
    pub completed_pct: f64,
    /// Carried traffic in Erlangs.
    pub carried_erlangs: f64,
    /// Peak channels used.
    pub peak_channels: u32,
}

/// Sweep per-user ceilings at offered load `erlangs` with `user_pool`
/// distinct callers (so the mean per-user demand is `erlangs/user_pool`
/// concurrent calls). Each ceiling is measured over `reps` independent
/// replications (decorrelated via [`des::stream_seed`]) and the
/// percentages averaged, so adjacent rows differ by policy effect rather
/// than a single seed's arrival luck. The `(ceiling, rep)` grid fans out
/// through the shared-cursor executor ([`crate::sweep`]).
///
/// # Errors
/// The [`ConfigError`] of the first ceiling's configuration
/// [`EmpiricalConfig::validate`] refuses; nothing runs then.
pub fn policy_study(
    erlangs: f64,
    user_pool: u32,
    limits: &[Option<u32>],
    reps: u64,
    seed: u64,
) -> Result<Vec<PolicyRow>, ConfigError> {
    let reps = reps.max(1);
    let all_runs = sweep::run_grid(
        limits.len(),
        reps,
        seed,
        |cell, _, seed| policy_cfg(erlangs, user_pool, limits[cell], seed),
        |_, run| run,
    )?;
    Ok(limits
        .iter()
        .enumerate()
        .map(|(cell, &limit)| {
            let runs = sweep::grid_row(&all_runs, reps, cell);
            let n = runs.len() as f64;
            let mean = |f: &dyn Fn(&crate::experiment::RunResult) -> f64| -> f64 {
                runs.iter().map(f).sum::<f64>() / n
            };
            let pct = |x: u64, attempted: u64| x as f64 / attempted.max(1) as f64 * 100.0;
            PolicyRow {
                limit,
                failed_pct: mean(&|r| pct(r.failed, r.attempted)),
                channel_blocked_pct: mean(&|r| pct(r.blocked, r.attempted)),
                completed_pct: mean(&|r| pct(r.completed, r.attempted)),
                carried_erlangs: mean(&|r| r.carried_erlangs),
                peak_channels: runs.iter().map(|r| r.peak_channels).max().unwrap_or(0),
            }
        })
        .collect())
}

/// The configuration one policy replication runs.
fn policy_cfg(erlangs: f64, user_pool: u32, limit: Option<u32>, seed: u64) -> EmpiricalConfig {
    let mut cfg = EmpiricalConfig::signalling_only(erlangs, seed);
    cfg.user_pool = user_pool;
    cfg.max_calls_per_user = limit;
    cfg.placement_window_s = 600.0;
    cfg
}

/// Render the study as a text table.
#[must_use]
pub fn render_policy(rows: &[PolicyRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Call-policy study: per-user ceilings under overload (paper §IV proposal)"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>14} {:>16} {:>12} {:>10} {:>8}",
        "limit", "failed", "channel-blocked", "completed", "carried", "peak-N"
    );
    for r in rows {
        let limit = r.limit.map_or("none".to_owned(), |l| l.to_string());
        let _ = writeln!(
            out,
            "{:>10} {:>13.1}% {:>15.1}% {:>11.1}% {:>9.1}E {:>8}",
            limit,
            r.failed_pct,
            r.channel_blocked_pct,
            r.completed_pct,
            r.carried_erlangs,
            r.peak_channels
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_policy_replaces_channel_blocking() {
        // 30 users offered 40 E onto a 20-channel pool (2x overload, heavy
        // per-user demand of ~1.3 concurrent calls each). Kept small so the
        // debug-mode test stays fast.
        let rows = policy_study_small();
        let unlimited = &rows[0];
        let limit1 = &rows[1];
        // Unlimited: blocking comes from the channel pool.
        assert!(unlimited.channel_blocked_pct > 10.0, "{unlimited:?}");
        assert!(unlimited.failed_pct < 1.0);
        // Limit 1: the policy pre-empts most channel blocking.
        assert!(limit1.failed_pct > 10.0, "{limit1:?}");
        assert!(
            limit1.channel_blocked_pct < unlimited.channel_blocked_pct,
            "policy relieves the pool: {limit1:?} vs {unlimited:?}"
        );
        // The pool is never overfilled either way.
        assert!(unlimited.peak_channels <= 20);
        assert!(limit1.peak_channels <= 20);
    }

    fn policy_study_small() -> Vec<PolicyRow> {
        let limits = [None, Some(1)];
        limits
            .iter()
            .map(|&limit| {
                let mut cfg = crate::experiment::EmpiricalConfig::signalling_only(40.0, 3);
                cfg.channels = 20;
                cfg.user_pool = 30;
                cfg.max_calls_per_user = limit;
                cfg.holding = loadgen::HoldingDist::Exponential(30.0);
                cfg.placement_window_s = 300.0;
                let r = crate::experiment::EmpiricalRunner::run(cfg);
                let pct = |x: u64| x as f64 / r.attempted.max(1) as f64 * 100.0;
                PolicyRow {
                    limit,
                    failed_pct: pct(r.failed),
                    channel_blocked_pct: pct(r.blocked),
                    completed_pct: pct(r.completed),
                    carried_erlangs: r.carried_erlangs,
                    peak_channels: r.peak_channels,
                }
            })
            .collect()
    }

    #[test]
    fn render_contains_all_rows() {
        let rows = vec![
            PolicyRow {
                limit: None,
                failed_pct: 0.0,
                channel_blocked_pct: 19.0,
                completed_pct: 81.0,
                carried_erlangs: 160.0,
                peak_channels: 165,
            },
            PolicyRow {
                limit: Some(2),
                failed_pct: 12.0,
                channel_blocked_pct: 5.0,
                completed_pct: 83.0,
                carried_erlangs: 150.0,
                peak_channels: 165,
            },
        ];
        let text = render_policy(&rows);
        assert!(text.contains("none"));
        assert!(text.contains("2"));
        assert!(text.contains("19.0%"));
        assert!(text.lines().count() >= 4);
    }
}
