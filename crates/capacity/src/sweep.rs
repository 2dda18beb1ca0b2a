//! The sweep plane: one shared-cursor executor for campaign-scale
//! studies.
//!
//! The paper's headline artifacts are *sweeps* — Fig. 6 blocking-vs-load
//! over replications, the §V capacity-planning grids — and a sweep is a
//! bag of independent `(cell, replication)` tasks, each a pure function
//! of its indexed seed. This module runs that bag on
//! `min(`[`des::pool::total`]`(), tasks)` threads, the caller among them:
//!
//! * **Longest first** — the task indices are sorted by expected cost,
//!   largest first, and every worker claims the next index from one
//!   shared atomic cursor. Long cells start first, short cells backfill,
//!   and no worker idles while work remains (greedy list scheduling).
//! * **Deterministic** — every result lands in a slot keyed by its task
//!   index, and aggregation happens in index order after the join, so
//!   means, CI half-widths and report text are byte-identical to the
//!   sequential `map` at any worker count and any completion order.
//!
//! Workers share nothing but the cursor and the result slots: each
//! replication builds its own world, user interners and analytic rails
//! from its own configuration, so no lock sits between two tasks. The
//! adaptive mode ([`adaptive_sweep`]) adds a sequential stopping rule on
//! indexed seeds so sweeps stop spending replications where the estimate
//! has already converged.

use crate::experiment::{ConfigError, EmpiricalConfig, EmpiricalRunner, RunResult};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One schedulable unit of a sweep: replication `rep` of sweep cell
/// `cell`, with an expected-work estimate used for longest-first
/// ordering. Cost only influences scheduling order, never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepTask {
    /// Sweep-cell index (a load point, an algorithm × multiplier pair, a
    /// farm layout…) — whatever the caller is sweeping.
    pub cell: usize,
    /// Replication index within the cell; combined with the sweep seed
    /// via [`des::stream_seed`] by the caller, so `(cell, rep)` names the
    /// run regardless of which worker executes it.
    pub rep: u64,
    /// Expected work (arbitrary units, larger = scheduled earlier).
    pub cost: u64,
}

/// Expected-work estimate for one replication of `cfg`, in
/// pending-events × simulated-seconds units: the same
/// [`EmpiricalConfig::expected_pending_events`] model that pre-sizes the
/// scheduler, scaled by the placement window. Heavier loads and longer
/// windows sort first so they cannot become the straggler tail of the
/// sweep.
#[must_use]
pub fn run_cost(cfg: &EmpiricalConfig) -> u64 {
    let window = cfg.placement_window_s.max(1.0) as u64;
    cfg.expected_pending_events() as u64 * window
}

/// Whether sweeps print per-cell progress lines (the `--progress` CLI
/// flag). Off by default.
static SHOW_PROGRESS: AtomicBool = AtomicBool::new(false);

/// Print one **stderr** line per finished sweep cell from now on (stdout
/// stays clean for `--json` pipelines): [`run_sweep`] announces a cell
/// when its last task in the batch lands, [`adaptive_sweep`] when the
/// stopping rule retires it. Lines never change a result.
pub fn show_progress(on: bool) {
    SHOW_PROGRESS.store(on, Ordering::Relaxed);
}

/// Run every task on up to [`des::pool::total`] threads and return
/// results **in task order**.
///
/// Tasks are claimed longest-expected-first from one shared cursor, but
/// each result is written to the slot keyed by its task index, so the
/// returned vector — and anything folded from it in order — is
/// byte-identical to `tasks.iter().map(f)` on one thread regardless of
/// thread count or completion order (`tests/sweep_determinism.rs`
/// propchecks exactly that).
pub fn run_sweep<T, F>(tasks: &[SweepTask], f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(SweepTask) -> T + Sync,
{
    execute(tasks, f, SHOW_PROGRESS.load(Ordering::Relaxed))
}

/// [`run_sweep`], announcing each cell's last landed task when `announce`.
fn execute<T, F>(tasks: &[SweepTask], f: F, announce: bool) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(SweepTask) -> T + Sync,
{
    let n = tasks.len();
    // Per-cell tasks still outstanding in this batch, counted only when
    // the cells are announced.
    let mut counts = Vec::new();
    if announce {
        for t in tasks {
            if counts.len() <= t.cell {
                counts.resize(t.cell + 1, 0);
            }
            counts[t.cell] += 1;
        }
    }
    let cells = counts.iter().filter(|&&c| c > 0).count();
    let left: Vec<AtomicUsize> = counts.into_iter().map(AtomicUsize::new).collect();
    let cells_done = AtomicUsize::new(0);
    let run = |t: SweepTask| {
        let r = f(t);
        if announce && left[t.cell].fetch_sub(1, Ordering::Relaxed) == 1 {
            let done = cells_done.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!("sweep: cell {} done — {done}/{cells} cells", t.cell);
        }
        r
    };

    let workers = des::pool::total().min(n);
    if workers <= 1 {
        return tasks.iter().map(|&t| run(t)).collect();
    }
    // Longest-expected-first, index-tiebroken so the claim order is a
    // pure function of the task list.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(tasks[i].cost), i));
    // Relaxed: the cursor publishes no data. Each slot's `OnceLock` and
    // the scope's join order the results.
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let worker = || {
        while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let stored = slots[i].set(run(tasks[i])).is_ok();
            assert!(stored, "sweep task {i} claimed twice");
        }
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(worker);
        }
        // The calling thread is worker 0.
        worker();
    });
    slots
        .into_iter()
        .map(|c| c.into_inner().expect("every task ran"))
        .collect()
}

/// Run a `cells × reps` study grid through [`run_sweep`]: one
/// [`EmpiricalRunner::run`] of `config(cell, rep, seed)` per task, folded
/// by `measure(cell, result)` on the worker that ran it. Replication `rep`
/// is handed `seed = stream_seed(base_seed, rep)` (a caller with its own
/// seeding rule — the campaign — ignores it); a cell's scheduling cost is
/// [`run_cost`] of its replication-0 configuration.
///
/// Before any task runs, every cell's replication-0 configuration must
/// pass [`EmpiricalConfig::validate`]; the first [`ConfigError`] is
/// returned instead of a sweep that panics part-way.
///
/// Cell-major task order: cell `c`'s `reps` measurements are the
/// contiguous slice [`grid_row`] returns, in replication order, at any
/// worker count. (One flat vector on purpose: regrouping into a `Vec` per
/// cell left `overload_campaign`'s resident set 0.7 MiB higher.)
pub fn run_grid<T, C, M>(
    cells: usize,
    reps: u64,
    base_seed: u64,
    config: C,
    measure: M,
) -> Result<Vec<T>, ConfigError>
where
    T: Send + Sync,
    C: Fn(usize, u64, u64) -> EmpiricalConfig + Sync,
    M: Fn(usize, RunResult) -> T + Sync,
{
    let cfg = |cell, rep| config(cell, rep, des::stream_seed(base_seed, rep));
    let mut tasks = Vec::new();
    for cell in 0..cells {
        let first = cfg(cell, 0);
        first.validate()?;
        let cost = run_cost(&first);
        tasks.extend((0..reps).map(|rep| SweepTask { cell, rep, cost }));
    }
    let run = |t: SweepTask| measure(t.cell, EmpiricalRunner::run(cfg(t.cell, t.rep)));
    Ok(run_sweep(&tasks, run))
}

/// Cell `cell`'s measurements in a [`run_grid`] result of `reps`
/// replications per cell.
#[must_use]
pub fn grid_row<T>(results: &[T], reps: u64, cell: usize) -> &[T] {
    let reps = reps as usize;
    &results[cell * reps..(cell + 1) * reps]
}

/// Mean and 95% CI half-width over `samples` (index order, so the fold
/// is bitwise-deterministic). The half-width is the normal approximation
/// `1.96 · s/√n` (z = 1.96 at every `n`; Student's t would be 2.776 at
/// n = 5), and `NaN` below two samples — the same convention Fig. 6 has
/// always used.
#[must_use]
pub fn mean_ci(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, f64::NAN);
    }
    let var = samples.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, 1.96 * (var / n).sqrt())
}

/// The sequential stopping rule for adaptive replication: spend
/// replications on a cell until its 95% CI half-width reaches
/// `ci_target` (same units as the sampled statistic), bounded by
/// `min_reps`/`max_reps`.
#[derive(Debug, Clone, Copy)]
pub struct AdaptivePolicy {
    /// Stop once the CI half-width is at or below this (absolute, in the
    /// statistic's units — percentage points for Fig. 6 blocking).
    pub ci_target: f64,
    /// Replications every cell gets before the rule is consulted (≥ 2,
    /// so a half-width exists).
    pub min_reps: u64,
    /// Hard per-cell budget: a cell that has not converged by here is
    /// reported as-is, `converged: false`.
    pub max_reps: u64,
}

impl AdaptivePolicy {
    fn clamped(self) -> Self {
        let min_reps = self.min_reps.max(2);
        AdaptivePolicy {
            ci_target: self.ci_target.max(0.0),
            min_reps,
            max_reps: self.max_reps.max(min_reps),
        }
    }
}

/// One cell's adaptive estimate.
#[derive(Debug, Clone)]
pub struct CellEstimate {
    /// Every sampled statistic, in replication order (replication `r`
    /// always used seed index `r`, so this vector is a pure function of
    /// the cell — not of scheduling).
    pub samples: Vec<f64>,
    /// Mean over [`CellEstimate::samples`].
    pub mean: f64,
    /// 95% CI half-width over the samples.
    pub ci_half_width: f64,
    /// Whether the stopping rule was satisfied (false = the cell hit
    /// `max_reps` still wide).
    pub converged: bool,
}

/// Run an adaptive sweep: every cell starts with `policy.min_reps`
/// replications; after each round the stopping rule retires converged
/// cells and doubles-down on the rest, until all cells converge or
/// exhaust `policy.max_reps`. Rounds are barriers: the decision which
/// `(cell, rep)` tasks exist next depends only on completed samples, and
/// samples are keyed by replication index — so the whole procedure,
/// including every intermediate batch, is a pure function of
/// `(cells, policy, sample)` at any worker count.
///
/// `sample(cell, rep)` must be a pure function of its arguments (derive
/// the run seed with [`des::stream_seed`] from the sweep seed and a
/// cell-indexed stream).
pub fn adaptive_sweep<F>(cell_costs: &[u64], policy: AdaptivePolicy, sample: F) -> Vec<CellEstimate>
where
    F: Fn(usize, u64) -> f64 + Sync,
{
    let policy = policy.clamped();
    let n_cells = cell_costs.len();
    let mut cells: Vec<CellEstimate> = (0..n_cells)
        .map(|_| CellEstimate {
            samples: Vec::new(),
            mean: f64::NAN,
            ci_half_width: f64::NAN,
            converged: false,
        })
        .collect();
    // (cell, batch size) still in play this round.
    let mut active: Vec<(usize, u64)> = (0..n_cells).map(|c| (c, policy.min_reps)).collect();
    let mut stopped = 0;
    while !active.is_empty() {
        let mut tasks = Vec::new();
        for &(cell, batch) in &active {
            let done = cells[cell].samples.len() as u64;
            for rep in done..done + batch {
                tasks.push(SweepTask {
                    cell,
                    rep,
                    cost: cell_costs[cell],
                });
            }
        }
        let results = execute(&tasks, |t| sample(t.cell, t.rep), false);
        // Tasks were built cell-ascending, rep-ascending; appending in
        // task order keeps every samples vector in replication order.
        for (t, s) in tasks.iter().zip(results) {
            cells[t.cell].samples.push(s);
        }
        let mut next = Vec::new();
        for (cell, _) in active {
            let est = &mut cells[cell];
            let (mean, hw) = mean_ci(&est.samples);
            est.mean = mean;
            est.ci_half_width = hw;
            let spent = est.samples.len() as u64;
            est.converged = hw.is_finite() && hw <= policy.ci_target;
            if est.converged || spent >= policy.max_reps {
                stopped += 1;
                if SHOW_PROGRESS.load(Ordering::Relaxed) {
                    let why = if est.converged {
                        "converged"
                    } else {
                        "at budget"
                    };
                    eprintln!(
                        "sweep: cell {cell} {why} after {spent} reps — {stopped}/{n_cells} cells"
                    );
                }
            } else {
                // Double down, but never past the budget: half the spent
                // count again (CI shrinks like 1/√n, so halving the
                // half-width needs ~4× the samples — growing in ~1.5×
                // steps converges in a handful of rounds without big
                // overshoot).
                let grow = (spent / 2).max(2).min(policy.max_reps - spent);
                next.push((cell, grow));
            }
        }
        active = next;
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Costs rise with the cell index, so the longest-first claim order
    /// runs against task order and a result filed by claim position
    /// instead of task index cannot pass.
    fn tasks(n: usize, reps: u64) -> Vec<SweepTask> {
        (0..n)
            .flat_map(|cell| {
                (0..reps).map(move |rep| SweepTask {
                    cell,
                    rep,
                    cost: cell as u64,
                })
            })
            .collect()
    }

    #[test]
    fn executor_matches_reference_at_every_width() {
        let _guard = des::pool::test_guard();
        let ts = tasks(5, 4);
        let f = |t: SweepTask| t.cell as u64 * 1000 + t.rep * 7 + t.cost;
        let want: Vec<u64> = ts.iter().map(|&t| f(t)).collect();
        for w in [1usize, 2, 4, 8] {
            des::pool::configure(w);
            assert_eq!(run_sweep(&ts, f), want, "width {w}");
        }
    }

    #[test]
    fn empty_sweep_is_fine() {
        let got: Vec<u64> = run_sweep(&[], |_| unreachable!());
        assert!(got.is_empty());
    }

    #[test]
    fn grid_rows_are_cell_major_and_seeded_by_replication() {
        let _guard = des::pool::test_guard();
        // A tiny signalling-only cell whose offered load names (cell, rep).
        let config = |cell: usize, rep: u64, seed: u64| {
            assert_eq!(seed, des::stream_seed(77, rep), "cell {cell} rep {rep}");
            let mut cfg = EmpiricalConfig::smoke(seed);
            cfg.media = crate::experiment::MediaMode::Off;
            cfg.placement_window_s = 2.0;
            cfg.erlangs = (10 * cell + 1) as f64 + rep as f64;
            cfg
        };
        for width in [1, 4] {
            des::pool::configure(width);
            let got = run_grid(3, 2, 77, config, |cell, run| (cell, run.erlangs)).unwrap();
            for cell in 0..3 {
                let first = (10 * cell + 1) as f64;
                let want = [(cell, first), (cell, first + 1.0)];
                assert_eq!(grid_row(&got, 2, cell), want, "width {width}");
            }
        }
    }

    #[test]
    fn grid_refuses_an_invalid_cell_before_running_any() {
        let config = |cell: usize, _, seed| {
            let mut cfg = EmpiricalConfig::smoke(seed);
            cfg.erlangs = if cell == 1 { 0.0 } else { 1.0 };
            cfg
        };
        let refused: Result<Vec<()>, _> =
            run_grid(2, 3, 7, config, |_, _| unreachable!("no cell runs"));
        let message = refused.unwrap_err().to_string();
        assert_eq!(message, "offered load 0.0 E must be finite and > 0");
    }

    #[test]
    fn mean_ci_matches_fig6_formula() {
        let (m, hw) = mean_ci(&[1.0, 2.0, 3.0, 4.0]);
        assert!((m - 2.5).abs() < 1e-12);
        // var = 5/3, hw = 1.96 * sqrt(var/4).
        let want = 1.96 * (5.0 / 3.0 / 4.0_f64).sqrt();
        assert!((hw - want).abs() < 1e-12);
        let (m1, hw1) = mean_ci(&[7.0]);
        assert!((m1 - 7.0).abs() < 1e-12 && hw1.is_nan());
        let (m0, hw0) = mean_ci(&[]);
        assert!(m0.is_nan() && hw0.is_nan());
    }

    #[test]
    fn adaptive_stops_early_on_tight_cells_and_caps_wide_ones() {
        let _guard = des::pool::test_guard();
        des::pool::configure(4);
        let policy = AdaptivePolicy {
            ci_target: 0.5,
            min_reps: 3,
            max_reps: 12,
        };
        // Cell 0: constant statistic — converges at min_reps with hw 0.
        // Cell 1: alternating ±10 — can never reach hw ≤ 0.5 by rep 12.
        let est = adaptive_sweep(&[10, 10], policy, |cell, rep| {
            if cell == 0 {
                42.0
            } else if rep % 2 == 0 {
                10.0
            } else {
                -10.0
            }
        });
        assert_eq!(est[0].samples.len(), 3);
        assert!(est[0].converged && est[0].ci_half_width <= 0.5);
        assert!((est[0].mean - 42.0).abs() < 1e-12);
        assert_eq!(est[1].samples.len(), 12, "capped at max_reps");
        assert!(!est[1].converged);
    }

    #[test]
    fn adaptive_is_width_invariant() {
        let _guard = des::pool::test_guard();
        let policy = AdaptivePolicy {
            ci_target: 1.0,
            min_reps: 2,
            max_reps: 20,
        };
        // A deterministic pseudo-noisy statistic: variance shrinks as
        // reps accumulate, so cells converge at different rep counts.
        let sample = |cell: usize, rep: u64| {
            let x = des::stream_seed(cell as u64 + 1, rep) % 1000;
            x as f64 / 100.0
        };
        des::pool::configure(1);
        let seq = adaptive_sweep(&[3, 2, 1], policy, sample);
        for w in [2usize, 4, 8] {
            des::pool::configure(w);
            let par = adaptive_sweep(&[3, 2, 1], policy, sample);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.samples, b.samples, "width {w}");
                assert_eq!(a.mean.to_bits(), b.mean.to_bits());
                assert_eq!(a.ci_half_width.to_bits(), b.ci_half_width.to_bits());
                assert_eq!(a.converged, b.converged);
            }
        }
    }

    #[test]
    fn run_cost_scales_with_load_and_window() {
        let small = EmpiricalConfig::signalling_only(120.0, 1);
        let big = EmpiricalConfig::signalling_only(260.0, 1);
        assert!(run_cost(&big) > run_cost(&small));
        let mut long = EmpiricalConfig::signalling_only(120.0, 1);
        long.placement_window_s *= 4.0;
        assert!(run_cost(&long) > run_cost(&small));
    }
}
