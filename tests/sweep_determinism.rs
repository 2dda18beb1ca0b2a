//! Property tests for the campaign-scale sweep executor: aggregation
//! (per-cell means, CI half-widths, report ordering) must be
//! bit-identical across 1/2/4/8 executor workers and across task
//! completion orders. Workers claim tasks longest-first from one shared
//! cursor and the executor keys every result slot by task index, so
//! neither the worker count nor the claim/completion schedule may leak
//! into what the caller observes — including for cells whose physics are
//! perturbed by a mid-window fault schedule, and for two sweeps running
//! at once.

use capacity::experiment::{EmpiricalConfig, EmpiricalRunner, MediaMode};
use capacity::sweep::{mean_ci, run_sweep, SweepTask};
use faults::{FaultKind, FaultSchedule};
use proptest::prelude::*;
use proptest::sample::select;

/// splitmix64 — a cheap, deterministic stand-in workload so the pure
/// executor property can afford thousands of tasks per case.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A small signalling-only cell cheap enough for debug-build proptest
/// cases; `faulted` adds a flash crowd erupting mid-window, so one cell
/// of the sweep exercises the fault-schedule plumbing.
fn sweep_cfg(seed: u64, erlangs: f64, faulted: bool) -> EmpiricalConfig {
    let mut cfg = EmpiricalConfig::signalling_only(erlangs, seed);
    cfg.media = MediaMode::Off;
    cfg.placement_window_s = 6.0;
    cfg.channels = 12;
    if faulted {
        cfg.faults = FaultSchedule::new().at(
            3.0,
            FaultKind::FlashCrowd {
                rate_multiplier: 3.0,
                duration: des::SimDuration::from_secs_f64(2.0),
            },
        );
    }
    cfg
}

proptest! {
    /// Pure-function workload: the parallel executor must return the
    /// exact `Vec` a sequential `map` over the tasks produces, at every
    /// pool width, and independently of the cost model — costs only steer
    /// scheduling (hence completion order), never results. Rotating the
    /// costs across tasks forces a different longest-expected-first
    /// claim order on the same task set.
    #[test]
    fn executor_results_are_independent_of_width_and_completion_order(
        seed in 0u64..1_000_000,
        cells in 1usize..7,
        reps in 1u64..6,
        cost_salt in 0u64..1_000_000,
        width in select(vec![1usize, 2, 4, 8]),
    ) {
        let tasks: Vec<SweepTask> = (0..cells)
            .flat_map(|cell| (0..reps).map(move |rep| SweepTask {
                cell,
                rep,
                cost: mix(cost_salt ^ ((cell as u64) << 32) ^ rep) % 1_000,
            }))
            .collect();
        let work = |t: SweepTask| mix(seed ^ ((t.cell as u64) << 40) ^ t.rep);
        let expect: Vec<u64> = tasks.iter().map(|&t| work(t)).collect();

        let _g = des::pool::test_guard();
        des::pool::configure(width);
        prop_assert_eq!(run_sweep(&tasks, work), expect.clone());

        // Same tasks, rotated costs: a different execution order must
        // collapse to the same index-keyed result vector.
        let n = tasks.len();
        let rotated: Vec<SweepTask> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| SweepTask { cost: tasks[(i + 1) % n].cost, ..*t })
            .collect();
        prop_assert_eq!(run_sweep(&rotated, work), expect);
    }

    /// Real-physics aggregation: a three-cell grid (the middle cell
    /// carrying a mid-window flash-crowd fault schedule) swept at a
    /// sampled width must reproduce the sequential reference bit for
    /// bit — run digests, per-cell mean blocking, CI half-widths, and
    /// the rendered report ordering all compare exactly.
    #[test]
    fn aggregation_is_bit_identical_across_widths_with_fault_cell(
        seed in 1u64..10_000,
        lo in 4.0f64..8.0,
        width in select(vec![1usize, 2, 4, 8]),
    ) {
        const REPS: u64 = 2;
        let loads = [lo, lo + 3.0, lo + 6.0];
        let tasks: Vec<SweepTask> = (0..loads.len())
            .flat_map(|cell| (0..REPS).map(move |rep| SweepTask { cell, rep, cost: 1 }))
            .collect();
        let work = |t: SweepTask| {
            let cfg = sweep_cfg(
                des::stream_seed(seed, t.rep),
                loads[t.cell],
                t.cell == 1,
            );
            let r = EmpiricalRunner::run(cfg);
            (r.digest(), r.observed_pb)
        };
        let reference: Vec<(u64, f64)> = tasks.iter().map(|&t| work(t)).collect();

        let _g = des::pool::test_guard();
        des::pool::configure(width);
        let parallel = run_sweep(&tasks, work);
        prop_assert_eq!(&parallel, &reference, "run digests diverged at width {}", width);

        // Aggregate exactly the way the figure drivers do and compare
        // the statistics and the report text, not just the raw runs.
        let render = |runs: &[(u64, f64)]| -> (Vec<(u64, u64)>, String) {
            let mut stats = Vec::new();
            let mut report = String::new();
            for (cell, chunk) in runs.chunks(REPS as usize).enumerate() {
                let samples: Vec<f64> = chunk.iter().map(|&(_, pb)| pb).collect();
                let (mean, hw) = mean_ci(&samples);
                stats.push((mean.to_bits(), hw.to_bits()));
                report.push_str(&format!("cell {cell}: pb {mean:.9e} ± {hw:.9e}\n"));
            }
            (stats, report)
        };
        prop_assert_eq!(render(&parallel), render(&reference));
    }
}

/// Two sweeps started at once from two threads (a barrier releases both)
/// share the worker count but nothing else: each returns exactly its own
/// sequential `map`.
#[test]
fn concurrent_sweeps_each_return_their_sequential_map() {
    let grid = |cells: usize, reps: u64, salt: u64| -> Vec<SweepTask> {
        (0..cells)
            .flat_map(|cell| {
                (0..reps).map(move |rep| SweepTask {
                    cell,
                    rep,
                    cost: mix(salt ^ ((cell as u64) << 32) ^ rep) % 1_000,
                })
            })
            .collect()
    };
    let (a, b) = (grid(7, 5, 1), grid(4, 9, 2));
    let work_a = |t: SweepTask| mix(0xa ^ ((t.cell as u64) << 40) ^ t.rep);
    let work_b = |t: SweepTask| (t.cell, mix(0xb ^ t.rep ^ t.cost));
    let want_a: Vec<u64> = a.iter().map(|&t| work_a(t)).collect();
    let want_b: Vec<(usize, u64)> = b.iter().map(|&t| work_b(t)).collect();

    let _g = des::pool::test_guard();
    des::pool::configure(4);
    let start = std::sync::Barrier::new(2);
    let (got_a, got_b) = std::thread::scope(|s| {
        let ha = s.spawn(|| {
            start.wait();
            run_sweep(&a, work_a)
        });
        let hb = s.spawn(|| {
            start.wait();
            run_sweep(&b, work_b)
        });
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert_eq!(got_a, want_a);
    assert_eq!(got_b, want_b);
}
