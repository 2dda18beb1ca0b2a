//! The untraced measurement: fresh child processes run the passes, the
//! parent times their set-up and folds their reports into the end-to-end
//! metrics.
//!
//! Each child is a closed loop with one client: the next pass starts when
//! the previous one returns, on one worker thread. A fresh process per
//! child keeps peak RSS, memo caches and allocator state per workload,
//! and gives one set-up sample per child.

use crate::json::{self, obj, s, Value};
use crate::metrics::{END_TO_END, FIDELITY};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::workloads::{Fidelity, Session, Workload};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

/// A child times at least this many passes whatever its budget.
const MIN_PASSES: usize = 2;

/// What one child process measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildReport {
    /// Process start → first timed pass, stamped by the parent.
    pub setup_s: f64,
    /// Seconds of each timed pass.
    pub pass_s: Vec<f64>,
    /// Operations (returned results) over all passes, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub fidelity: Fidelity,
    /// Fold of the first pass's per-result digests.
    pub digest: u64,
    pub peak_rss_kib: Option<u64>,
    pub notes: Vec<String>,
}

impl ChildReport {
    /// Run the child's share in this process: one warm-up pass, then
    /// timed passes until `budget_s` of them have elapsed. `on_ready`
    /// fires between the two, where set-up ends.
    pub fn measure(
        workload: &'static Workload,
        seed: u64,
        budget_s: f64,
        on_ready: impl FnOnce(),
    ) -> ChildReport {
        workload.assert_seed_independent(seed);
        let mut tracer = Tracer::new(false);
        let mut session = Session::new(workload, seed);
        session.pass(&mut tracer);
        on_ready();
        let started = Instant::now();
        let mut pass_s = Vec::new();
        while pass_s.len() < MIN_PASSES || started.elapsed().as_secs_f64() < budget_s {
            pass_s.push(session.pass(&mut tracer).0);
        }
        ChildReport {
            setup_s: 0.0,
            pass_s,
            attempted: session.attempted,
            failed: session.failed,
            correct: session.correct(),
            fidelity: session.fidelity,
            digest: session.digest,
            peak_rss_kib: crate::host::peak_rss_kib(),
            notes: session.notes,
        }
    }

    fn to_json(&self) -> Value {
        let opt = |x: Option<f64>| x.map_or(Value::Null, Value::Num);
        obj([
            (
                "pass_s",
                Value::Arr(self.pass_s.iter().map(|&p| Value::Num(p)).collect()),
            ),
            ("attempted", Value::Int(self.attempted)),
            ("failed", Value::Int(self.failed)),
            ("correct", Value::Bool(self.correct)),
            ("pb_err_pp", opt(self.fidelity.pb_err_pp)),
            ("mos_floor", opt(self.fidelity.mos_floor)),
            ("goodput_share", opt(self.fidelity.goodput_share)),
            ("digest", s(format!("{:016x}", self.digest))),
            (
                "peak_rss_kib",
                self.peak_rss_kib.map_or(Value::Null, Value::Int),
            ),
            ("notes", Value::Arr(self.notes.iter().map(s).collect())),
        ])
    }

    fn from_json(v: &Value, setup_s: f64) -> Option<ChildReport> {
        let num = |k: &str| v.get(k).and_then(Value::as_f64);
        Some(ChildReport {
            setup_s,
            pass_s: v
                .get("pass_s")?
                .elements()
                .iter()
                .filter_map(Value::as_f64)
                .collect(),
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            correct: v.get("correct")?.as_bool()?,
            fidelity: Fidelity {
                pb_err_pp: num("pb_err_pp"),
                mos_floor: num("mos_floor"),
                goodput_share: num("goodput_share"),
            },
            digest: u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?,
            peak_rss_kib: v.get("peak_rss_kib").and_then(Value::as_u64),
            notes: v
                .get("notes")?
                .elements()
                .iter()
                .filter_map(|n| n.as_str().map(str::to_owned))
                .collect(),
        })
    }
}

/// Entry point of the hidden `child` subcommand: measure, print `ready`
/// where set-up ends, print the report as the last line.
pub fn child_main(workload: &'static Workload, seed: u64, budget_s: f64, threads: usize) {
    des::pool::configure(threads);
    let report = ChildReport::measure(workload, seed, budget_s, || {
        println!("ready");
        // The parent stamps set-up when this line arrives.
        let _ = std::io::stdout().flush();
    });
    println!("{}", report.to_json().to_line());
}

/// Start one child of this executable, wait for it, and return its
/// report with the set-up time the parent observed.
pub fn spawn_child(
    workload: &Workload,
    seed: u64,
    budget_s: f64,
    threads: usize,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args(["child", "--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--budget-s", &budget_s.to_string()])
        .args(["--threads", &threads.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut setup_s = None;
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading the child's output: {e}"))?;
        if setup_s.is_none() && line == "ready" {
            setup_s = Some(started.elapsed().as_secs_f64());
        }
        last = line;
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the child: {e}"))?;
    if !status.success() {
        return Err(format!("{}: child exited with {status}", workload.name));
    }
    let setup_s = setup_s.ok_or_else(|| format!("{}: child never got ready", workload.name))?;
    json::parse(&last)
        .ok()
        .and_then(|v| ChildReport::from_json(&v, setup_s))
        .ok_or_else(|| format!("{}: unreadable child report: {last}", workload.name))
}

/// One value of an end-to-end metric, with the sample behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    /// The passes (or children) the value was taken over; `None` for a
    /// single reading.
    pub sample: Option<Summary>,
}

/// The end-to-end result of one workload over a set of children.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: &'static str,
    pub seed: u64,
    /// Best pass over all children (the noise on this host is one-sided
    /// contention, so the minimum is the steadiest statistic; median and
    /// quartiles ride along).
    pub artifact_s: Measured,
    /// `artifact_s` per simulated second of the pass.
    pub us_per_sim_s: Measured,
    /// Process start → first timed pass, best child. Like the passes, a
    /// set-up is only ever slowed by the neighbour: with three samples the
    /// median flips between the quiet and the noisy mode, the minimum does
    /// not.
    pub setup_s: Measured,
    /// Largest `VmHWM` over children, MiB; `None` where unmeasured.
    pub peak_rss_mb: Option<f64>,
    pub fidelity: Fidelity,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub digest: u64,
    pub notes: Vec<String>,
}

impl WorkloadResult {
    /// Fold the children of one workload. Children must agree exactly on
    /// the physics digest and the simulated statistics.
    pub fn aggregate(workload: &'static Workload, seed: u64, children: &[ChildReport]) -> Self {
        let first = children.first().expect("at least one child ran");
        let passes: Vec<f64> = children
            .iter()
            .flat_map(|c| c.pass_s.iter().copied())
            .collect();
        let setups: Vec<f64> = children.iter().map(|c| c.setup_s).collect();
        let sim_seconds = workload.sim_seconds(seed);
        let per_sim_s = |secs: f64| secs * 1e6 / sim_seconds;
        let pass_summary = Summary::of(&passes);
        let mut notes: Vec<String> = children.iter().flat_map(|c| c.notes.clone()).collect();
        notes.dedup();
        let agree = children
            .iter()
            .all(|c| c.digest == first.digest && c.fidelity.same_bits(&first.fidelity));
        if !agree {
            notes.push(format!(
                "{}: child processes disagree on the physics",
                workload.name
            ));
        }
        WorkloadResult {
            workload: workload.name,
            seed,
            artifact_s: Measured {
                value: stats::min(&passes),
                sample: pass_summary,
            },
            us_per_sim_s: Measured {
                value: per_sim_s(stats::min(&passes)),
                sample: pass_summary.map(|p| Summary {
                    n: p.n,
                    min: per_sim_s(p.min),
                    q1: per_sim_s(p.q1),
                    median: per_sim_s(p.median),
                    q3: per_sim_s(p.q3),
                }),
            },
            setup_s: Measured {
                value: stats::min(&setups),
                sample: Summary::of(&setups),
            },
            peak_rss_mb: children
                .iter()
                .filter_map(|c| c.peak_rss_kib)
                .max()
                .map(|kib| kib as f64 / 1024.0),
            fidelity: first.fidelity,
            attempted: children.iter().map(|c| c.attempted).sum(),
            failed: children.iter().map(|c| c.failed).sum(),
            correct: agree && children.iter().all(|c| c.correct),
            digest: first.digest,
            notes,
        }
    }

    /// Value of an end-to-end or fidelity metric by name.
    pub fn metric(&self, name: &str) -> Option<Measured> {
        let single = |value| Measured {
            value,
            sample: None,
        };
        match name {
            "artifact_s" => Some(self.artifact_s),
            "us_per_sim_s" => Some(self.us_per_sim_s),
            "setup_s" => Some(self.setup_s),
            "peak_rss_mb" => self.peak_rss_mb.map(single),
            "failed_share" => Some(single(self.failed as f64 / self.attempted as f64)),
            other => self.fidelity.get(other).map(single),
        }
    }

    /// The contract's result line for an untraced run: every
    /// `end_to_end` metric of `BENCHMARK.json`.
    pub fn contract_line(&self) -> String {
        let metrics = END_TO_END.iter().map(|m| {
            let value = self.metric(m.name).map_or(f64::NAN, |x| x.value);
            (m.name, m.unit, value)
        });
        result_line(self.correct, self.attempted, self.failed, metrics)
    }

    /// This workload's entry in the `--all` results file.
    pub fn to_json(&self) -> Value {
        let metrics = END_TO_END.iter().chain(&FIDELITY).filter_map(|m| {
            let x = self.metric(m.name)?;
            let mut fields = vec![("value", Value::Num(x.value)), ("unit", s(m.unit))];
            if let Some(sample) = x.sample {
                fields.extend([
                    ("n", Value::Int(sample.n as u64)),
                    ("min", Value::Num(sample.min)),
                    ("q1", Value::Num(sample.q1)),
                    ("median", Value::Num(sample.median)),
                    ("q3", Value::Num(sample.q3)),
                ]);
            }
            Some((m.name, obj(fields)))
        });
        obj([
            ("seed", Value::Int(self.seed)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Int(self.attempted)),
            ("failed", Value::Int(self.failed)),
            ("digest", s(format!("{:016x}", self.digest))),
            ("metrics", obj(metrics)),
            ("notes", Value::Arr(self.notes.iter().map(s).collect())),
        ])
    }

    /// Human-readable table of every metric, with the pass statistics.
    pub fn print_table(&self) {
        println!("{} (seed {})", self.workload, self.seed);
        for m in END_TO_END.iter().chain(&FIDELITY) {
            let Some(x) = self.metric(m.name) else {
                let why = if m.name == "peak_rss_mb" {
                    "unmeasured"
                } else {
                    "not produced by this workload"
                };
                println!("  {:<14} {why}", m.name);
                continue;
            };
            print!("  {:<14} {:>14.6} {:<9}", m.name, x.value, m.unit);
            if let Some(sm) = x.sample {
                print!(
                    " n={} min={:.4} q1={:.4} median={:.4} q3={:.4} spread={:.1}%",
                    sm.n,
                    sm.min,
                    sm.q1,
                    sm.median,
                    sm.q3,
                    100.0 * sm.spread()
                );
            }
            println!();
        }
        println!(
            "  operations {} failed {} correct {} digest {:016x}",
            self.attempted, self.failed, self.correct, self.digest
        );
        for note in &self.notes {
            println!("  ! {note}");
        }
    }
}

/// The one-line JSON object that ends a contract run, from
/// `(name, unit, value)` metrics.
pub fn result_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (&'a str, &'a str, f64)>,
) -> String {
    let metrics = metrics
        .into_iter()
        .map(|(name, unit, value)| (name, obj([("value", Value::Num(value)), ("unit", s(unit))])));
    obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Int(attempted.max(1))),
        ("failed", Value::Int(failed)),
        ("metrics", obj(metrics)),
    ])
    .to_line()
}

/// Measure a set: `rounds` rounds, and in each round one fresh child per
/// workload, so the workloads interleave in time (noisy phases on a
/// shared host last tens of seconds and would otherwise land on one
/// workload). `seconds` is each workload's total timed budget.
pub fn measure_set(
    workloads: &[&'static Workload],
    seed: u64,
    seconds: f64,
    rounds: usize,
) -> Result<Vec<WorkloadResult>, String> {
    let mut children: Vec<Vec<ChildReport>> = vec![Vec::new(); workloads.len()];
    for _ in 0..rounds {
        for (w, reports) in workloads.iter().zip(&mut children) {
            reports.push(spawn_child(w, seed, seconds / rounds as f64, 1)?);
        }
    }
    Ok(workloads
        .iter()
        .zip(&children)
        .map(|(w, reports)| WorkloadResult::aggregate(w, seed, reports))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::tests::SMOKE;

    /// The full measure → check → emit path on the smoke cell, in
    /// process (the child protocol is the same report through JSON).
    #[test]
    fn smoke_cell_through_measure_check_emit() {
        let mut ready = false;
        let mut child = ChildReport::measure(&SMOKE, 2015, 0.0, || ready = true);
        assert!(ready);
        assert_eq!(child.pass_s.len(), MIN_PASSES);
        assert_eq!(
            (child.attempted, child.failed),
            (3, 0),
            "warm-up + two passes"
        );
        assert!(child.correct, "{:?}", child.notes);

        // The report survives the parent/child JSON hop bit for bit.
        child.setup_s = 0.125;
        let wire = child.to_json().to_line();
        let back = ChildReport::from_json(&json::parse(&wire).unwrap(), 0.125).unwrap();
        assert_eq!(back, child);

        let mut second = child.clone();
        second.setup_s = 0.5;
        second.pass_s = vec![child.pass_s[0] * 2.0];
        let third = ChildReport {
            setup_s: 0.25,
            ..child.clone()
        };
        let result = WorkloadResult::aggregate(&SMOKE, 2015, &[child.clone(), second, third]);
        assert!(result.correct);
        assert_eq!(result.artifact_s.value, stats::min(&child.pass_s));
        assert_eq!(result.artifact_s.sample.unwrap().n, 2 * MIN_PASSES + 1);
        assert_eq!(result.setup_s.value, 0.125, "best of the three children");
        assert_eq!((result.attempted, result.failed), (9, 0));
        let window = SMOKE.sim_seconds(2015);
        assert_eq!(
            result.us_per_sim_s.value,
            result.artifact_s.value * 1e6 / window
        );

        let line = json::parse(&result.contract_line()).expect("one JSON object");
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.members().len(), END_TO_END.len());
        for m in &END_TO_END {
            let entry = metrics
                .get(m.name)
                .unwrap_or_else(|| panic!("{} missing", m.name));
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
            if m.name != "peak_rss_mb" || cfg!(target_os = "linux") {
                assert!(
                    entry.get("value").and_then(Value::as_f64).unwrap() > 0.0,
                    "{}",
                    m.name
                );
            }
        }
        let file = result.to_json();
        let mos = file
            .get("metrics")
            .and_then(|m| m.get("mos_floor"))
            .unwrap();
        assert!(mos.get("value").and_then(Value::as_f64).unwrap() > 4.0);
        assert!(file.get("metrics").unwrap().get("pb_err_pp").is_none());
    }

    #[test]
    fn children_that_disagree_make_the_result_incorrect() {
        let a = ChildReport::measure(&SMOKE, 2015, 0.0, || ());
        let b = ChildReport::measure(&SMOKE, 7, 0.0, || ());
        assert!(a.correct && b.correct);
        let result = WorkloadResult::aggregate(&SMOKE, 2015, &[a, b]);
        assert!(!result.correct);
        assert!(result.notes.iter().any(|n| n.contains("disagree")));
    }
}
