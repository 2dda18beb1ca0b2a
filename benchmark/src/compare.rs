//! `benchmark compare A.json B.json`: apply the bounds table to two
//! result files, one row per (workload, metric).

use crate::json::Value;
use crate::metrics::{self, Better, Bound, Metric};

/// The judgement on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// B reads worse by more than the bound, but the run-to-run spread is
    /// wider than the bound and the two quartile ranges overlap: the
    /// difference is not resolved by these runs.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reported value and, for timings, the
/// quartiles of the sample it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub quartiles: Option<(f64, f64, f64)>,
}

impl Reading {
    fn from_json(v: &Value) -> Option<Reading> {
        let num = |k: &str| v.get(k).and_then(Value::as_f64);
        Some(Reading {
            value: num("value")?,
            quartiles: (|| Some((num("q1")?, num("median")?, num("q3")?)))(),
        })
    }

    fn spread(&self) -> Option<f64> {
        self.quartiles.map(|(q1, median, q3)| (q3 - q1) / median)
    }
}

/// Judge `b` against baseline `a` for `metric`.
pub fn verdict(metric: &Metric, a: Reading, b: Reading) -> Verdict {
    let worse_by = match metric.better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    let (exceeds, relative_bound) = match metric.bound {
        Bound::Relative(share) => (worse_by > share * a.value.abs(), Some(share)),
        Bound::Absolute(amount) => (worse_by > amount, None),
        Bound::NoIncrease => (worse_by > 0.0, None),
    };
    if !exceeds {
        return Verdict::Ok;
    }
    if let (Some(bound), Some(qa), Some(qb)) = (relative_bound, a.quartiles, b.quartiles) {
        let wide = [a.spread(), b.spread()]
            .into_iter()
            .flatten()
            .any(|s| s > bound);
        let overlap = qa.0 <= qb.2 && qb.0 <= qa.2;
        if wide && overlap {
            return Verdict::Unresolved;
        }
    }
    Verdict::Worse
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

/// Compare two `--all` result documents. Errors if they do not hold the
/// same workloads and metrics.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let workloads_a = a.get("workloads").ok_or("A has no \"workloads\"")?;
    let workloads_b = b.get("workloads").ok_or("B has no \"workloads\"")?;
    if workloads_a.members().len() != workloads_b.members().len() {
        return Err("A and B hold different workloads".to_owned());
    }
    let mut rows = Vec::new();
    for (name, wa) in workloads_a.members() {
        let wb = workloads_b
            .get(name)
            .ok_or_else(|| format!("B has no workload {name}"))?;
        let (ma, mb) = (wa.get("metrics"), wb.get("metrics"));
        let (Some(ma), Some(mb)) = (ma, mb) else {
            return Err(format!("{name}: no \"metrics\""));
        };
        if ma.members().len() != mb.members().len() {
            return Err(format!("{name}: A and B report different metrics"));
        }
        for (metric_name, entry_a) in ma.members() {
            let metric = metrics::find(metric_name)
                .ok_or_else(|| format!("{name}: unknown metric {metric_name}"))?;
            let read = |entry: Option<&Value>, side: &str| {
                entry
                    .and_then(Reading::from_json)
                    .ok_or_else(|| format!("{name}: {side} has no usable {metric_name}"))
            };
            let ra = read(Some(entry_a), "A")?;
            let rb = read(mb.get(metric_name), "B")?;
            rows.push(Row {
                workload: name.clone(),
                metric: metric.name,
                a: ra.value,
                b: rb.value,
                verdict: verdict(metric, ra, rb),
            });
        }
    }
    Ok(rows)
}

/// Print the rows; returns true when none is `worse`.
pub fn print_rows(rows: &[Row]) -> bool {
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>16}  verdict",
        "workload", "metric", "A", "B", "B/A (base A)"
    );
    for row in rows {
        let ratio = if row.a == 0.0 {
            "-".to_owned()
        } else {
            format!("{:.4} of {:.4}", row.b / row.a, row.a)
        };
        println!(
            "{:<18} {:<14} {:>14.6} {:>14.6} {:>16}  {}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            ratio,
            row.verdict.as_str()
        );
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {worse} worse, {unresolved} unresolved",
        rows.len()
    );
    worse == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{obj, Value};

    fn at(value: f64) -> Reading {
        Reading {
            value,
            quartiles: None,
        }
    }

    fn timed(value: f64, q1: f64, q3: f64) -> Reading {
        Reading {
            value,
            quartiles: Some((q1, (q1 + q3) / 2.0, q3)),
        }
    }

    #[test]
    fn verdicts_on_synthetic_pairs() {
        // A host-time metric with a +10 % bound.
        let artifact = &Metric {
            name: "t",
            unit: "s",
            better: Better::Lower,
            bound: Bound::Relative(0.10),
        };
        // Within +10 %: ok. Faster: ok.
        assert_eq!(verdict(artifact, at(1.0), at(1.09)), Verdict::Ok);
        assert_eq!(verdict(artifact, at(1.0), at(0.5)), Verdict::Ok);
        // Beyond the bound with tight, disjoint samples: worse.
        assert_eq!(
            verdict(artifact, timed(1.0, 1.0, 1.02), timed(1.2, 1.2, 1.22)),
            Verdict::Worse
        );
        assert_eq!(verdict(artifact, at(1.0), at(1.2)), Verdict::Worse);
        // Beyond the bound, but spread > bound and ranges overlap.
        assert_eq!(
            verdict(artifact, timed(1.0, 1.0, 1.3), timed(1.2, 1.1, 1.4)),
            Verdict::Unresolved
        );
        // Wide spread but disjoint ranges still resolves to worse.
        assert_eq!(
            verdict(artifact, timed(1.0, 1.0, 1.2), timed(2.0, 2.0, 2.4)),
            Verdict::Worse
        );

        // Simulated statistics use absolute bounds in their own unit.
        let pb = metrics::find("pb_err_pp").unwrap();
        assert_eq!(verdict(pb, at(1.65), at(1.85)), Verdict::Ok);
        assert_eq!(verdict(pb, at(1.65), at(1.95)), Verdict::Worse);
        let mos = metrics::find("mos_floor").unwrap();
        assert_eq!(verdict(mos, at(4.31), at(4.30)), Verdict::Ok);
        assert_eq!(verdict(mos, at(4.31), at(4.28)), Verdict::Worse);
        assert_eq!(verdict(mos, at(4.31), at(4.40)), Verdict::Ok);
        let goodput = metrics::find("goodput_share").unwrap();
        assert_eq!(verdict(goodput, at(0.385), at(0.379)), Verdict::Worse);
        let failed = metrics::find("failed_share").unwrap();
        assert_eq!(verdict(failed, at(0.0), at(0.0)), Verdict::Ok);
        assert_eq!(verdict(failed, at(0.0), at(0.001)), Verdict::Worse);
    }

    fn doc(artifact_s: f64, failed_share: f64) -> Value {
        let entry = |value: f64| obj([("value", Value::Num(value)), ("unit", Value::Null)]);
        obj([(
            "workloads",
            obj([(
                "fig6_signalling",
                obj([(
                    "metrics",
                    obj([
                        ("artifact_s", entry(artifact_s)),
                        ("failed_share", entry(failed_share)),
                    ]),
                )]),
            )]),
        )])
    }

    #[test]
    fn documents_compare_row_by_row() {
        let rows = compare(&doc(1.0, 0.0), &doc(1.05, 0.0)).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert!(print_rows(&rows));

        let rows = compare(&doc(1.0, 0.0), &doc(1.5, 0.25)).unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Worse));
        assert!(!print_rows(&rows));

        assert!(compare(&doc(1.0, 0.0), &obj([("workloads", obj::<String>([]))])).is_err());
        assert!(compare(&Value::Null, &doc(1.0, 0.0)).is_err());
    }
}
