//! The metric tables: every name the benchmark prints, with its unit,
//! direction and regression bound. `BENCHMARK.json` lists the same
//! names (a test compares them); later changes refer to metrics by these
//! names.

use crate::json::{obj, s, Value};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may move the wrong way before it is a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the baseline value (host-time and memory metrics).
    Relative(f64),
    /// Absolute amount in the metric's unit (simulated statistics, which
    /// repeat exactly for a fixed seed).
    Absolute(f64),
    /// Any move the wrong way.
    NoIncrease,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
}

const fn lower(name: &'static str, unit: &'static str, bound: Bound) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

/// End-to-end metrics reported on every workload — the `end_to_end` list
/// of `BENCHMARK.json`. All are host measurements taken with tracing and
/// the counting allocator off, and none can be zero.
///
/// The host-time bounds are what this shared 2-vCPU host supports, not
/// what one would wish: ten runs at ten seeds spread 1–3 % (interquartile
/// range over median) in a quiet phase but 7–17 % when a noisy neighbour
/// is active for minutes, and a bound narrower than the spread cannot
/// tell a regression from the neighbour. A claim tighter than these
/// bounds needs paired, alternating runs of parent and change.
pub static END_TO_END: [Metric; 4] = [
    lower("artifact_s", "s", Bound::Relative(0.25)),
    lower("us_per_sim_s", "us/sim_s", Bound::Relative(0.25)),
    lower("setup_s", "s", Bound::Relative(0.25)),
    lower("peak_rss_mb", "MiB", Bound::Relative(0.20)),
];

/// Simulated-statistic metrics. Each exists only on the workloads that
/// produce it, `failed_share` is zero when all is well, and across seeds
/// they move with the seed, not the code — so they cannot be `end_to_end`
/// entries of `BENCHMARK.json` (which must exist on every workload, never
/// be zero, and hold a relative bound across seeds). They are enforced
/// by the in-run checks, reported by `--all`, judged by `compare` with
/// these absolute bounds, and exported per seed as `fidelity.*` layer
/// metrics.
pub static FIDELITY: [Metric; 4] = [
    lower("pb_err_pp", "pp", Bound::Absolute(0.25)),
    Metric {
        name: "mos_floor",
        unit: "MOS",
        better: Better::Higher,
        bound: Bound::Absolute(0.02),
    },
    Metric {
        name: "goodput_share",
        unit: "ratio",
        better: Better::Higher,
        bound: Bound::Absolute(0.005),
    },
    lower("failed_share", "ratio", Bound::NoIncrease),
];

/// Look a metric up in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&FIDELITY).find(|m| m.name == name)
}

/// One per-layer metric: name, unit, and whether lower is better.
pub type Layer = (&'static str, &'static str, Better);

const L: Better = Better::Lower;
const H: Better = Better::Higher;

/// Per-layer metrics (layers are the crates), in report order — the
/// `per_layer` list of `BENCHMARK.json`. `ns` metrics are host
/// nanoseconds per operation from the replay micro-drivers; `count`
/// metrics are exact work counts of one pass; a metric that does not
/// apply to a workload reads 0 there.
pub static PER_LAYER: [Layer; 69] = [
    ("des.events", "count", L),
    ("des.sched_ns_per_event", "ns", L),
    ("des.sched_allocs_per_event", "allocs", L),
    ("netsim.hops", "count", L),
    ("netsim.enqueue_ns_per_hop", "ns", L),
    ("rtpcore.pkts", "count", L),
    ("rtpcore.encoded_frames", "count", L),
    ("rtpcore.encode_ns_per_frame", "ns", L),
    ("rtpcore.packetize_ns_per_pkt", "ns", L),
    ("rtpcore.jitter_ns_per_pkt", "ns", L),
    ("rtpcore.allocs_per_pkt", "allocs", L),
    ("vmon.tap_rtp_ns_per_pkt", "ns", L),
    ("vmon.tap_sip_ns_per_msg", "ns", L),
    ("vmon.report_ns_per_call", "ns", L),
    ("vmon.allocs_per_pkt", "allocs", L),
    ("voiceq.mos_ns_per_call", "ns", L),
    ("pbxsim.calls", "count", L),
    ("pbxsim.rejects", "count", L),
    ("pbxsim.registers", "count", L),
    ("pbxsim.relay_ns_per_pkt", "ns", L),
    ("pbxsim.call_ns", "ns", L),
    ("pbxsim.reject_ns", "ns", L),
    ("pbxsim.register_ns", "ns", L),
    ("pbxsim.channel_ns_per_cycle", "ns", L),
    ("pbxsim.call_allocs", "allocs", L),
    ("loadgen.uac_call_ns", "ns", L),
    ("loadgen.uas_call_ns", "ns", L),
    ("loadgen.register_ns", "ns", L),
    ("loadgen.retry_ns", "ns", L),
    ("loadgen.pop_arrival_ns", "ns", L),
    ("loadgen.churn_due_ns", "ns", L),
    ("loadgen.uac_call_allocs", "allocs", L),
    ("sipcore.msgs", "count", L),
    ("sipcore.build_ns_per_msg", "ns", L),
    ("sipcore.build_allocs_per_msg", "allocs", L),
    ("sipcore.digest_ns_per_auth", "ns", L),
    ("sipcore.sdp_ns_per_body", "ns", L),
    ("sipcore.intern_ns_per_atom", "ns", L),
    ("sipcore.parse_ns_per_msg", "ns", L),
    ("sipcore.serialize_ns_per_msg", "ns", L),
    ("sipcore.wire_view_ns_per_msg", "ns", L),
    ("sipcore.txmgr_ns_per_msg", "ns", L),
    ("overload.decisions", "count", L),
    ("overload.on_invite_ns", "ns", L),
    ("overload.feedback_ns", "ns", L),
    ("teletraffic.erlang_b_ns", "ns", L),
    ("teletraffic.load_for_ns", "ns", L),
    ("teletraffic.engset_large_ns", "ns", L),
    ("capacity.cell_s.40E", "s", L),
    ("capacity.cell_s.80E", "s", L),
    ("capacity.cell_s.120E", "s", L),
    ("capacity.cell_s.160E", "s", L),
    ("capacity.cell_s.200E", "s", L),
    ("capacity.cell_s.240E", "s", L),
    ("capacity.us_per_call", "us", L),
    ("capacity.us_per_sip_msg", "us", L),
    ("capacity.ns_per_event", "ns", L),
    ("capacity.events_per_call", "count", L),
    ("capacity.allocs_per_call", "allocs", L),
    ("capacity.alloc_bytes_per_call", "bytes", L),
    ("capacity.peak_live_bytes", "bytes", L),
    ("capacity.sweep_overhead_share", "ratio", L),
    ("capacity.sweep_speedup_2w", "ratio", H),
    ("capacity.explained_share", "ratio", H),
    ("capacity.trace_overhead_share", "ratio", L),
    ("capacity.driver_self_share", "ratio", L),
    ("fidelity.pb_err_pp", "pp", L),
    ("fidelity.mos_floor", "MOS", H),
    ("fidelity.goodput_share", "ratio", H),
];

/// The contents of `BENCHMARK.json`, generated from the tables above so
/// the file and the binary cannot drift apart (`benchmark manifest`
/// prints it; a test compares it with the committed file).
pub fn manifest(run_seconds: u64) -> Value {
    let command = ["cargo", "run", "--release", "--quiet", "--manifest-path"]
        .into_iter()
        .chain(["benchmark/Cargo.toml", "--"]);
    let workloads = crate::workloads::ALL
        .iter()
        .map(|w| obj([("name", s(w.name)), ("why", s(w.why))]));
    let end_to_end = END_TO_END.iter().map(|m| {
        let Bound::Relative(bound) = m.bound else {
            unreachable!("end-to-end bounds are relative");
        };
        obj([
            ("name", s(m.name)),
            ("unit", s(m.unit)),
            ("better", s(m.better.as_str())),
            ("bound", Value::Num(bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|&(name, unit, better)| {
        obj([
            ("name", s(name)),
            ("unit", s(unit)),
            ("better", s(better.as_str())),
        ])
    });
    obj([
        ("command", Value::Arr(command.map(s).collect())),
        ("paths", Value::Arr(vec![s("benchmark")])),
        ("run_seconds", Value::Int(run_seconds)),
        ("workloads", Value::Arr(workloads.collect())),
        ("end_to_end", Value::Arr(end_to_end.collect())),
        ("per_layer", Value::Arr(per_layer.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .chain(&FIDELITY)
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|l| (l.0, l.1)))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: unit {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let largest = END_TO_END
            .iter()
            .map(|m| match m.bound {
                Bound::Relative(r) => r,
                _ => panic!("end-to-end bounds are relative"),
            })
            .fold(0.0, f64::max);
        assert!(largest <= 0.25);
        assert_eq!(
            find("setup_s").map(|m| m.bound),
            Some(Bound::Relative(largest))
        );
    }

    /// `BENCHMARK.json` at the repository root is `benchmark manifest`,
    /// byte for byte: it lists exactly what the binary prints.
    #[test]
    fn benchmark_json_is_the_manifest() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, manifest(20).to_pretty());
        assert!(committed.len() <= 64 * 1024);
        let doc = json::parse(committed).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for layer in doc.get("per_layer").unwrap().elements() {
            assert_eq!(layer.members().len(), 3, "no bound on a layer metric");
        }
        for metric in doc.get("end_to_end").unwrap().elements() {
            assert_eq!(metric.members().len(), 4);
            assert!(metric.get("bound").and_then(Value::as_f64).unwrap() <= 0.25);
        }
    }
}
