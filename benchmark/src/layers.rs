//! The traced run: per-layer metrics for one workload.
//!
//! Separate from the untraced measurement. Passes run in this process
//! with spans around every call into `capacity` and the counting
//! allocator on; the lower layers are replayed in isolation
//! ([`crate::replay`]) and their unit costs multiplied by the exact work
//! counts the workload's own results report. Two untraced children give
//! the references: the one-worker pass time (for the tracing overhead)
//! and, on sweep workloads with a second core, the two-worker pass time.

use crate::json::{obj, s, Value};
use crate::measure::{result_line, spawn_child};
use crate::metrics::PER_LAYER;
use crate::replay::{self, Shape, UnitCosts};
use crate::stats;
use crate::trace::{count_allocs, self_time_ns, AllocStats, Tracer};
use crate::workloads::{Artifact, Session, Workload};
use capacity::RunResult;
use std::time::Instant;

/// Exact work counts of one pass, summed over its cells.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    events: u64,
    rtp_pkts: u64,
    sip_msgs: u64,
    /// Calls attempted.
    attempted: u64,
    /// Calls that ran the whole ladder (first try or after retries).
    carried: u64,
    /// 486 and 503 final responses delivered to callers.
    rejects: u64,
    /// Completed digest handshakes (one 401 each).
    digest_registers: u64,
    calls_scored: u64,
    /// INVITEs (first tries and retries) that met an armed overload law.
    decisions: u64,
    /// Of those, the ones the law shed.
    law_sheds: u64,
}

impl Counts {
    fn add(&mut self, r: &RunResult, law_armed: bool) {
        self.events += r.events_processed;
        self.rtp_pkts += r.monitor.rtp_packets;
        self.sip_msgs += r.monitor.sip_total;
        self.attempted += r.attempted;
        self.carried += r.goodput;
        self.rejects += r.monitor.sip_response_count(486) + r.monitor.sip_response_count(503);
        self.digest_registers += r.monitor.sip_response_count(401);
        self.calls_scored += r.monitor.calls_scored;
        if law_armed {
            self.decisions += r.attempted + r.retries;
            self.law_sheds += r.shed;
        }
    }

    /// Link hops: four per relayed RTP packet, two per SIP message.
    fn hops(&self) -> u64 {
        4 * self.rtp_pkts + 2 * self.sip_msgs
    }

    /// Frames that ran the real encoder (`encode_every: 50`).
    fn encoded_frames(&self) -> u64 {
        self.rtp_pkts / 50
    }
}

/// Everything a traced run produced.
pub struct TracedRun {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every `PER_LAYER` metric, in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Unit costs with their medians, for the human report.
    pub unit_costs: UnitCosts,
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

/// What the in-process traced passes measured.
#[derive(Default)]
struct InProcess {
    /// Seconds of each traced pass.
    pass_s: Vec<f64>,
    /// Seconds of each plain-loop run (sweep workloads).
    loop_s: Vec<f64>,
    allocs: AllocStats,
    counts: Counts,
    /// Share of the passes `bench.pass` spent outside its children.
    driver_self_share: f64,
}

/// Run the traced passes of `session` for about `budget_s` seconds.
fn trace_passes(
    session: &mut Session,
    tracer: &mut Tracer,
    budget_s: f64,
) -> Result<InProcess, String> {
    let w = session.workload;
    session.pass(tracer); // warm-up, pass 0
    let started = Instant::now();
    let mut out = InProcess::default();
    while out.pass_s.len() < 2 || started.elapsed().as_secs_f64() < budget_s {
        tracer.set_pass(out.pass_s.len() as u32 + 1);
        let ((seconds, artifact), allocs) = count_allocs(|| session.pass(tracer));
        out.pass_s.push(seconds);
        out.allocs = allocs;
        let artifact = artifact.ok_or_else(|| format!("{}: the traced pass panicked", w.name))?;

        // Work counts: straight from the results where the artifact
        // holds them. Sweep artifacts hold only points, so their cells
        // run again in a plain loop, which must reproduce the artifact
        // bit for bit — alternating with the passes and under the
        // counting allocator like them, so the two times compare.
        out.counts = Counts::default();
        if let Artifact::Runs(runs) = &artifact {
            runs.iter().for_each(|r| out.counts.add(r, false));
            continue;
        }
        let started = Instant::now();
        let (runs, _) = count_allocs(|| {
            tracer.span("bench.plain_loop", |_| {
                w.plain_loop(session.seed, &artifact)
            })
        });
        out.loop_s.push(started.elapsed().as_secs_f64());
        let runs = runs.ok_or_else(|| format!("{}: no source of work counts", w.name))?;
        let runs = runs.inspect_err(|_| session.failed += w.ops_per_pass)?;
        for (run, law_armed) in &runs {
            out.counts.add(run, *law_armed);
        }
    }
    tracer.set_pass(0);

    // The driver's own share of a pass: what `bench.pass` does outside
    // its `capacity.*` children.
    let passes: Vec<_> = tracer
        .spans()
        .iter()
        .filter(|sp| sp.name == "bench.pass" && sp.pass > 0)
        .collect();
    let (own, total) = passes.iter().fold((0, 0), |(own, total), sp| {
        (
            own + self_time_ns(tracer.spans(), sp.id),
            total + sp.duration_ns(),
        )
    });
    out.driver_self_share = own as f64 / total as f64;
    Ok(out)
}

/// Minimum duration per Table I cell over the traced passes, in cell
/// order; empty for other workloads.
fn cell_seconds(tracer: &Tracer) -> Vec<f64> {
    let cells = capacity::table1::PAPER_WORKLOADS.len();
    let durations: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|sp| sp.name == "capacity.table1_cell" && sp.pass > 0)
        .map(|sp| sp.duration_ns() as f64 / 1e9)
        .collect();
    if durations.is_empty() {
        return Vec::new();
    }
    (0..cells)
        .map(|cell| {
            let of_cell: Vec<f64> = durations
                .iter()
                .skip(cell)
                .step_by(cells)
                .copied()
                .collect();
            stats::min(&of_cell)
        })
        .collect()
}

/// Seconds of a pass the unit costs account for.
fn explained_seconds(c: &Counts, u: &UnitCosts) -> f64 {
    let ns = |metric: &str, count: u64| u.get(metric) * count as f64;
    let total = ns("des.sched_ns_per_event", c.events)
        + ns("netsim.enqueue_ns_per_hop", c.hops())
        + ns("rtpcore.encode_ns_per_frame", c.encoded_frames())
        + ns("rtpcore.packetize_ns_per_pkt", c.rtp_pkts)
        // `tap_rtp` runs rtpcore's sequence/jitter update inside it and
        // `report` runs voiceq's E-model, so neither is added again.
        + ns("vmon.tap_rtp_ns_per_pkt", c.rtp_pkts)
        + ns("vmon.tap_sip_ns_per_msg", c.sip_msgs)
        + ns("vmon.report_ns_per_call", c.calls_scored)
        + ns("pbxsim.relay_ns_per_pkt", c.rtp_pkts)
        // Endpoint costs build their messages with sipcore, so the
        // default-path sipcore unit costs are inside these already.
        + ns("pbxsim.call_ns", c.carried)
        + ns("loadgen.uac_call_ns", c.carried)
        + ns("loadgen.uas_call_ns", c.carried)
        + ns("pbxsim.reject_ns", c.rejects)
        + ns("loadgen.retry_ns", c.rejects)
        + ns("pbxsim.register_ns", c.digest_registers)
        + ns("loadgen.register_ns", c.digest_registers)
        // `reject_ns` was measured with a law armed; only admitted
        // decisions still owe the law's own cost.
        + ns("overload.on_invite_ns", c.decisions.saturating_sub(c.law_sheds));
    total / 1e9
}

/// Run the traced measurement of one workload within about `seconds`.
pub fn traced_run(w: &'static Workload, seed: u64, seconds: f64) -> Result<TracedRun, String> {
    // References from untraced children, so tracing state never leaks
    // into them.
    let reference = spawn_child(w, seed, seconds * 0.25, 1)?;
    let artifact_s = stats::min(&reference.pass_s);
    let two_workers = if w.reproduces.is_some() && crate::host::nproc() >= 2 {
        Some(stats::min(&spawn_child(w, seed, seconds * 0.1, 2)?.pass_s))
    } else {
        None
    };

    des::pool::configure(1);
    let mut tracer = Tracer::new(true);
    let mut session = Session::new(w, seed);
    let traced = trace_passes(&mut session, &mut tracer, seconds * 0.2);
    let shape = Shape {
        seed,
        pending_events: w.pending_events(seed),
    };
    let unit_costs = replay::run_all(&mut tracer, &shape);

    let mut notes = std::mem::take(&mut session.notes);
    notes.extend(reference.notes.iter().cloned());
    let same_physics = reference.digest == session.digest;
    if !same_physics {
        notes.push(format!(
            "{}: traced and untraced passes disagree on the physics",
            w.name
        ));
    }
    let correct = session.correct() && traced.is_ok() && reference.correct && same_physics;
    // A failed traced pass still yields a result line, marked incorrect.
    let traced = traced.unwrap_or_else(|why| {
        notes.push(why);
        InProcess::default()
    });

    let c = traced.counts;
    let cells = cell_seconds(&tracer);
    let traced_pass_s = stats::min(&traced.pass_s);
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = match name {
                "des.events" => c.events as f64,
                "netsim.hops" => c.hops() as f64,
                "rtpcore.pkts" => c.rtp_pkts as f64,
                "rtpcore.encoded_frames" => c.encoded_frames() as f64,
                "pbxsim.calls" => c.carried as f64,
                "pbxsim.rejects" => c.rejects as f64,
                "pbxsim.registers" => c.digest_registers as f64,
                "sipcore.msgs" => c.sip_msgs as f64,
                "overload.decisions" => c.decisions as f64,
                "capacity.us_per_call" => per(artifact_s * 1e6, c.attempted),
                "capacity.us_per_sip_msg" => per(artifact_s * 1e6, c.sip_msgs),
                "capacity.ns_per_event" => per(artifact_s * 1e9, c.events),
                "capacity.events_per_call" => per(c.events as f64, c.attempted),
                "capacity.allocs_per_call" => per(traced.allocs.allocs as f64, c.attempted),
                "capacity.alloc_bytes_per_call" => per(traced.allocs.bytes as f64, c.attempted),
                "capacity.peak_live_bytes" => traced.allocs.peak_live_bytes as f64,
                // (pass − the same cells in a plain loop) ÷ pass; 0
                // where no sweep executor is involved.
                "capacity.sweep_overhead_share" if traced.loop_s.is_empty() => 0.0,
                "capacity.sweep_overhead_share" => 1.0 - stats::min(&traced.loop_s) / traced_pass_s,
                // One-worker ÷ two-worker pass time; 0 = unmeasured (one
                // core) or not a sweep workload.
                "capacity.sweep_speedup_2w" => two_workers.map_or(0.0, |two| artifact_s / two),
                "capacity.explained_share" => explained_seconds(&c, &unit_costs) / artifact_s,
                "capacity.trace_overhead_share" => traced_pass_s / artifact_s - 1.0,
                "capacity.driver_self_share" => traced.driver_self_share,
                "fidelity.pb_err_pp" => session.fidelity.pb_err_pp.unwrap_or(0.0),
                "fidelity.mos_floor" => session.fidelity.mos_floor.unwrap_or(0.0),
                "fidelity.goodput_share" => session.fidelity.goodput_share.unwrap_or(0.0),
                cell if cell.starts_with("capacity.cell_s.") => {
                    let index = PER_LAYER
                        .iter()
                        .filter(|l| l.0.starts_with("capacity.cell_s."))
                        .position(|l| l.0 == cell)
                        .expect("listed above");
                    cells.get(index).copied().unwrap_or(0.0)
                }
                unit_cost => unit_costs.get(unit_cost),
            };
            (name, unit, value)
        })
        .collect();

    Ok(TracedRun {
        workload: w.name,
        correct,
        attempted: session.attempted + reference.attempted,
        failed: session.failed + reference.failed,
        metrics,
        unit_costs,
        notes,
        tracer,
    })
}

impl TracedRun {
    /// The contract's result line for a traced run: every `per_layer`
    /// metric of `BENCHMARK.json`.
    pub fn contract_line(&self) -> String {
        result_line(
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.iter().copied(),
        )
    }

    /// This workload's entry in the `--traced` layers file.
    pub fn to_json(&self) -> Value {
        let metrics = self.metrics.iter().map(|&(name, unit, value)| {
            let mut fields = vec![("value", Value::Num(value)), ("unit", s(unit))];
            if let Some((_, _, median)) = self.unit_costs.entries().iter().find(|e| e.0 == name) {
                fields.push(("median", Value::Num(*median)));
            }
            (name, obj(fields))
        });
        obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Int(self.attempted)),
            ("failed", Value::Int(self.failed)),
            ("metrics", obj(metrics)),
            ("notes", Value::Arr(self.notes.iter().map(s).collect())),
        ])
    }

    /// Human-readable table of every per-layer metric.
    pub fn print_table(&self) {
        println!("{} — per-layer metrics (traced run)", self.workload);
        for &(name, unit, value) in &self.metrics {
            print!("  {name:<34} {value:>16.4} {unit:<7}");
            if let Some((_, _, median)) = self.unit_costs.entries().iter().find(|e| e.0 == name) {
                print!(" median {median:.4}");
            }
            if name == "capacity.sweep_speedup_2w" && value == 0.0 {
                print!(" unmeasured (one core, or no sweep in this workload)");
            }
            println!();
        }
        println!(
            "  operations {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        for note in &self.notes {
            println!("  ! {note}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::tests::SMOKE;
    use capacity::{EmpiricalConfig, EmpiricalRunner};

    #[test]
    fn counts_come_from_the_results_own_fields() {
        let r = EmpiricalRunner::run(EmpiricalConfig::smoke(2015));
        let mut c = Counts::default();
        c.add(&r, false);
        c.add(&r, true);
        assert_eq!(c.events, 2 * r.events_processed);
        assert_eq!(c.rtp_pkts, 2 * r.monitor.rtp_packets);
        assert_eq!(c.hops(), 4 * c.rtp_pkts + 2 * c.sip_msgs);
        assert_eq!(c.carried, 2 * r.completed);
        assert_eq!(c.decisions, r.attempted, "only the law-armed cell decides");
        assert_eq!(c.encoded_frames(), c.rtp_pkts / 50);
    }

    #[test]
    fn traced_passes_record_spans_counts_and_allocations() {
        let _counting = crate::trace::COUNTING_TESTS.lock();
        let mut tracer = Tracer::new(true);
        let mut session = Session::new(&SMOKE, 2015);
        let traced = trace_passes(&mut session, &mut tracer, 0.0).expect("smoke cell runs");
        assert_eq!(traced.pass_s.len(), 2);
        assert!(session.correct(), "{:?}", session.notes);
        assert!(traced.counts.events > 0 && traced.counts.rtp_pkts > 0);
        assert!(traced.allocs.allocs > 0 && traced.allocs.peak_live_bytes > 0);
        assert!((0.0..1.0).contains(&traced.driver_self_share));
        // Warm-up is pass 0; the two traced passes are 1 and 2.
        let passes: Vec<u32> = tracer
            .spans()
            .iter()
            .filter(|sp| sp.name == "bench.pass")
            .map(|sp| sp.pass)
            .collect();
        assert_eq!(passes, [0, 1, 2]);
        assert!(cell_seconds(&tracer).is_empty(), "not a Table I workload");
    }
}
