//! Text and JSON renderers for the experiment outputs.

use crate::experiment::RunResult;
use crate::figures::{Fig3Curve, Fig6Point, Fig7Curve};
use crate::table1::Table1Row;
use std::fmt::Write as _;

/// Render Table I in the paper's transposed layout (one column per
/// workload).
#[must_use]
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table I: Simulation results (empirical method)");
    let hdr = |label: &str| format!("{label:<24}");
    let _ = write!(out, "{}", hdr("Workload in Erlangs (A)"));
    for r in rows {
        let _ = write!(out, "{:>12.0}", r.erlangs);
    }
    let _ = writeln!(out);
    let mut line = |label: &str, f: &dyn Fn(&Table1Row) -> String| {
        let _ = write!(out, "{}", hdr(label));
        for r in rows {
            let _ = write!(out, "{:>12}", f(r));
        }
        let _ = writeln!(out);
    };
    line("Channels used (N)", &|r| r.channels_used.to_string());
    line("CPU usage", &|r| {
        format!("{:.0}-{:.0}%", r.cpu_band_pct.0, r.cpu_band_pct.1)
    });
    line("MOS", &|r| format!("{:.2}", r.mos));
    line("RTP messages", &|r| r.rtp_messages.to_string());
    line("Blocked calls (%)", &|r| format!("{:.1}", r.blocked_pct));
    line("SIP messages (total)", &|r| r.sip_total.to_string());
    line("  INVITE", &|r| r.invite.to_string());
    line("  100 TRY", &|r| r.trying_100.to_string());
    line("  180 RING", &|r| r.ringing_180.to_string());
    line("  200 OK", &|r| r.ok_200.to_string());
    line("  ACK", &|r| r.ack.to_string());
    line("  BYE", &|r| r.bye.to_string());
    line("  Error msgs", &|r| r.error_msgs.to_string());
    line("Calls attempted", &|r| r.attempted.to_string());
    line("Calls completed", &|r| r.completed.to_string());
    out
}

/// Render Fig. 3 as an aligned series table (`N` vs `Pb%` per workload).
#[must_use]
pub fn render_fig3(curves: &[Fig3Curve], sample_every: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3: Erlang-B blocking probability vs channels (Pb%)"
    );
    let _ = write!(out, "{:>6}", "N");
    for c in curves {
        let _ = write!(out, "{:>9.0}E", c.erlangs);
    }
    let _ = writeln!(out);
    let n_points = curves.first().map_or(0, |c| c.points.len());
    for i in (0..n_points).step_by(sample_every.max(1)) {
        let _ = write!(out, "{:>6}", curves[0].points[i].0);
        for c in curves {
            let _ = write!(out, "{:>10.3}", c.points[i].1);
        }
        let _ = writeln!(out);
    }
    out
}

/// Render the Fig. 6 comparison.
#[must_use]
pub fn render_fig6(points: &[Fig6Point]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 6: empirical vs Erlang-B blocking (Pb%) — N rails 160/165/170"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>8} {:>10} {:>10} {:>10}",
        "Erlangs", "empirical", "±95%CI", "B(A,160)", "B(A,165)", "B(A,170)"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>8.0} {:>12.2} {:>8.2} {:>10.2} {:>10.2} {:>10.2}",
            p.erlangs,
            p.empirical_pb_pct,
            p.ci_half_width_pct,
            p.analytic_160,
            p.analytic_165,
            p.analytic_170
        );
    }
    out
}

/// Render the Fig. 7 curves.
#[must_use]
pub fn render_fig7(
    curves: &[Fig7Curve],
    population: u64,
    channels: u32,
    sample_every: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 7: blocking vs calling population share ({population} users, N={channels})"
    );
    let _ = write!(out, "{:>6}", "pop%");
    for c in curves {
        let _ = write!(out, "{:>9.1}min", c.duration_min);
    }
    let _ = writeln!(out);
    let n_points = curves.first().map_or(0, |c| c.points.len());
    for i in (0..n_points).step_by(sample_every.max(1)) {
        let _ = write!(out, "{:>6.0}", curves[0].points[i].0);
        for c in curves {
            let _ = write!(out, "{:>12.2}", c.points[i].1);
        }
        let _ = writeln!(out);
    }
    out
}

/// Render the robustness summary of a run: overload-control and retry
/// accounting plus per-fault recovery times. Meaningful when the run had
/// a fault schedule, shedding or retries configured; harmless otherwise.
#[must_use]
pub fn render_robustness(r: &RunResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Robustness summary ({} E offered)", r.erlangs);
    let _ = writeln!(out, "{:<28}{:>10}", "Calls attempted", r.attempted);
    let _ = writeln!(out, "{:<28}{:>10}", "Completed first try", r.completed);
    let _ = writeln!(out, "{:<28}{:>10}", "Shed (503)", r.shed);
    let _ = writeln!(out, "{:<28}{:>10}", "Retries sent", r.retries);
    let _ = writeln!(out, "{:<28}{:>10}", "Shed then completed", r.shed_then_ok);
    let _ = writeln!(out, "{:<28}{:>10}", "Blocked (486)", r.blocked);
    let _ = writeln!(out, "{:<28}{:>10}", "Failed", r.failed);
    let _ = writeln!(out, "{:<28}{:>10}", "Goodput (calls)", r.goodput);
    let goodput_ratio = if r.attempted == 0 {
        0.0
    } else {
        100.0 * r.goodput as f64 / r.attempted as f64
    };
    let _ = writeln!(out, "{:<28}{:>9.1}%", "Goodput ratio", goodput_ratio);
    let _ = write!(out, "{:<28}", "Peak-in-use gauge/server");
    for p in &r.per_server_peak_in_use {
        let _ = write!(out, "{p:>6}");
    }
    let _ = writeln!(out);
    if !r.recoveries.is_empty() {
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>8}  fault",
            "fault@s", "baseline/s", "ttr(s)"
        );
        for rec in &r.recoveries {
            // An absent recovery is censored, not eternal: the run only
            // watched `censor_horizon_s` seconds past the fault.
            let ttr = rec.time_to_recover_s.map_or_else(
                || format!(">{:.0}", rec.censor_horizon_s),
                |t| format!("{t:.0}"),
            );
            let _ = writeln!(
                out,
                "{:>8.0} {:>10.2} {:>8}  {}",
                rec.fault_at_s, rec.baseline_rate, ttr, rec.fault
            );
        }
    }
    out
}

/// Render the engine-throughput summary of a run: how much simulated
/// work the event loop did per wall-clock second.
#[must_use]
pub fn render_throughput(r: &RunResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Engine throughput ({} E offered)", r.erlangs);
    let _ = writeln!(out, "{:<28}{:>14}", "Events processed", r.events_processed);
    let _ = writeln!(out, "{:<28}{:>13.1}s", "Simulated time", r.sim_seconds);
    let _ = writeln!(out, "{:<28}{:>13.2}s", "Wall clock", r.wall_clock_s);
    let _ = writeln!(
        out,
        "{:<28}{:>14}",
        "Events/sec",
        format!("{:.0}", r.events_per_sec)
    );
    let speedup = if r.wall_clock_s > 0.0 {
        r.sim_seconds / r.wall_clock_s
    } else {
        0.0
    };
    let _ = writeln!(out, "{:<28}{:>13.0}x", "Real-time speedup", speedup);
    out
}

/// Serialize any experiment artifact to pretty JSON.
pub fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;

    fn sample_row(erlangs: f64) -> Table1Row {
        Table1Row {
            erlangs,
            channels_used: 42,
            cpu_band_pct: (15.0, 20.0),
            mos: 4.41,
            rtp_messages: 722_216,
            blocked_pct: 0.0,
            sip_total: 780,
            invite: 120,
            trying_100: 60,
            ringing_180: 120,
            ok_200: 240,
            ack: 120,
            bye: 120,
            error_msgs: 0,
            attempted: 60,
            completed: 60,
        }
    }

    #[test]
    fn table1_rendering_contains_all_rows() {
        let text = render_table1(&[sample_row(40.0), sample_row(80.0)]);
        for needle in [
            "Workload in Erlangs",
            "Channels used",
            "CPU usage",
            "MOS",
            "RTP messages",
            "Blocked calls",
            "INVITE",
            "100 TRY",
            "Error msgs",
            "722216",
            "4.41",
            "15-20%",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn fig3_rendering_samples_rows() {
        let curves = figures::fig3(100);
        let text = render_fig3(&curves, 20);
        assert!(text.contains("Figure 3"));
        assert!(text.lines().count() > 4);
        // Contains the 20E..240E headers.
        assert!(text.contains("20E"));
        assert!(text.contains("240E"));
    }

    #[test]
    fn fig7_rendering() {
        let curves = figures::fig7(8000, 165);
        let text = render_fig7(&curves, 8000, 165, 10);
        assert!(text
            .starts_with("Figure 7: blocking vs calling population share (8000 users, N=165)\n"));
        assert!(text.contains("2.0min"));
        assert!(text.contains("3.0min"));
    }

    #[test]
    fn robustness_rendering_lists_faults() {
        use crate::experiment::{EmpiricalConfig, EmpiricalRunner, MediaMode};
        use des::SimDuration;
        use faults::{FaultKind, FaultSchedule};
        let mut cfg = EmpiricalConfig::smoke(11);
        cfg.media = MediaMode::Off;
        cfg.faults = FaultSchedule::new().at(
            8.0,
            FaultKind::PbxCrash {
                pbx: 0,
                restart_after: SimDuration::from_secs(2),
            },
        );
        let r = EmpiricalRunner::run(cfg);
        let text = render_robustness(&r);
        for needle in ["Shed (503)", "Retries sent", "Goodput", "PbxCrash"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn robustness_rendering_censors_unrecovered_faults_with_horizon() {
        use crate::experiment::{EmpiricalConfig, EmpiricalRunner, FaultRecovery, MediaMode};
        let mut cfg = EmpiricalConfig::smoke(13);
        cfg.media = MediaMode::Off;
        let mut r = EmpiricalRunner::run(cfg);
        r.recoveries = vec![FaultRecovery {
            fault_at_s: 20.0,
            fault: "LinkPartition".to_owned(),
            baseline_rate: 4.0,
            time_to_recover_s: None,
            censor_horizon_s: 37.0,
        }];
        let text = render_robustness(&r);
        assert!(
            text.contains(">37"),
            "censored recovery must show the horizon, not a blank:\n{text}"
        );
        assert!(!text.contains("never"), "no open-ended 'never' claim");
    }

    #[test]
    fn throughput_rendering() {
        use crate::experiment::{EmpiricalConfig, EmpiricalRunner};
        let r = EmpiricalRunner::run(EmpiricalConfig::smoke(12));
        let text = render_throughput(&r);
        for needle in [
            "Events processed",
            "Wall clock",
            "Events/sec",
            "Real-time speedup",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(r.wall_clock_s > 0.0);
        assert!(r.events_per_sec > 0.0);
    }

    #[test]
    fn json_round_trips() {
        let row = sample_row(40.0);
        let json = to_json(&row);
        let back: Table1Row = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rtp_messages, row.rtp_messages);
        assert_eq!(back.erlangs, row.erlangs);
    }
}
