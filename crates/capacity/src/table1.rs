//! Table I — "Simulation results (empirical method)".
//!
//! For each workload A ∈ {40, 80, 120, 160, 200, 240} Erlangs the paper
//! reports: channels used, CPU band, MOS, RTP message count, blocked-call
//! percentage, and SIP message counts by type. [`table1`] regenerates all
//! of it from empirical runs.

use crate::experiment::{ConfigError, EmpiricalConfig, RunResult};
use crate::sweep;
use serde::{Deserialize, Serialize};

/// The paper's six workloads, in Erlangs.
pub const PAPER_WORKLOADS: [f64; 6] = [40.0, 80.0, 120.0, 160.0, 200.0, 240.0];

/// One column of Table I.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Workload in Erlangs (A).
    pub erlangs: f64,
    /// Peak concurrent channels used (N).
    pub channels_used: u32,
    /// CPU utilisation band (min, max) over 5 s windows, in percent.
    pub cpu_band_pct: (f64, f64),
    /// Mean MOS over completed calls.
    pub mos: f64,
    /// RTP messages observed at the endpoints.
    pub rtp_messages: u64,
    /// Blocked calls as a percentage of attempts.
    pub blocked_pct: f64,
    /// Total SIP messages.
    pub sip_total: u64,
    /// INVITE count.
    pub invite: u64,
    /// 100 Trying count.
    pub trying_100: u64,
    /// 180 Ringing count.
    pub ringing_180: u64,
    /// 200 OK count.
    pub ok_200: u64,
    /// ACK count.
    pub ack: u64,
    /// BYE count.
    pub bye: u64,
    /// Error (≥400) responses.
    pub error_msgs: u64,
    /// Calls attempted.
    pub attempted: u64,
    /// Calls completed.
    pub completed: u64,
}

/// The Table-I column a run measured.
fn table1_row(r: &RunResult) -> Table1Row {
    Table1Row {
        erlangs: r.erlangs,
        channels_used: r.peak_channels,
        cpu_band_pct: (r.cpu_band.0 * 100.0, r.cpu_band.1 * 100.0),
        mos: r.monitor.mos_mean,
        rtp_messages: r.monitor.rtp_packets,
        blocked_pct: r.observed_pb * 100.0,
        sip_total: r.monitor.sip_total,
        invite: r.monitor.sip_request_count("INVITE"),
        trying_100: r.monitor.sip_response_count(100),
        ringing_180: r.monitor.sip_response_count(180),
        ok_200: r.monitor.sip_response_count(200),
        ack: r.monitor.sip_request_count("ACK"),
        bye: r.monitor.sip_request_count("BYE"),
        error_msgs: r.monitor.sip_error_count(),
        attempted: r.attempted,
        completed: r.completed,
    }
}

/// Regenerate Table I at the paper's workloads, with holding time and
/// placement window scaled by `scale` (1 is the paper's 120 s and 180 s;
/// 0.05 is a quick smoke run with ~50× less work). The six cells fan out
/// through the shared-cursor executor ([`crate::sweep`]), one replication
/// each, all seeded with `seed`.
///
/// # Errors
/// The [`ConfigError`] of the first cell [`EmpiricalConfig::validate`]
/// refuses; no cell runs then.
pub fn table1(seed: u64, scale: f64) -> Result<Vec<Table1Row>, ConfigError> {
    sweep::run_grid(
        PAPER_WORKLOADS.len(),
        1,
        seed,
        |cell, _, _| {
            let mut cfg = EmpiricalConfig::table1(PAPER_WORKLOADS[cell], seed);
            cfg.holding = loadgen::HoldingDist::Fixed(120.0 * scale);
            cfg.placement_window_s = 180.0 * scale;
            cfg
        },
        |_, r| table1_row(&r),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::EmpiricalRunner;

    #[test]
    fn scaled_table_has_paper_shape() {
        // 1/20th scale: 9 s placement, 6 s calls. Still hundreds of calls
        // at the top workloads.
        let rows = table1(11, 0.05).unwrap();
        assert_eq!(rows.len(), 6);

        // Zero blocking at A ≤ 120 (the paper's key observation).
        for row in &rows[..3] {
            assert_eq!(row.blocked_pct, 0.0, "A={}", row.erlangs);
        }
        // Blocking appears at A ≥ 200 and grows with load. (At exactly
        // 160 E vs 165 channels the short scaled window may or may not
        // block — the full-length run in the benchmark does.)
        assert!(rows[4].blocked_pct > 0.0, "A=200 must block");
        assert!(rows[5].blocked_pct > rows[4].blocked_pct * 0.8);

        // Channels used grows with workload and caps near the pool size.
        assert!(rows[0].channels_used < rows[5].channels_used);
        assert!(rows[5].channels_used <= 165);
        assert!(rows[4].channels_used >= 160, "overload saturates the pool");

        // MOS stays above 4 everywhere (the paper's quality result).
        for row in &rows {
            assert!(row.mos > 4.0, "A={}: MOS={}", row.erlangs, row.mos);
        }

        // CPU band grows with workload.
        assert!(rows[0].cpu_band_pct.1 < rows[5].cpu_band_pct.1);

        // RTP messages scale with carried calls.
        assert!(rows[0].rtp_messages < rows[2].rtp_messages);

        // SIP accounting is self-consistent: every attempt INVITEs twice
        // on the wire except blocked/failed ones (once), and nearly every
        // attempt draws either a 100 Trying or an error. (A handful of
        // messages can vanish outright at the overload workloads, where
        // the configured wire-error ramp is active.)
        for row in &rows {
            assert!(row.invite >= row.attempted, "A={}", row.erlangs);
            assert!(row.ack >= row.completed);
            assert!(row.bye >= row.completed);
            let resolved = row.trying_100 + row.error_msgs;
            assert!(
                resolved as f64 >= row.attempted as f64 * 0.95,
                "A={}: {} resolved of {}",
                row.erlangs,
                resolved,
                row.attempted
            );
        }
    }

    #[test]
    fn blocked_calls_emit_error_messages() {
        let mut cfg = EmpiricalConfig::smoke(13);
        cfg.erlangs = 20.0;
        cfg.channels = 5;
        cfg.media = crate::experiment::MediaMode::Off;
        let row = table1_row(&EmpiricalRunner::run(cfg));
        assert!(row.blocked_pct > 0.0);
        assert!(row.error_msgs > 0, "486s were counted");
    }
}
