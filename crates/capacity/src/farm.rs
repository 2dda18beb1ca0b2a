//! The §IV server-farm study — the paper's other scaling alternative,
//! implemented and measured.
//!
//! Splitting a load across k servers of N/k channels each is *worse* than
//! one pooled server of N channels (trunking efficiency: Erlang-B is
//! super-additive in pool size). This module measures that penalty
//! empirically with uniform random (Bernoulli) dispatch and compares it
//! against the analytical prediction, so a deployer can weigh "buy a
//! bigger box" against "add more boxes + policy".

use crate::experiment::EmpiricalConfig;
use crate::sweep;
use serde::Serialize;
use teletraffic::{blocking_probability, Erlangs};

/// One farm configuration's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct FarmRow {
    /// Number of servers.
    pub servers: u32,
    /// Channels per server.
    pub channels_each: u32,
    /// Total channels across the farm.
    pub total_channels: u32,
    /// Observed steady-state blocking, %.
    pub empirical_pb_pct: f64,
    /// Analytical prediction for the Bernoulli split (each substream
    /// stays Poisson): `B(A/k, N/k)` per server, %.
    pub analytic_split_pct: f64,
    /// Analytical blocking had the channels been pooled: `B(A, N_total)`, %.
    pub analytic_pooled_pct: f64,
    /// Peak channels on the busiest server.
    pub busiest_peak: u32,
}

/// The configuration one farm replication runs.
fn farm_cfg(erlangs: f64, servers: u32, channels_each: u32, seed: u64) -> EmpiricalConfig {
    let mut cfg = EmpiricalConfig::signalling_only(erlangs, seed);
    cfg.servers = servers;
    cfg.channels = channels_each;
    cfg.placement_window_s = 600.0;
    cfg
}

/// Compare farm layouts carrying the same offered load with the same
/// total channel count: 1×N, 2×N/2, … — the trunking-efficiency study.
/// Blocking is averaged over `reps` independent replications per layout;
/// the `(layout, rep)` grid fans out through the shared-cursor executor
/// ([`crate::sweep`]).
#[must_use]
pub fn farm_study(
    erlangs: f64,
    total_channels: u32,
    layouts: &[u32],
    reps: u64,
    seed: u64,
) -> Vec<FarmRow> {
    let reps = reps.max(1);
    let all_runs = sweep::run_grid(
        layouts.len(),
        reps,
        seed,
        |cell, _, seed| farm_cfg(erlangs, layouts[cell], total_channels / layouts[cell], seed),
        |_, run| run,
    );
    layouts
        .iter()
        .enumerate()
        .map(|(cell, &servers)| {
            let runs = sweep::grid_row(&all_runs, reps, cell);
            let channels_each = total_channels / servers;
            let mean_pb = runs.iter().map(|r| r.steady_pb).sum::<f64>() / runs.len() as f64;
            let busiest_peak = runs.iter().map(|r| r.peak_channels).max().unwrap_or(0);
            // Random dispatch splits the Poisson stream into k thinned
            // Poisson streams of rate λ/k, each offered to N/k channels.
            let analytic_split =
                blocking_probability(Erlangs(erlangs / f64::from(servers)), channels_each);
            let analytic_pooled = blocking_probability(Erlangs(erlangs), channels_each * servers);
            FarmRow {
                servers,
                channels_each,
                total_channels: channels_each * servers,
                empirical_pb_pct: mean_pb * 100.0,
                analytic_split_pct: analytic_split * 100.0,
                analytic_pooled_pct: analytic_pooled * 100.0,
                busiest_peak,
            }
        })
        .collect()
}

/// Render the study.
#[must_use]
pub fn render_farm(erlangs: f64, rows: &[FarmRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Server-farm study at {erlangs:.0} E offered, equal total channels"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>8} {:>11} {:>12} {:>12} {:>8}",
        "servers", "ch/server", "total", "empirical", "B(A/k,N/k)", "B(A,Ntot)", "peak"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>8} {:>10.2}% {:>11.2}% {:>11.2}% {:>8}",
            r.servers,
            r.channels_each,
            r.total_channels,
            r.empirical_pb_pct,
            r.analytic_split_pct,
            r.analytic_pooled_pct,
            r.busiest_peak
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::EmpiricalRunner;

    /// Small-system version of the study (fast in debug builds).
    fn small_farm(servers: u32, seed: u64) -> crate::experiment::RunResult {
        let mut cfg = EmpiricalConfig::signalling_only(20.0, seed);
        cfg.servers = servers;
        cfg.channels = 24 / servers;
        cfg.holding = loadgen::HoldingDist::Exponential(30.0);
        cfg.placement_window_s = 400.0;
        EmpiricalRunner::run(cfg)
    }

    #[test]
    fn split_pools_block_more_than_pooled() {
        // 20 E onto 24 channels: pooled blocks ~7%, split 2×12 blocks
        // ~21% per Erlang-B. The empirical farm must show the penalty.
        let pooled: f64 = (0..3).map(|s| small_farm(1, s).steady_pb).sum::<f64>() / 3.0;
        let split: f64 = (0..3).map(|s| small_farm(2, s).steady_pb).sum::<f64>() / 3.0;
        let analytic_pooled = blocking_probability(Erlangs(20.0), 24);
        let analytic_split = blocking_probability(Erlangs(10.0), 12);
        // Analytic gap is ~4 pp (11.9% vs 7.8%); require at least half of
        // it to show through the Monte-Carlo noise.
        assert!(
            split > pooled + 0.02,
            "trunking efficiency: split {split:.3} vs pooled {pooled:.3}"
        );
        assert!(
            (pooled - analytic_pooled).abs() < 0.05,
            "pooled {pooled:.3} vs {analytic_pooled:.3}"
        );
        assert!(
            (split - analytic_split).abs() < 0.06,
            "split {split:.3} vs {analytic_split:.3}"
        );
    }

    #[test]
    fn farm_distributes_calls_evenly() {
        let r = small_farm(2, 9);
        assert_eq!(r.per_server_peaks.len(), 2);
        // Uniform dispatch: both servers carry comparable peaks.
        let (a, b) = (r.per_server_peaks[0], r.per_server_peaks[1]);
        assert!(a > 0 && b > 0);
        assert!(a.abs_diff(b) <= 4, "peaks {a} vs {b}");
        // Calls complete through both servers.
        assert!(r.completed > 100);
        assert_eq!(
            r.attempted,
            r.completed + r.blocked + r.failed + r.abandoned
        );
    }

    #[test]
    fn every_uac_gets_the_signalling_of_its_own_calls() {
        use crate::experiment::{run_world, MediaMode};
        use loadgen::CallOutcome;

        // A clean signalling-only farm drains long before this horizon,
        // so every call ends in its own UAC's journal. A response, a
        // hangup or a retry handed to the wrong UAC leaves the owner's
        // call hanging: abandoned at `finish`.
        let mut cfg = EmpiricalConfig::smoke(8);
        cfg.servers = 3;
        cfg.erlangs = 9.0;
        cfg.channels = 12;
        cfg.media = MediaMode::Off;
        let mut sim = run_world(cfg.clone(), des::SimTime::from_secs(600));
        let mut attempted = 0;
        for (k, uac) in sim.world.uacs.iter_mut().enumerate() {
            uac.finish();
            let journal = &uac.journal;
            assert!(journal.attempted > 0, "UAC {k} placed no call");
            for outcome in [CallOutcome::Failed, CallOutcome::Abandoned] {
                assert_eq!(journal.outcome_count(outcome), 0, "UAC {k}: {outcome:?}");
            }
            attempted += journal.attempted;
        }
        assert_eq!(attempted, EmpiricalRunner::run(cfg).attempted);
    }

    #[test]
    fn farm_media_also_works() {
        // Full media through a 2-server farm: packets relay correctly and
        // MOS is scored per call regardless of which server bridged it.
        let mut cfg = crate::experiment::EmpiricalConfig::smoke(77);
        cfg.servers = 2;
        cfg.erlangs = 4.0;
        cfg.channels = 6;
        let r = EmpiricalRunner::run(cfg);
        assert!(r.completed > 0);
        assert!(r.monitor.rtp_packets > 0);
        assert!(r.monitor.mos_mean > 4.0, "mos={}", r.monitor.mos_mean);
    }

    #[test]
    fn crash_on_one_server_and_flash_crowd_spare_the_rest() {
        use crate::experiment::run_world;
        use des::{SimDuration, SimTime};
        use faults::{FaultKind, FaultSchedule};

        let (crash_at, outage) = (4.0, 3.0);
        let mut cfg = EmpiricalConfig::smoke(4242);
        cfg.servers = 4;
        cfg.erlangs = 40.0;
        cfg.channels = 12;
        cfg.user_pool = 40;
        cfg.placement_window_s = 12.0;
        cfg.faults = FaultSchedule::new()
            .at(
                crash_at,
                FaultKind::PbxCrash {
                    pbx: 1,
                    restart_after: SimDuration::from_secs_f64(outage),
                },
            )
            .at(
                6.0,
                FaultKind::FlashCrowd {
                    rate_multiplier: 3.0,
                    duration: SimDuration::from_secs(4),
                },
            );

        // Interior view: the crash lands on PBX 1 alone, and while it is
        // dark (answering nothing) each of the other three keeps answering.
        // Read each PBX's answered-call, sent-SIP and relayed-RTP counters
        // at the crash and just before the restart.
        let counters = |world: &crate::world::World| -> Vec<[u64; 3]> {
            let stats = world.pbxes.iter().map(pbx_sim::Pbx::stats);
            stats
                .map(|s| [s.calls_answered, s.sip_out, s.rtp_relayed])
                .collect()
        };
        let restart = SimTime::from_secs_f64(crash_at + outage);
        let mut sim = run_world(cfg.clone(), SimTime::from_secs_f64(crash_at));
        let before = counters(&sim.world);
        sim.run_until(SimTime::from_nanos(restart.as_nanos() - 1));
        let during = counters(&sim.world);
        sim.run_until(SimTime::from_secs(40));
        for (k, pbx) in sim.world.pbxes.iter().enumerate() {
            assert_eq!(pbx.stats().crashes, u64::from(k == 1), "PBX {k}");
        }
        for k in 0..4 {
            let [answered, sent, relayed] = [0, 1, 2].map(|i| during[k][i] - before[k][i]);
            assert_eq!(answered == 0, k == 1, "PBX {k}");
            if k == 1 {
                assert_eq!((sent, relayed), (0, 0), "the dark PBX sent nothing");
            }
        }

        let a = EmpiricalRunner::run(cfg);
        assert!(a.completed > 0);
        assert_eq!(
            a.attempted,
            a.completed + a.blocked + a.failed + a.abandoned
        );
        assert_eq!(a.recoveries.len(), 1, "the crash is the one disruption");
        // Printed at the commit before the run-selectable heap backend
        // was retired, where the same cell also ran heap ≡ wheel.
        assert_eq!(a.digest(), 0x69e0_d45c_6ffc_2a80, "{a:?}");
    }

    #[test]
    fn population_spreads_calls_and_churn_over_the_farm() {
        use crate::experiment::{run_world, MediaMode};

        let mut cfg = EmpiricalConfig::smoke(31);
        cfg.servers = 2;
        cfg.erlangs = 12.0;
        cfg.channels = 8;
        cfg.media = MediaMode::Off;
        let mut pop =
            loadgen::PopulationConfig::for_offered_load(240, cfg.erlangs, cfg.holding.mean());
        pop.reg_expiry_s = 30.0;
        pop.churn_buckets = 8;
        cfg.population = Some(pop);

        // Beyond the prime's 2 × user_pool classic REGISTERs, each PBX
        // must have seen churn re-REGISTERs (dealt `rank % servers`), and
        // both must have bridged population calls (dispatch draw).
        let sim = run_world(cfg.clone(), des::SimTime::from_secs(40));
        for (k, pbx) in sim.world.pbxes.iter().enumerate() {
            let (registered, auth_failures) = pbx.registrar.stats();
            assert!(
                registered > 2 * u64::from(cfg.user_pool),
                "PBX {k}: {registered}"
            );
            assert_eq!(auth_failures, 0, "PBX {k}");
            assert!(
                pbx.cdr.count(pbx_sim::Disposition::Answered) > 0,
                "PBX {k} bridged no call"
            );
        }

        let agg = EmpiricalRunner::run(cfg);
        assert!(agg.completed > 0);
        assert_eq!(
            agg.attempted,
            agg.completed + agg.blocked + agg.failed + agg.abandoned
        );
        // Printed at the commit before the population reference engine
        // was retired.
        assert_eq!(agg.digest(), 0xc81e_210d_52f7_e45a, "{agg:?}");
    }

    #[test]
    fn render_shows_layouts() {
        let rows = vec![FarmRow {
            servers: 2,
            channels_each: 82,
            total_channels: 164,
            empirical_pb_pct: 9.0,
            analytic_split_pct: 9.4,
            analytic_pooled_pct: 4.4,
            busiest_peak: 82,
        }];
        let text = render_farm(150.0, &rows);
        assert!(text.contains("150 E"));
        assert!(text.contains("82"));
    }
}
