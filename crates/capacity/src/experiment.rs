//! One empirical run: configuration → world → results.
//!
//! This is the paper's Fig. 5 loop, made executable: the SIP client
//! generates calls at arrival rate λ = A/h, the SIP server answers them,
//! both exchange RTP for `h` seconds through the PBX, and blocking rate +
//! voice quality are evaluated and registered.

use crate::world::{star_hosts, Ev, World};
use des::{Scheduler, SchedulerKind, SimDuration, SimTime, Simulation};
use faults::{FaultKind, FaultSchedule};
use loadgen::{CallOutcome, HoldingDist, Pacer, RetryPolicy};
use netsim::topology::nodes;
use overload::ControlLaw;
use serde::Serialize;
use teletraffic::Erlangs;
use vmon::MonitorReport;

/// How the media plane is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaMode {
    /// No RTP at all — signalling-only runs for blocking-probability
    /// sweeps (Fig. 6), where media adds nothing but wall-clock time.
    Off,
    /// Every RTP packet is generated, relayed and scored. Payload bytes
    /// are observable only under `capture_traffic` (they reach the pcap),
    /// where each stream re-encodes real G.711 audio every tenth frame and
    /// the frames between reuse the cached companded payload. A run with
    /// no span port reads only headers and encodes nothing.
    PerPacket,
}

/// Names the future-event-list backend every run uses. No function takes
/// one: [`run_world`] reads the default, and the benchmark's scheduler
/// replay reads the same field so it prices the backend the runs are on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimOptions {
    /// Future-event-list backend (`SchedulerKind::default()`, the wheel).
    pub scheduler: SchedulerKind,
}

/// Configuration for one empirical run.
#[derive(Debug, Clone)]
pub struct EmpiricalConfig {
    /// Offered workload in Erlangs (`A`).
    pub erlangs: f64,
    /// Number of PBX servers, each call dispatched to a uniformly random
    /// one (1 = the paper's testbed; >1 = the §IV server-farm
    /// alternative). Each server gets the full `channels` pool.
    pub servers: u32,
    /// Holding-time law (`h`; the paper fixes 120 s).
    pub holding: HoldingDist,
    /// Call placement window in seconds (the paper uses 180 s).
    pub placement_window_s: f64,
    /// PBX channel-pool size (`N`).
    pub channels: u32,
    /// Media simulation mode.
    pub media: MediaMode,
    /// UAS pickup delay (0 = answer immediately, SIPp default).
    pub pickup_delay: SimDuration,
    /// Random per-link loss probability (models the wire-level "packet
    /// errors" the paper reports at extreme load; 0 = clean).
    pub link_loss_probability: f64,
    /// Silence suppression (VAD): when true, endpoints model talkspurts
    /// (≈42% activity) and suppress RTP during silence. The paper's
    /// testbed keeps this **off** ("a dialogue without moments of
    /// idleness"); `silence_suppression_cuts_media_volume` measures what it
    /// would have saved.
    pub silence_suppression: bool,
    /// Capture all delivered traffic into an in-memory pcap (the
    /// Wireshark substitution made literal). Costs memory proportional to
    /// traffic; intended for small demonstration runs. Retrieve via
    /// [`crate::world::World::capture`] on a [`run_world`] simulation.
    pub capture_traffic: bool,
    /// Number of distinct caller (and callee) identities registered.
    pub user_pool: u32,
    /// Per-user concurrent-call ceiling (`None` = unlimited, the paper's
    /// testbed; `Some(k)` = the §IV call-policy experiment).
    pub max_calls_per_user: Option<u32>,
    /// Scheduled faults injected during the run (empty = the paper's
    /// healthy testbed).
    pub faults: FaultSchedule,
    /// PBX overload-control law from the [`overload`] crate (`None` =
    /// saturate like the paper's server). Rate/window laws additionally
    /// arm a caller-side [`loadgen::Pacer`] that obeys the PBX's
    /// `X-Overload-Control` feedback.
    pub overload_law: Option<ControlLaw>,
    /// UAC 503-retry behaviour (`None` = a shed call counts as blocked).
    pub retry: Option<RetryPolicy>,
    /// Finite-source population workload (`None` = the classic fixed
    /// `user_pool` open-loop arrivals). When set, call arrivals come from
    /// the aggregated Engset engine over `subscribers` users (caller `u`
    /// is uid `1_000_000 + u`, or starts past the last classic callee if
    /// the callees reach 1 000 000), registration churn runs as a steady
    /// state on the expiry wheel, and per-call monitor state is retired
    /// after hangup — the million-subscriber mode. The classic pool still
    /// primes (it provides the callee extensions); flash-crowd faults are
    /// rejected by [`EmpiricalConfig::validate`].
    pub population: Option<loadgen::PopulationConfig>,
    /// Master RNG seed: a run is a pure function of this value.
    pub seed: u64,
}

impl EmpiricalConfig {
    /// The paper's Table I cell for workload `erlangs`: h = 120 s fixed,
    /// 180 s placement, 165 channels, full per-packet media.
    #[must_use]
    pub fn table1(erlangs: f64, seed: u64) -> Self {
        EmpiricalConfig {
            erlangs,
            servers: 1,
            holding: HoldingDist::Fixed(120.0),
            placement_window_s: 180.0,
            channels: 165,
            media: MediaMode::PerPacket,
            pickup_delay: SimDuration::ZERO,
            // The paper observes wire-level packet errors only at its
            // highest workloads; a small loss ramp above 160 E reproduces
            // the reported MOS dip and error counts.
            link_loss_probability: ((erlangs - 160.0).max(0.0) / 80.0) * 2e-3,
            silence_suppression: false,
            capture_traffic: false,
            user_pool: 100,
            max_calls_per_user: None,
            faults: FaultSchedule::new(),
            overload_law: None,
            retry: None,
            population: None,
            seed,
        }
    }

    /// Signalling-only variant for blocking-probability sweeps (Fig. 6).
    #[must_use]
    pub fn signalling_only(erlangs: f64, seed: u64) -> Self {
        EmpiricalConfig {
            media: MediaMode::Off,
            link_loss_probability: 0.0,
            ..EmpiricalConfig::table1(erlangs, seed)
        }
    }

    /// The caller-side pacer the overload law arms: rate and window laws
    /// pace the UAC, which starts wide open and tightens as
    /// `X-Overload-Control` values arrive; every other law arms none.
    #[must_use]
    pub(crate) fn pacer(&self) -> Option<Pacer> {
        match self.overload_law {
            Some(ControlLaw::RateBased { max_rate_cps, .. }) => Some(Pacer::rate(max_rate_cps)),
            Some(ControlLaw::WindowBased { max_window, .. }) => Some(Pacer::window(max_window)),
            _ => None,
        }
    }

    /// Reject configurations the world cannot run as written, where the
    /// configuration enters it ([`World::new`]).
    ///
    /// Every classic call draws its caller and callee from `user_pool`,
    /// and every population call its callee, so the pool holds at least
    /// one user.
    ///
    /// Every fault must aim inside the farm: a crash or throttle at a
    /// server index below `servers`, a link fault at one of the star's
    /// links (the switch and one of the two SIPp hosts or a PBX). Anything
    /// else would silently run as a healthy testbed.
    ///
    /// The finite-source population does not compose with a flash crowd:
    /// it scales the open-loop arrival process, which population mode
    /// never reads.
    ///
    /// # Panics
    /// If `user_pool` is 0, if a fault aims outside the farm, or if
    /// `population` is set together with a [`FaultKind::FlashCrowd`] in
    /// `faults`.
    pub fn validate(&self) {
        assert!(
            self.user_pool > 0,
            "user_pool must be >= 1: calls draw users from it"
        );
        let servers = self.servers.max(1);
        let host = |n| star_hosts(servers).any(|h| h == n);
        let star_link = |a, b| (a == nodes::SWITCH && host(b)) || (b == nodes::SWITCH && host(a));
        for event in self.faults.events() {
            let in_farm = match event.kind {
                FaultKind::LinkDegrade { a, b, .. }
                | FaultKind::LinkPartition { a, b }
                | FaultKind::LinkHeal { a, b } => star_link(a, b),
                FaultKind::PbxCrash { pbx, .. } | FaultKind::CpuThrottle { pbx, .. } => {
                    pbx < servers
                }
                FaultKind::FlashCrowd { .. } => true,
            };
            assert!(
                in_farm,
                "fault aimed outside the {servers}-server farm: {event:?}"
            );
        }
        assert!(
            self.population.is_none()
                || !self
                    .faults
                    .events()
                    .iter()
                    .any(|e| matches!(e.kind, FaultKind::FlashCrowd { .. })),
            "population × FlashCrowd is unsupported: a flash crowd scales the open-loop \
             arrival rate, which population mode never reads"
        );
    }

    /// Rough estimate of concurrently pending scheduler events, used to
    /// pre-size the future-event list. Each concurrent call keeps a
    /// handful of events in flight (its media cadence, packets crossing
    /// the star, its hangup timer); concurrency is bounded by offered
    /// load and the channel pool.
    #[must_use]
    pub fn expected_pending_events(&self) -> usize {
        let concurrent = (self.erlangs.ceil() as usize)
            .min(self.channels as usize)
            .max(1)
            * self.servers.max(1) as usize;
        let per_call = match self.media {
            MediaMode::Off => 4,
            MediaMode::PerPacket => 8,
        };
        concurrent * per_call + 1024
    }

    /// A small smoke-test configuration that runs in milliseconds even in
    /// debug builds (short window, light load).
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        EmpiricalConfig {
            holding: HoldingDist::Fixed(10.0),
            placement_window_s: 20.0,
            channels: 5,
            user_pool: 20,
            ..EmpiricalConfig::table1(4.0, seed)
        }
    }

    /// A population-scale cell: `subscribers` finite sources offering
    /// `erlangs` at the diurnal peak, signalling-only, with registration
    /// churn on. `per_user_rate` is sized so the *busy hour* offers
    /// `erlangs`; a compressed campus day sweeps the whole profile inside
    /// the placement window so the run crosses the peak.
    #[must_use]
    pub fn population_scale(subscribers: u64, erlangs: f64, seed: u64) -> Self {
        let mut cfg = EmpiricalConfig::signalling_only(erlangs, seed);
        let mut pop =
            loadgen::PopulationConfig::for_offered_load(subscribers, erlangs, cfg.holding.mean());
        pop.profile = loadgen::DiurnalProfile::campus_day_compressed(cfg.placement_window_s);
        cfg.population = Some(pop);
        cfg
    }
}

/// Recovery accounting for one injected disruption.
///
/// The baseline is the mean answers/second over the ten seconds before
/// the fault; recovery is the first post-fault second whose trailing
/// 5-second mean answer rate is back within 5% of that baseline.
#[derive(Debug, Clone, Serialize)]
pub struct FaultRecovery {
    /// When the fault fired, in seconds.
    pub fault_at_s: f64,
    /// Human-readable fault description (the `FaultKind` debug form).
    pub fault: String,
    /// Pre-fault answer rate (answers/second).
    pub baseline_rate: f64,
    /// Seconds from the fault until the answer rate returned to within
    /// 5% of baseline; `None` if it never did inside the horizon (or if
    /// there was no pre-fault traffic to recover to).
    pub time_to_recover_s: Option<f64>,
    /// Observation horizon in seconds after the fault: how long the run
    /// could have watched for a recovery. A `None` above is a *censored*
    /// observation — "no recovery within `censor_horizon_s` seconds" —
    /// not "never recovers"; reports render it `>Ns` accordingly.
    pub censor_horizon_s: f64,
}

/// Results of one empirical run.
#[derive(Debug, Clone, Serialize)]
pub struct RunResult {
    /// Offered workload in Erlangs.
    pub erlangs: f64,
    /// Calls attempted (INVITEs placed).
    pub attempted: u64,
    /// Calls answered and completed.
    pub completed: u64,
    /// Calls blocked at admission.
    pub blocked: u64,
    /// Calls failed for other reasons.
    pub failed: u64,
    /// Calls still open at the end of the run.
    pub abandoned: u64,
    /// Observed blocking probability (blocked / attempted) over the whole
    /// placement window — the paper's raw empirical measure, which carries
    /// the fill-up transient of the first holding time.
    pub observed_pb: f64,
    /// Steady-state blocking: attempts arriving after one holding time of
    /// warmup (standard transient truncation). This is the estimator the
    /// Erlang-B comparison of Fig. 6 uses.
    pub steady_pb: f64,
    /// Attempts counted in the steady-state window.
    pub steady_attempts: u64,
    /// Erlang-B prediction at this load and channel count.
    pub analytic_pb: f64,
    /// Peak concurrent channels used — Table I's "Number of Channels".
    /// (With a farm: the busiest server's peak.)
    pub peak_channels: u32,
    /// Peak concurrent channels per server (length = `servers`).
    pub per_server_peaks: Vec<u32>,
    /// Time-weighted mean channel occupancy (carried Erlangs).
    pub carried_erlangs: f64,
    /// Mean CPU utilisation over the run.
    pub cpu_mean: f64,
    /// (min, max) CPU utilisation over 5 s windows.
    pub cpu_band: (f64, f64),
    /// Monitor report (RTP counts, SIP counts, MOS).
    pub monitor: MonitorReport,
    /// Total simulated duration in seconds.
    pub sim_seconds: f64,
    /// DES events processed (throughput accounting).
    pub events_processed: u64,
    /// Wall-clock seconds the event loop took. Host-dependent, not part
    /// of the physics — excluded from [`RunResult::digest`].
    pub wall_clock_s: f64,
    /// Events processed per wall-clock second (excluded from the digest).
    pub events_per_sec: f64,
    /// Calls shed by PBX overload control (503 + Retry-After).
    pub shed: u64,
    /// UAC re-INVITEs sent after a shed (backoff retries).
    pub retries: u64,
    /// Calls that were shed at least once but completed after retrying.
    pub shed_then_ok: u64,
    /// Goodput: calls that carried a full conversation, whether admitted
    /// first try (`completed`) or after backoff (`shed_then_ok`).
    pub goodput: u64,
    /// Per-server resettable channel high-water gauge at run end (the
    /// crash-recovery refill level when the gauge was re-armed by a
    /// restart; equals the all-time peak otherwise).
    pub per_server_peak_in_use: Vec<u32>,
    /// Recovery accounting for each injected disruption (heal events and
    /// flash crowds are consequences, not disruptions, and are skipped).
    pub recoveries: Vec<FaultRecovery>,
}

impl RunResult {
    /// Order-sensitive FNV-1a digest over the physics outputs: call
    /// counts, blocking, occupancy, CPU and voice-quality figures (float
    /// bit patterns, so "close" is not "equal"). Wall-clock fields are
    /// excluded — two runs agree on `digest()` exactly when the
    /// simulation produced the same results, regardless of how fast the
    /// host executed them.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            v.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in [
            self.attempted,
            self.completed,
            self.blocked,
            self.failed,
            self.abandoned,
            self.steady_attempts,
            u64::from(self.peak_channels),
            self.events_processed,
            self.shed,
            self.retries,
            self.shed_then_ok,
            self.goodput,
            self.monitor.rtp_packets,
            self.monitor.sip_total,
            self.monitor.calls_scored,
        ] {
            h = mix(h, v);
        }
        for p in &self.per_server_peaks {
            h = mix(h, u64::from(*p));
        }
        for f in [
            self.observed_pb,
            self.steady_pb,
            self.carried_erlangs,
            self.cpu_mean,
            self.sim_seconds,
            self.monitor.mos_mean,
            self.monitor.mos_min,
            self.monitor.mean_jitter_ms,
            self.monitor.mean_loss,
        ] {
            h = mix(h, f.to_bits());
        }
        h
    }
}

/// Trailing mean of the `window` seconds of `series` ending at `end_idx`
/// (inclusive), clamped at the start of the series. The series only
/// extends to the last recorded answer; seconds past its end are real
/// silence and count as zero.
fn trailing_mean(series: &[u64], end_idx: usize, window: usize) -> f64 {
    let lo = (end_idx + 1).saturating_sub(window);
    let sum: u64 = (lo..=end_idx)
        .map(|i| series.get(i).copied().unwrap_or(0))
        .sum();
    sum as f64 / (end_idx + 1 - lo) as f64
}

/// Compute [`FaultRecovery`] entries from a per-second answer series.
///
/// Disruptions are partitions, degrades, crashes and throttles with
/// factor > 1; heals, throttle restores and flash crowds are skipped
/// (a flash crowd *raises* the answer rate, so "recovery to baseline"
/// is not the interesting question there).
///
/// `horizon_s` is the end of the observed window (the run's simulated
/// end): a fault that never recovers is censored at
/// `horizon_s - fault_at_s`, and the entry records that horizon so the
/// report can say `>Ns` rather than implying the system was down forever.
#[must_use]
pub fn compute_recoveries(
    faults: &FaultSchedule,
    answers_per_sec: &[u64],
    horizon_s: f64,
) -> Vec<FaultRecovery> {
    let mut out = Vec::new();
    for event in faults.events() {
        let disruptive = match &event.kind {
            FaultKind::LinkPartition { .. }
            | FaultKind::LinkDegrade { .. }
            | FaultKind::PbxCrash { .. } => true,
            FaultKind::CpuThrottle { factor, .. } => *factor > 1.0,
            FaultKind::LinkHeal { .. } | FaultKind::FlashCrowd { .. } => false,
        };
        if !disruptive {
            continue;
        }
        let fault_at_s = event.at.as_secs_f64();
        let fault_sec = fault_at_s as usize;
        let fault = format!("{:?}", event.kind);
        let censor_horizon_s = (horizon_s - fault_at_s).max(0.0);
        if fault_sec == 0 {
            out.push(FaultRecovery {
                fault_at_s,
                fault,
                baseline_rate: 0.0,
                time_to_recover_s: None,
                censor_horizon_s,
            });
            continue;
        }
        // Baseline: mean over the 10 seconds before the fault.
        let baseline_rate = trailing_mean(answers_per_sec, fault_sec - 1, 10);
        let time_to_recover_s = if baseline_rate <= 0.0 {
            None
        } else {
            (fault_sec + 1..answers_per_sec.len())
                .find(|&s| trailing_mean(answers_per_sec, s, 5) >= 0.95 * baseline_rate)
                .map(|s| s as f64 - fault_at_s)
        };
        out.push(FaultRecovery {
            fault_at_s,
            fault,
            baseline_rate,
            time_to_recover_s,
            censor_horizon_s,
        });
    }
    out
}

/// Runs empirical experiments.
pub struct EmpiricalRunner;

impl EmpiricalRunner {
    /// Execute one run to completion and collect the results.
    #[must_use]
    pub fn run(config: EmpiricalConfig) -> RunResult {
        let erlangs = config.erlangs;
        let channels = config.channels;
        // Horizon: placement + longest plausible holding + teardown slack.
        let hold_slack = match config.holding {
            HoldingDist::Fixed(h) => h + 10.0,
            _ => config.holding.mean() * 8.0 + 30.0,
        };
        let mut horizon_s = 1.0 + config.placement_window_s + hold_slack + 5.0;
        if let Some(last) = config.faults.last_effect_time() {
            // Leave room after the last fault effect for re-registration,
            // retried calls and the recovery window to be observable.
            horizon_s = horizon_s.max(last.as_secs_f64() + hold_slack + 15.0);
        }
        let horizon = SimTime::from_secs_f64(horizon_s);

        let started = std::time::Instant::now();
        let mut sim = run_world(config, horizon);
        let wall_clock_s = started.elapsed().as_secs_f64();
        let end = sim.now();
        let events_processed = sim.events_processed();

        let world = &mut sim.world;
        for pbx in &mut world.pbxes {
            pbx.finish(end);
        }
        let mut journal = loadgen::Journal::new();
        for uac in &mut world.uacs {
            uac.finish();
            journal.merge(&uac.journal);
        }

        let attempted = journal.attempted;
        let blocked = journal.outcome_count(CallOutcome::Blocked);
        let completed = journal.outcome_count(CallOutcome::Completed);
        let failed = journal.outcome_count(CallOutcome::Failed);
        let abandoned = journal.outcome_count(CallOutcome::Abandoned);
        let shed_then_ok = journal.outcome_count(CallOutcome::ShedThenOk);
        let retries = journal.retries;
        let observed_pb = journal.blocking_probability();
        let shed = world.pbxes.iter().map(|p| p.stats().calls_shed).sum();
        let recoveries = compute_recoveries(
            &world.config.faults,
            world.answers_per_second(),
            end.as_secs_f64(),
        );

        // Steady-state estimate from the CDRs' steady window (see
        // `World::new`).
        let (steady_attempts, steady_blocked) = world
            .pbxes
            .iter()
            .map(|p| p.cdr.steady())
            .fold((0, 0), |(n, b), (dn, db)| (n + dn, b + db));
        let steady_pb = if steady_attempts == 0 {
            0.0
        } else {
            steady_blocked as f64 / steady_attempts as f64
        };

        RunResult {
            erlangs,
            attempted,
            completed,
            blocked,
            failed,
            abandoned,
            observed_pb,
            steady_pb,
            steady_attempts,
            // Shared-curve lookup, bit-identical to the direct recurrence
            // (the curve memoizes the same pass), so sweeps stop paying
            // an O(channels) solve per replication.
            analytic_pb: teletraffic::erlang_b::shared_curve(Erlangs(erlangs), channels)
                .at(channels),
            peak_channels: world.pbxes.iter().map(|p| p.pool.peak()).max().unwrap_or(0),
            per_server_peaks: world.pbxes.iter().map(|p| p.pool.peak()).collect(),
            carried_erlangs: world
                .pbxes
                .iter()
                .map(|p| p.pool.mean_occupancy(world.placement_end()))
                .sum(),
            cpu_mean: world
                .pbxes
                .iter()
                .map(|p| p.cpu.mean_utilisation(end))
                .sum::<f64>()
                / world.pbxes.len() as f64,
            cpu_band: world
                .pbxes
                .iter()
                .map(|p| p.cpu.utilisation_band())
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), (l, h)| {
                    (lo.min(l), hi.max(h))
                }),
            monitor: world.monitor.report(),
            sim_seconds: end.as_secs_f64(),
            events_processed,
            wall_clock_s,
            events_per_sec: if wall_clock_s > 0.0 {
                events_processed as f64 / wall_clock_s
            } else {
                0.0
            },
            shed,
            retries,
            shed_then_ok,
            goodput: completed + shed_then_ok,
            per_server_peak_in_use: world.pbxes.iter().map(|p| p.pool.peak_in_use()).collect(),
            recoveries,
        }
    }
}

/// Run `config` to `horizon` and return the simulation itself, for callers
/// that need interior access (integration tests, the capture example):
/// the scheduler is pre-sized from
/// [`EmpiricalConfig::expected_pending_events`], primed and driven.
#[must_use]
pub fn run_world(config: EmpiricalConfig, horizon: SimTime) -> Simulation<World, Ev> {
    let sched = Scheduler::with_kind_and_capacity(
        SimOptions::default().scheduler,
        config.expected_pending_events(),
    );
    let mut sim = Simulation::with_scheduler(World::new(config), sched);
    sim.world.prime(&mut sim.sched);
    sim.run_until(horizon);
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_completes_calls() {
        let r = EmpiricalRunner::run(EmpiricalConfig::smoke(42));
        assert!(r.attempted > 0, "calls were placed");
        assert!(r.completed > 0, "calls completed");
        assert_eq!(
            r.attempted,
            r.completed + r.blocked + r.failed + r.abandoned,
            "outcome conservation"
        );
        assert!(r.failed == 0, "no failures expected: {r:?}");
        assert!(r.peak_channels > 0);
        assert!(r.monitor.rtp_packets > 0, "media flowed");
        assert!(r.monitor.mos_mean > 4.0, "clean LAN scores high MOS");
        assert!(r.cpu_mean > 0.0 && r.cpu_mean < 1.0);
    }

    /// Each count has one source, and the two run ledgers agree: the
    /// monitor's SIP rows (Table I) and the UAC journals' outcomes. On a
    /// clean cell (no link loss, faults or pacer) every attempt and retry
    /// sends the PBX an INVITE, which it forwards unless it answers with
    /// an error; each leg ACKs its final response once; each conversation
    /// ends with one BYE per leg.
    #[test]
    fn sip_rows_reconcile_with_the_outcome_journal() {
        let mut shedding = EmpiricalConfig::signalling_only(220.0, 9);
        shedding.overload_law = Some(ControlLaw::hysteresis_default());
        shedding.retry = Some(RetryPolicy::default());
        let cells = [
            EmpiricalConfig::smoke(42),
            EmpiricalConfig::signalling_only(200.0, 7),
            shedding,
        ];
        let runs = cells.map(|cfg| {
            assert_eq!(cfg.link_loss_probability, 0.0);
            assert!(cfg.faults.is_empty() && cfg.pacer().is_none());
            EmpiricalRunner::run(cfg)
        });
        for r in &runs {
            let rows = &r.monitor;
            let invites = 2 * (r.attempted + r.retries) - rows.sip_error_count();
            assert_eq!(rows.sip_request_count("INVITE"), invites, "{r:?}");
            assert_eq!(rows.sip_request_count("ACK"), invites, "{r:?}");
            assert_eq!(rows.sip_request_count("BYE"), 2 * r.goodput, "{r:?}");
            assert!(r.goodput > 0, "{r:?}");
        }
        // The shedding cell exercises the error and retry terms.
        let shed = &runs[2];
        assert!(shed.retries > 0 && shed.monitor.sip_error_count() > 0);
    }

    /// A small finite-source population cell: 200 subscribers offering
    /// the smoke load, signalling-only, with the expiry wheel turning
    /// fast enough to churn inside the 20 s window.
    fn pop_smoke(seed: u64) -> EmpiricalConfig {
        let mut cfg = EmpiricalConfig::smoke(seed);
        cfg.media = MediaMode::Off;
        let mut pop =
            loadgen::PopulationConfig::for_offered_load(200, cfg.erlangs, cfg.holding.mean());
        pop.reg_expiry_s = 30.0;
        pop.churn_buckets = 8;
        cfg.population = Some(pop);
        cfg
    }

    #[test]
    fn population_smoke_places_and_completes_calls() {
        let r = EmpiricalRunner::run(pop_smoke(42));
        assert!(r.attempted > 0, "population arrivals placed calls");
        assert!(r.completed > 0, "population calls completed: {r:?}");
        assert_eq!(
            r.attempted,
            r.completed + r.blocked + r.failed + r.abandoned,
            "outcome conservation"
        );
        assert!(r.failed == 0, "no failures expected: {r:?}");
    }

    #[test]
    fn population_churn_registers_through_the_wheel() {
        // Same cell, one with a wheel that turns during the run, one with
        // an expiry far past the horizon: the churn must show up as extra
        // SIP traffic (REGISTER → 401 challenge → REGISTER+digest → 200),
        // and must not change how many calls the cell carries.
        let churning = EmpiricalRunner::run(pop_smoke(9));
        let mut quiet_cfg = pop_smoke(9);
        quiet_cfg.population.as_mut().unwrap().reg_expiry_s = 1.0e6;
        let quiet = EmpiricalRunner::run(quiet_cfg);
        assert!(
            churning.monitor.sip_total > quiet.monitor.sip_total,
            "churn traffic visible: {} vs {}",
            churning.monitor.sip_total,
            quiet.monitor.sip_total
        );
        assert_eq!(
            churning.completed, quiet.completed,
            "churn is load, not physics"
        );
    }

    /// A two-server farm whose schedule holds the one fault `kind`.
    fn farm_with_fault(kind: FaultKind) -> EmpiricalConfig {
        let mut cfg = EmpiricalConfig::smoke(1);
        cfg.servers = 2;
        cfg.faults = FaultSchedule::new().at(5.0, kind);
        cfg
    }

    #[test]
    fn faults_on_every_star_link_and_server_are_accepted() {
        let mut cfg = farm_with_fault(FaultKind::PbxCrash {
            pbx: 1,
            restart_after: SimDuration::from_secs(1),
        });
        for (a, b) in star_hosts(2).map(|host| (host, nodes::SWITCH)) {
            cfg.faults = cfg.faults.at(6.0, FaultKind::LinkPartition { a, b });
            cfg.faults = cfg.faults.at(7.0, FaultKind::LinkHeal { a: b, b: a });
        }
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "fault aimed outside the 2-server farm")]
    fn a_link_degrade_off_the_star_is_rejected() {
        farm_with_fault(FaultKind::LinkDegrade {
            a: nodes::SIPP_CLIENT,
            b: crate::world::pbx_node(0),
            params: netsim::LinkParams::fast_ethernet(),
        })
        .validate();
    }

    #[test]
    #[should_panic(expected = "fault aimed outside the 2-server farm")]
    fn a_link_partition_of_a_missing_pbx_is_rejected() {
        farm_with_fault(FaultKind::LinkPartition {
            a: crate::world::pbx_node(2),
            b: nodes::SWITCH,
        })
        .validate();
    }

    #[test]
    #[should_panic(expected = "fault aimed outside the 2-server farm")]
    fn a_link_heal_of_a_missing_pbx_is_rejected() {
        farm_with_fault(FaultKind::LinkHeal {
            a: nodes::SWITCH,
            b: crate::world::pbx_node(5),
        })
        .validate();
    }

    #[test]
    #[should_panic(expected = "fault aimed outside the 2-server farm")]
    fn a_crash_of_a_missing_pbx_is_rejected() {
        farm_with_fault(FaultKind::PbxCrash {
            pbx: 2,
            restart_after: SimDuration::from_secs(1),
        })
        .validate();
    }

    #[test]
    #[should_panic(expected = "fault aimed outside the 2-server farm")]
    fn a_throttle_of_a_missing_pbx_is_rejected() {
        farm_with_fault(FaultKind::CpuThrottle {
            pbx: 7,
            factor: 2.0,
        })
        .validate();
    }

    #[test]
    #[should_panic(expected = "user_pool must be >= 1")]
    fn an_empty_user_pool_is_rejected() {
        EmpiricalConfig {
            user_pool: 0,
            ..EmpiricalConfig::smoke(1)
        }
        .validate();
    }

    #[test]
    fn healthy_run_has_no_robustness_activity() {
        let r = EmpiricalRunner::run(EmpiricalConfig::smoke(42));
        assert_eq!(r.shed, 0);
        assert_eq!(r.retries, 0);
        assert_eq!(r.shed_then_ok, 0);
        assert_eq!(r.goodput, r.completed);
        assert!(r.recoveries.is_empty());
        assert_eq!(r.per_server_peak_in_use.len(), 1);
        assert!(r.per_server_peak_in_use[0] > 0);
    }

    #[test]
    fn compute_recoveries_finds_dip_and_heal() {
        // Synthetic series: steady 10 answers/s, a partition zeroes
        // seconds 40..50, then the rate returns.
        let mut answers = vec![10u64; 80];
        for slot in answers.iter_mut().take(50).skip(40) {
            *slot = 0;
        }
        let faults = FaultSchedule::new()
            .at(
                40.0,
                FaultKind::LinkPartition {
                    a: netsim::NodeId(3),
                    b: netsim::NodeId(0),
                },
            )
            .at(
                50.0,
                FaultKind::LinkHeal {
                    a: netsim::NodeId(3),
                    b: netsim::NodeId(0),
                },
            );
        let recs = compute_recoveries(&faults, &answers, 80.0);
        assert_eq!(recs.len(), 1, "heal is not a disruption: {recs:?}");
        assert!((recs[0].baseline_rate - 10.0).abs() < 1e-9);
        let ttr = recs[0].time_to_recover_s.expect("recovers");
        // Outage lasts 10 s; the 5 s trailing mean needs a few more
        // healthy seconds before it clears 95% of baseline.
        assert!((10.0..20.0).contains(&ttr), "ttr = {ttr}");
    }

    #[test]
    fn compute_recoveries_handles_no_recovery_and_no_baseline() {
        // Permanent outage: never recovers.
        let mut answers = vec![8u64; 60];
        for slot in answers.iter_mut().skip(30) {
            *slot = 0;
        }
        let partition = FaultSchedule::new().at(
            30.0,
            FaultKind::LinkPartition {
                a: netsim::NodeId(3),
                b: netsim::NodeId(0),
            },
        );
        let recs = compute_recoveries(&partition, &answers, 60.0);
        assert_eq!(recs[0].time_to_recover_s, None);
        // The censored observation records how long the run watched: a
        // report renders ">30s", not a blank cell.
        assert!((recs[0].censor_horizon_s - 30.0).abs() < 1e-9, "{recs:?}");
        // Fault before any traffic: no baseline to recover to.
        let early = FaultSchedule::new().at(
            0.5,
            FaultKind::PbxCrash {
                pbx: 0,
                restart_after: SimDuration::from_secs(1),
            },
        );
        let recs = compute_recoveries(&early, &answers, 60.0);
        assert_eq!(recs[0].time_to_recover_s, None);
        assert!(recs[0].censor_horizon_s > 59.0, "{recs:?}");
    }

    #[test]
    fn smoke_run_is_deterministic() {
        let a = EmpiricalRunner::run(EmpiricalConfig::smoke(7));
        let b = EmpiricalRunner::run(EmpiricalConfig::smoke(7));
        assert_eq!(a.attempted, b.attempted);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.blocked, b.blocked);
        assert_eq!(a.monitor.rtp_packets, b.monitor.rtp_packets);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.monitor.sip_total, b.monitor.sip_total);
        assert_eq!(a.digest(), b.digest(), "physics digest is reproducible");
    }

    #[test]
    fn digest_ignores_wall_clock_but_not_physics() {
        let a = EmpiricalRunner::run(EmpiricalConfig::smoke(7));
        let mut b = a.clone();
        b.wall_clock_s *= 10.0;
        b.events_per_sec /= 10.0;
        assert_eq!(a.digest(), b.digest(), "wall clock is not physics");
        b.completed += 1;
        assert_ne!(a.digest(), b.digest(), "counts are physics");
    }

    #[test]
    fn different_seeds_differ() {
        let a = EmpiricalRunner::run(EmpiricalConfig::smoke(1));
        let b = EmpiricalRunner::run(EmpiricalConfig::smoke(2));
        // Arrival times differ, so event counts almost surely differ.
        assert_ne!(
            (a.events_processed, a.monitor.rtp_packets),
            (b.events_processed, b.monitor.rtp_packets)
        );
    }

    #[test]
    fn overload_blocks_calls() {
        // 5 channels, 20 E offered: Erlang-B says ~76% blocking. Use a
        // long placement window so the estimate has a few hundred samples.
        let mut cfg = EmpiricalConfig::smoke(3);
        cfg.erlangs = 20.0;
        cfg.placement_window_s = 300.0;
        cfg.media = MediaMode::Off;
        let r = EmpiricalRunner::run(cfg);
        assert!(r.attempted > 300, "enough samples: {}", r.attempted);
        assert!(r.blocked > 0, "must block under overload");
        assert!(
            (r.observed_pb - r.analytic_pb).abs() < 0.08,
            "observed {} vs analytic {}",
            r.observed_pb,
            r.analytic_pb
        );
        assert_eq!(r.peak_channels, 5, "pool saturates");
    }

    #[test]
    fn no_blocking_when_overprovisioned() {
        let mut cfg = EmpiricalConfig::smoke(4);
        cfg.erlangs = 2.0;
        cfg.channels = 50;
        cfg.media = MediaMode::Off;
        let r = EmpiricalRunner::run(cfg);
        assert_eq!(r.blocked, 0);
        assert_eq!(r.observed_pb, 0.0);
    }

    #[test]
    fn media_off_still_counts_signalling() {
        let mut cfg = EmpiricalConfig::smoke(5);
        cfg.media = MediaMode::Off;
        let r = EmpiricalRunner::run(cfg);
        assert_eq!(r.monitor.rtp_packets, 0);
        assert!(r.monitor.sip_total > 0);
        assert!(r.completed > 0);
        assert!(r.monitor.mos_mean.is_nan(), "no media, no MOS");
    }

    #[test]
    fn rtp_rate_is_100_per_call_second() {
        // The paper's anchor: ~100 RTP messages per call-second observed
        // at the endpoints (50 pps in each direction).
        let mut cfg = EmpiricalConfig::smoke(6);
        cfg.erlangs = 4.0;
        cfg.channels = 20;
        cfg.holding = HoldingDist::Fixed(20.0);
        cfg.placement_window_s = 60.0;
        let r = EmpiricalRunner::run(cfg);
        assert!(r.completed >= 5, "sample size: {r:?}");
        let call_seconds: f64 = r.completed as f64 * 20.0;
        let per_call_second = r.monitor.rtp_packets as f64 / call_seconds;
        assert!(
            (per_call_second - 100.0).abs() < 8.0,
            "rtp per call-second = {per_call_second}"
        );
    }

    #[test]
    fn silence_suppression_cuts_media_volume() {
        // The paper's testbed speaks continuously; with VAD on, the
        // conversational model transmits during ~42% of slots, so RTP
        // volume drops by roughly the inactivity factor. Blocking is a
        // signalling property and must not move.
        let mut continuous = EmpiricalConfig::smoke(14);
        continuous.erlangs = 3.0;
        continuous.holding = HoldingDist::Fixed(20.0);
        continuous.placement_window_s = 40.0;
        let mut vad = continuous.clone();
        vad.silence_suppression = true;
        let on = EmpiricalRunner::run(continuous);
        let off = EmpiricalRunner::run(vad);
        assert!(on.monitor.rtp_packets > 0 && off.monitor.rtp_packets > 0);
        let ratio = off.monitor.rtp_packets as f64 / on.monitor.rtp_packets as f64;
        assert!(
            ratio > 0.25 && ratio < 0.60,
            "VAD transmits ~42% of slots: ratio={ratio}"
        );
        assert_eq!(on.blocked, off.blocked, "admission unchanged");
        assert_eq!(on.attempted, off.attempted);
        // Relay CPU drops with the packet volume.
        assert!(off.cpu_mean < on.cpu_mean);
    }

    #[test]
    fn sip_ladder_is_13_messages_per_completed_call() {
        let mut cfg = EmpiricalConfig::smoke(8);
        cfg.media = MediaMode::Off;
        cfg.erlangs = 2.0;
        cfg.channels = 50; // no blocking
        let r = EmpiricalRunner::run(cfg);
        assert_eq!(r.blocked, 0);
        // Discount registrations (2 messages each: REGISTER + 200).
        let reg_msgs = 2 * 2 * u64::from(EmpiricalConfig::smoke(8).user_pool);
        let call_msgs = r.monitor.sip_total - reg_msgs;
        let per_call = call_msgs as f64 / r.completed as f64;
        // 13 on-the-wire messages per the Fig. 2 ladder; abandoned calls
        // contribute partial ladders, so allow slack.
        assert!(
            (per_call - 13.0).abs() < 1.5,
            "sip per call = {per_call} (total {call_msgs}, completed {})",
            r.completed
        );
    }
}
