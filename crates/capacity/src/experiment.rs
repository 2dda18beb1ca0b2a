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
use teletraffic::{blocking_probability, Erlangs};
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

/// Longest placement window [`EmpiricalConfig::validate`] accepts, in
/// seconds (≈ 32 years; `SimTime` holds ≈ 584 years of nanoseconds). It
/// bounds every other configured timer too.
pub const MAX_PLACEMENT_WINDOW_S: f64 = 1e9;

/// Largest farm: PBX `k` is node `3 + k`, and node ids are `u16`.
const MAX_SERVERS: u32 = 65_532;

/// Fastest arrival process a run accepts, in calls/s: one arrival per
/// clock nanosecond. A shorter mean gap rounds to 0.
const MAX_ARRIVAL_RATE: f64 = 1e9;

/// Largest CPU throttle factor. At 1e6 a 19 µs RTP relay costs 19 s, so
/// every 5 s utilisation window already reads 1; a larger factor only
/// overflows the CPU model's nanosecond busy counter.
const MAX_THROTTLE_FACTOR: f64 = 1e6;

/// Why [`EmpiricalConfig::validate`] refused a configuration: the rule it
/// breaks, worded as one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

/// `Ok` if `holds`, else the [`ConfigError`] that `message` words.
fn rule(holds: bool, message: impl FnOnce() -> String) -> Result<(), ConfigError> {
    if holds {
        Ok(())
    } else {
        Err(ConfigError(message()))
    }
}

/// The timer rule: `secs` of simulated time is at most
/// [`MAX_PLACEMENT_WINDOW_S`], so a timer armed with it fits the clock.
fn timer(name: &str, secs: f64) -> Result<(), ConfigError> {
    rule(secs <= MAX_PLACEMENT_WINDOW_S, || {
        format!("{name} {secs:?} s must be at most {MAX_PLACEMENT_WINDOW_S:e} s")
    })
}

/// The overload-law rules of [`EmpiricalConfig::validate`].
fn check_law(law: ControlLaw) -> Result<(), ConfigError> {
    let retry_after = match law {
        ControlLaw::Hysteresis {
            high_watermark: high,
            low_watermark: low,
            retry_after,
        } => {
            rule((0.0..high).contains(&low) && high <= 1.0, || {
                format!(
                    "hysteresis watermarks must keep 0 <= low < high <= 1 (load is capped \
                     at 1): low {low:?}, high {high:?}"
                )
            })?;
            retry_after
        }
        ControlLaw::WindowBased {
            max_window,
            min_window,
            retry_after,
            ..
        } => {
            rule(min_window <= max_window, || {
                format!("window law: min_window {min_window} > max_window {max_window}")
            })?;
            retry_after
        }
        ControlLaw::RateBased { retry_after, .. }
        | ControlLaw::SignalBased { retry_after, .. }
        | ControlLaw::MosCac { retry_after, .. } => retry_after,
    };
    timer("Retry-After", retry_after.as_secs_f64())
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
            // highest workloads; a small loss ramp from 160 E reproduces
            // the reported MOS dip and error counts. It stops rising at
            // the paper's highest load, 240 E (0.2 %): the same straight
            // line, continued, reaches 100 % loss at 40 160 E.
            link_loss_probability: ((erlangs.min(240.0) - 160.0).max(0.0) / 80.0) * 2e-3,
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

    /// Check that the world can run this configuration as written; where
    /// it cannot, say which rule it breaks. [`World::new`] panics with the
    /// same text, and `capacity-cli` refuses it (exit 2).
    ///
    /// Each rule names the failure it prevents:
    ///
    /// - **Farm size**: `servers` in `1..=65 532`. PBX `k` is node
    ///   `3 + k`, a `u16`, and a run with no server has nowhere to send a
    ///   call.
    /// - **User pool**: at least one user. Every classic call draws its
    ///   caller and callee from `user_pool`, and every population call
    ///   its callee.
    /// - **Offered load**: `erlangs` finite and > 0. The arrival rate is
    ///   `erlangs / holding.mean()`, and a zero, NaN or negative rate
    ///   re-fires one arrival at the same instant forever.
    /// - **Holding mean**: finite and > 0 (the same rate argument), and at
    ///   most [`MAX_PLACEMENT_WINDOW_S`] so the run's horizon fits
    ///   [`SimTime`].
    /// - **Placement window**: finite, > 0 and at most
    ///   [`MAX_PLACEMENT_WINDOW_S`], so the run places calls and its end
    ///   fits [`SimTime`].
    /// - **Link loss**: `link_loss_probability` in `[0, 1]`; `netsim`
    ///   panics on any other probability when it builds the star.
    /// - **Timers**: the pickup delay, the retry cap, a law's
    ///   `Retry-After`, the population's registration expiry, and every
    ///   fault's instant, restart delay, flash duration and degraded
    ///   propagation and queue bound are at most
    ///   [`MAX_PLACEMENT_WINDOW_S`], so no timer the run arms overflows
    ///   the clock. The retry base is at most its cap.
    /// - **Overload law**: a hysteresis law keeps `0 <= low < high <= 1`
    ///   (load is capped at 1, and without a dead band the law engages and
    ///   releases on alternate INVITEs); a window law keeps
    ///   `min_window <= max_window` (`overload` panics otherwise).
    /// - **Population**: at least one subscriber, and a per-user rate and
    ///   registration expiry that are finite and > 0 (the engine panics on
    ///   an empty population or a zero rate; a zero expiry churns every
    ///   nanosecond).
    /// - **Faults inside the farm**, checked first for each fault: a crash
    ///   or throttle at a server index below `servers`, a link fault at
    ///   one of the star's links (the switch and one of the two SIPp hosts
    ///   or a PBX). Anything else would silently run as a healthy testbed.
    /// - **Fault parameters**: a `LinkDegrade` bandwidth finite and at
    ///   least 1 bit/s (below it one frame's serialisation can outlast the
    ///   clock) and a loss in `[0, 1]` (`netsim` panics otherwise); a
    ///   `CpuThrottle` factor finite, > 0 and at most 1e6 (at 1e6 every 5 s
    ///   utilisation window already reads 1, and more overflows the CPU
    ///   model's nanosecond busy counter); a flash crowd's rate multiplier
    ///   finite and > 0 (the zero-rate loop again).
    /// - **Heals follow cuts**: a `LinkHeal` needs an earlier
    ///   `LinkPartition` or `LinkDegrade` of the same link, in either node
    ///   order; a heal before its partition leaves the link cut for the
    ///   rest of the run.
    /// - **Population × flash crowd**: unsupported. A flash crowd scales
    ///   the open-loop arrival process, which population mode never reads.
    /// - **Arrival rate**: the base rate (`erlangs / holding.mean()`, or a
    ///   population's `subscribers × per_user_rate ×` its profile's peak)
    ///   times every flash-crowd multiplier above 1 is at most 1e9 calls/s.
    ///   That is one arrival per clock nanosecond; a shorter gap rounds to
    ///   0 and places calls at one instant until memory runs out.
    ///
    /// # Errors
    /// The [`ConfigError`] of the first rule the configuration breaks.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let servers = self.servers;
        rule((1..=MAX_SERVERS).contains(&servers), || {
            format!("servers {servers} must be in 1..={MAX_SERVERS}: PBX k is node 3 + k, a u16")
        })?;
        rule(self.user_pool > 0, || {
            "user_pool must be >= 1: calls draw users from it".to_owned()
        })?;
        let erlangs = self.erlangs;
        rule(erlangs.is_finite() && erlangs > 0.0, || {
            format!("offered load {erlangs:?} E must be finite and > 0")
        })?;
        let holding = self.holding.mean();
        rule(holding.is_finite() && holding > 0.0, || {
            format!("holding mean {holding} s must be finite and > 0")
        })?;
        timer("holding mean", holding)?;
        let window = self.placement_window_s;
        rule(
            window.is_finite() && window > 0.0 && window <= MAX_PLACEMENT_WINDOW_S,
            || format!("placement window {window} s must be in (0, {MAX_PLACEMENT_WINDOW_S:e}]"),
        )?;
        let loss = self.link_loss_probability;
        rule((0.0..=1.0).contains(&loss), || {
            format!("link loss probability {loss:?} must be in [0, 1]")
        })?;
        timer("pickup delay", self.pickup_delay.as_secs_f64())?;
        if let Some(retry) = &self.retry {
            let (base, cap) = (retry.base_backoff, retry.max_backoff);
            timer("retry cap", cap.as_secs_f64())?;
            rule(base <= cap, || {
                format!("retry base {base} must be at most the retry cap {cap}")
            })?;
        }
        if let Some(law) = self.overload_law {
            check_law(law)?;
        }
        let mut arrival_rate = erlangs / holding;
        if let Some(pop) = &self.population {
            rule(pop.subscribers > 0, || {
                "population must have at least one subscriber".to_owned()
            })?;
            let (rate, expiry) = (pop.per_user_rate, pop.reg_expiry_s);
            rule(rate.is_finite() && rate > 0.0, || {
                format!("per-user call rate {rate:?}/s must be finite and > 0")
            })?;
            rule(expiry.is_finite() && expiry > 0.0, || {
                format!("registration expiry {expiry:?} s must be finite and > 0")
            })?;
            timer("registration expiry", expiry)?;
            arrival_rate = pop.subscribers as f64 * rate * pop.profile.max_multiplier();
        }
        self.check_faults(&mut arrival_rate)?;
        rule(
            self.population.is_none()
                || !self
                    .faults
                    .events()
                    .iter()
                    .any(|e| matches!(e.kind, FaultKind::FlashCrowd { .. })),
            || {
                "population × FlashCrowd is unsupported: a flash crowd scales the open-loop \
                 arrival rate, which population mode never reads"
                    .to_owned()
            },
        )?;
        rule(arrival_rate <= MAX_ARRIVAL_RATE, || {
            format!(
                "arrival rate {arrival_rate:?} calls/s (with every flash crowd above 1x) must be \
                 at most {MAX_ARRIVAL_RATE:e}: one arrival per clock nanosecond"
            )
        })
    }

    /// The fault rules of [`EmpiricalConfig::validate`], in schedule order;
    /// scales `arrival_rate` by every flash-crowd multiplier above 1.
    fn check_faults(&self, arrival_rate: &mut f64) -> Result<(), ConfigError> {
        let servers = self.servers;
        let host = |n| star_hosts(servers).any(|h| h == n);
        let star_link = |a, b| (a == nodes::SWITCH && host(b)) || (b == nodes::SWITCH && host(a));
        // Links an earlier partition or degrade has cut, as written.
        let mut cut = Vec::new();
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
            rule(in_farm, || {
                format!("fault aimed outside the {servers}-server farm: {event:?}")
            })?;
            timer("fault instant", event.at.as_secs_f64())?;
            match event.kind {
                FaultKind::LinkDegrade { a, b, params } => {
                    let (bandwidth, loss) = (params.bandwidth_bps, params.loss_probability);
                    rule(bandwidth.is_finite() && bandwidth >= 1.0, || {
                        format!(
                            "degraded link bandwidth {bandwidth:?} bit/s must be finite and >= 1"
                        )
                    })?;
                    rule((0.0..=1.0).contains(&loss), || {
                        format!("degraded link loss probability {loss:?} must be in [0, 1]")
                    })?;
                    timer(
                        "degraded link propagation",
                        params.propagation.as_secs_f64(),
                    )?;
                    timer(
                        "degraded link queue bound",
                        params.max_queue_delay.as_secs_f64(),
                    )?;
                    cut.push((a, b));
                }
                FaultKind::LinkPartition { a, b } => cut.push((a, b)),
                FaultKind::LinkHeal { a, b } => {
                    rule(cut.contains(&(a, b)) || cut.contains(&(b, a)), || {
                        format!(
                            "link heal at {} of {a:?}-{b:?} follows no partition or degrade \
                             of that link",
                            event.at
                        )
                    })?;
                }
                FaultKind::PbxCrash { restart_after, .. } => {
                    timer("restart delay", restart_after.as_secs_f64())?;
                }
                FaultKind::CpuThrottle { factor, .. } => {
                    rule(
                        factor.is_finite() && factor > 0.0 && factor <= MAX_THROTTLE_FACTOR,
                        || {
                            format!("CPU throttle factor {factor:?} must be in (0, {MAX_THROTTLE_FACTOR:e}]")
                        },
                    )?;
                }
                FaultKind::FlashCrowd {
                    rate_multiplier,
                    duration,
                } => {
                    rule(rate_multiplier.is_finite() && rate_multiplier > 0.0, || {
                        format!(
                            "flash crowd rate multiplier {rate_multiplier} must be finite and > 0"
                        )
                    })?;
                    timer("flash crowd duration", duration.as_secs_f64())?;
                    if rate_multiplier > 1.0 {
                        *arrival_rate *= rate_multiplier;
                    }
                }
            }
        }
        Ok(())
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
            * self.servers as usize;
        let per_call = match self.media {
            MediaMode::Off => 4,
            MediaMode::PerPacket => 8,
        };
        concurrent * per_call + 1024
    }

    /// When [`EmpiricalRunner::run`] stops the clock: placement, the
    /// longest plausible holding time and teardown slack, and past the
    /// last fault effect room for re-registration, retried calls and the
    /// recovery window to be observable.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        let hold_slack = match self.holding {
            HoldingDist::Fixed(h) => h + 10.0,
            _ => self.holding.mean() * 8.0 + 30.0,
        };
        let mut horizon_s = 1.0 + self.placement_window_s + hold_slack + 5.0;
        if let Some(last) = self.faults.last_effect_time() {
            horizon_s = horizon_s.max(last.as_secs_f64() + hold_slack + 15.0);
        }
        SimTime::from_secs_f64(horizon_s)
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
        let horizon = config.horizon();

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
            analytic_pb: blocking_probability(Erlangs(erlangs), channels),
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
        assert_eq!(cfg.validate(), Ok(()));
    }

    /// A schedule holding the one fault `kind`, 5 s in.
    fn at5(kind: FaultKind) -> FaultSchedule {
        FaultSchedule::new().at(5.0, kind)
    }

    fn crash(pbx: u32, restart_s: u64) -> FaultKind {
        let restart_after = SimDuration::from_secs(restart_s);
        FaultKind::PbxCrash { pbx, restart_after }
    }

    fn degrade(a: netsim::NodeId, params: netsim::LinkParams) -> FaultKind {
        let b = nodes::SWITCH;
        FaultKind::LinkDegrade { a, b, params }
    }

    fn flash(rate_multiplier: f64) -> FaultKind {
        let duration = SimDuration::from_secs(10);
        FaultKind::FlashCrowd {
            rate_multiplier,
            duration,
        }
    }

    fn hysteresis(low_watermark: f64, high_watermark: f64) -> Option<ControlLaw> {
        let retry_after = SimDuration::from_secs(2);
        Some(ControlLaw::Hysteresis {
            high_watermark,
            low_watermark,
            retry_after,
        })
    }

    /// Each rule of `validate`, broken once on a valid two-server smoke
    /// cell: the mutation and the start of the message it must produce.
    #[test]
    fn validate_refuses_each_rule_with_its_message() {
        use crate::world::pbx_node;
        use netsim::LinkParams;
        type Mutation = fn(&mut EmpiricalConfig);
        let cases: [(Mutation, &str); 35] = [
            (|c| c.servers = 0, "servers 0 must be in 1..=65532"),
            (|c| c.servers = 65_533, "servers 65533 must be in 1..=65532"),
            (|c| c.user_pool = 0, "user_pool must be >= 1"),
            (
                |c| c.erlangs = 0.0,
                "offered load 0.0 E must be finite and > 0",
            ),
            (|c| c.erlangs = f64::NAN, "offered load NaN E must be"),
            (|c| c.erlangs = -5.0, "offered load -5.0 E must be"),
            (
                |c| c.holding = HoldingDist::Fixed(0.0),
                "holding mean 0 s must be finite and > 0",
            ),
            (
                |c| c.holding = HoldingDist::Exponential(-3.0),
                "holding mean -3 s must be finite",
            ),
            (
                |c| c.holding = HoldingDist::Fixed(2e9),
                "holding mean 2000000000.0 s must be at most 1e9 s",
            ),
            (
                |c| c.placement_window_s = -5.0,
                "placement window -5 s must be in (0, 1e9]",
            ),
            (
                |c| c.placement_window_s = 1e12,
                "placement window 1000000000000 s must be in (0, 1e9]",
            ),
            (
                |c| c.link_loss_probability = 1.5,
                "link loss probability 1.5 must be in [0, 1]",
            ),
            (
                |c| c.link_loss_probability = -0.5,
                "link loss probability -0.5 must be in [0, 1]",
            ),
            (
                |c| c.pickup_delay = SimDuration::from_secs(2_000_000_000),
                "pickup delay 2000000000.0 s",
            ),
            (
                |c| {
                    let (base_backoff, max_backoff) =
                        (SimDuration::from_secs(4), SimDuration::from_secs(2));
                    c.retry = Some(RetryPolicy {
                        max_retries: 2,
                        base_backoff,
                        max_backoff,
                    });
                },
                "retry base 4.000000s must be at most the retry cap 2.000000s",
            ),
            (
                |c| c.overload_law = hysteresis(0.95, 0.9),
                "hysteresis watermarks must keep 0 <= low < high",
            ),
            (
                |c| c.overload_law = hysteresis(0.7, 1.5),
                "hysteresis watermarks must keep 0 <= low < high",
            ),
            (
                |c| {
                    let (max_window, min_window) = (4, 5);
                    let retry_after = SimDuration::from_secs(2);
                    let target_load = 0.85;
                    c.overload_law = Some(ControlLaw::WindowBased {
                        target_load,
                        max_window,
                        min_window,
                        retry_after,
                    });
                },
                "window law: min_window 5 > max_window 4",
            ),
            (
                |c| c.faults = at5(crash(2, 1)),
                "fault aimed outside the 2-server farm",
            ),
            (
                |c| {
                    c.faults = at5(FaultKind::CpuThrottle {
                        pbx: 7,
                        factor: 2.0,
                    })
                },
                "fault aimed outside the 2-server farm",
            ),
            (
                |c| c.faults = at5(degrade(pbx_node(2), LinkParams::fast_ethernet())),
                "fault aimed outside the 2-server farm",
            ),
            (
                |c| {
                    let (a, b) = (pbx_node(2), nodes::SWITCH);
                    c.faults = at5(FaultKind::LinkPartition { a, b });
                },
                "fault aimed outside the 2-server farm",
            ),
            (
                |c| {
                    let (a, b) = (nodes::SIPP_CLIENT, pbx_node(0));
                    c.faults = at5(FaultKind::LinkDegrade {
                        a,
                        b,
                        params: LinkParams::fast_ethernet(),
                    });
                },
                "fault aimed outside the 2-server farm",
            ),
            (
                |c| {
                    c.faults = at5(FaultKind::LinkHeal {
                        a: nodes::SWITCH,
                        b: pbx_node(5),
                    })
                },
                "fault aimed outside the 2-server farm",
            ),
            (
                |c| c.faults = FaultSchedule::new().at(1e300, crash(0, 1)),
                "fault instant 18446744073.709553 s must be at most 1e9 s",
            ),
            (
                |c| c.faults = at5(crash(0, 2_000_000_000)),
                "restart delay 2000000000.0 s must be at most",
            ),
            (
                |c| {
                    c.faults = at5(degrade(
                        pbx_node(0),
                        LinkParams {
                            bandwidth_bps: 0.0,
                            ..LinkParams::fast_ethernet()
                        },
                    ))
                },
                "degraded link bandwidth 0.0 bit/s must be finite and >= 1",
            ),
            (
                |c| {
                    let params = LinkParams {
                        loss_probability: f64::NAN,
                        ..LinkParams::fast_ethernet()
                    };
                    c.faults = at5(degrade(pbx_node(0), params));
                },
                "degraded link loss probability NaN must be in [0, 1]",
            ),
            (
                |c| {
                    c.faults = at5(FaultKind::CpuThrottle {
                        pbx: 0,
                        factor: f64::INFINITY,
                    })
                },
                "CPU throttle factor inf must be in (0, 1e6]",
            ),
            (
                |c| {
                    let (a, b) = (pbx_node(0), nodes::SWITCH);
                    c.faults = FaultSchedule::new()
                        .at(10.0, FaultKind::LinkPartition { a, b })
                        .at(5.0, FaultKind::LinkHeal { a: b, b: a });
                },
                "link heal at 5.000000s of NodeId(0)-NodeId(3) follows no partition",
            ),
            (
                |c| c.faults = at5(flash(0.0)),
                "flash crowd rate multiplier 0 must be finite and > 0",
            ),
            (
                |c| c.faults = at5(flash(-2.0)),
                "flash crowd rate multiplier -2 must be finite and > 0",
            ),
            (|c| c.faults = at5(flash(1e10)), "arrival rate 40000000"),
            (
                |c| {
                    let mut pop = loadgen::PopulationConfig::new(200, 0.01);
                    pop.reg_expiry_s = 0.0;
                    c.population = Some(pop);
                },
                "registration expiry 0.0 s must be finite and > 0",
            ),
            (
                |c| c.population = Some(loadgen::PopulationConfig::new(0, 0.01)),
                "population must have at least one subscriber",
            ),
        ];
        let base = || EmpiricalConfig {
            servers: 2,
            ..EmpiricalConfig::smoke(1)
        };
        assert_eq!(base().validate(), Ok(()));
        for (mutate, expected) in cases {
            let mut cfg = base();
            mutate(&mut cfg);
            let refused = cfg.validate().expect_err(expected).to_string();
            assert!(
                refused.starts_with(expected),
                "{refused:?} for {expected:?}"
            );
            assert!(!refused.contains('\n'), "one line: {refused:?}");
        }
    }

    /// The rules' edges are inside: a farm as large as node ids allow, a
    /// link that loses everything, a heal at its partition's instant, a
    /// zero-channel pool and a load far past the paper's, whose loss ramp
    /// stops at the 240 E value.
    #[test]
    fn validate_accepts_the_edges_of_its_rules() {
        let mut cfg = EmpiricalConfig::table1(50_000.0, 1);
        assert_eq!(cfg.link_loss_probability, 0.002);
        assert_eq!(
            cfg.link_loss_probability,
            EmpiricalConfig::table1(240.0, 1).link_loss_probability
        );
        assert_eq!(cfg.validate(), Ok(()));
        cfg.servers = 65_532;
        cfg.channels = 0;
        cfg.link_loss_probability = 1.0;
        let (a, b) = (crate::world::pbx_node(0), nodes::SWITCH);
        cfg.faults = FaultSchedule::new()
            .at(10.0, FaultKind::LinkPartition { a, b })
            .at(10.0, FaultKind::LinkHeal { a: b, b: a });
        assert_eq!(cfg.validate(), Ok(()));
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
