//! SIP overload-control laws.
//!
//! Beyond the Erlang-B knee the interesting question is not how many calls
//! fit but how gracefully the server sheds the rest. This crate is the
//! B2BUA's admission decision. A [`ControlLaw`] names one of the algorithm
//! families compared by Hong et al. (*A Comparative Study of SIP Overload
//! Control Algorithms*), or the MOS-predictive 3D-CAC idea of Narikiyo et
//! al., with its parameters; [`ControlLaw::build`] turns it into the one
//! stateful [`Law`] that decides every INVITE:
//!
//! * [`ControlLaw::Hysteresis`] — the local two-watermark shed, kept
//!   digest-compatible as the default law (no feedback headers, byte-exact
//!   `503 + Retry-After` behaviour);
//! * [`ControlLaw::RateBased`] — the server advertises a maximum upstream
//!   call rate in response feedback; the upstream UAC paces INVITEs to that
//!   rate;
//! * [`ControlLaw::WindowBased`] — the server advertises a call window (max
//!   concurrent calls the upstream may hold open); the UAC queues beyond it;
//! * [`ControlLaw::SignalBased`] — a local queue-delay estimator: sheds when
//!   the estimated signalling delay crosses a threshold, with hysteresis;
//! * [`ControlLaw::MosCac`] — 3D-CAC admission: predicts the MOS a new call
//!   would see from the currently observed link loss/jitter/delay
//!   (`predict_mos`, the `voiceq` E-model) and rejects calls that would
//!   land below the floor, even when free channels remain.
//!
//! The set is closed — the PBX is the only caller and the campaign sweeps
//! exactly these five — so it is one enum matched in one place, not a
//! trait behind a box.
//!
//! The feedback wire format is one ad-hoc header, `X-Overload-Control`,
//! valued `rate=<calls-per-sec>` or `win=<max-open-calls>`; see
//! [`Feedback`]. Servers attach it to `100 Trying` (closing the loop once
//! per admitted call) and to `503` rejects. Laws that emit no feedback
//! leave every message byte-identical to the inline shed they replaced,
//! which is what keeps [`ControlLaw::Hysteresis`] digest-compatible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use des::SimDuration;
use voiceq::{estimate_mos, EModelInputs};

/// Load observations offered to a control law on each admission decision.
///
/// Everything here is already maintained by the B2BUA or the monitor; the
/// law only reads. All signals are instantaneous (sampled at the INVITE).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSignals {
    /// Channel-pool occupancy in `[0, 1]` (0.0 when the pool is unsized).
    pub occupancy: f64,
    /// CPU utilisation over the last accounting window, `[0, 1]`.
    pub cpu: f64,
    /// Channels still free in the pool.
    pub free_channels: u32,
    /// Observed media packet-loss fraction on the access link, `[0, 1]`.
    /// Zero until the first quality observation arrives.
    pub link_loss: f64,
    /// Observed media interarrival jitter on the access link, ms.
    pub link_jitter_ms: f64,
    /// Observed mean one-way media delay on the access link, ms.
    pub link_delay_ms: f64,
}

impl LoadSignals {
    /// The scalar load signal the legacy hysteresis shed used: the worse of
    /// channel occupancy and CPU utilisation.
    #[must_use]
    pub fn load(&self) -> f64 {
        self.occupancy.max(self.cpu)
    }
}

/// Feedback a server advertises to its upstream in response headers.
///
/// Wire format (the `X-Overload-Control` header value):
/// `rate=<f64 calls/sec>` or `win=<u32 max open calls>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Feedback {
    /// Maximum sustained call rate the upstream should offer, calls/sec.
    Rate(f64),
    /// Maximum number of calls the upstream may hold open at once.
    Window(u32),
}

/// The `X-Overload-Control` header value, so a builder can write it in
/// place (`write!(buf, "{feedback}")`).
impl core::fmt::Display for Feedback {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Feedback::Rate(r) => write!(f, "rate={r:.3}"),
            Feedback::Window(w) => write!(f, "win={w}"),
        }
    }
}

impl Feedback {
    /// Encode as an `X-Overload-Control` header value.
    #[must_use]
    pub fn to_header_value(&self) -> String {
        self.to_string()
    }

    /// Parse an `X-Overload-Control` header value. Tolerant of surrounding
    /// whitespace; returns `None` on anything malformed (the upstream then
    /// keeps its current pacing state).
    #[must_use]
    pub fn parse(value: &str) -> Option<Feedback> {
        let v = value.trim();
        if let Some(r) = v.strip_prefix("rate=") {
            let r: f64 = r.trim().parse().ok()?;
            if r.is_finite() && r > 0.0 {
                return Some(Feedback::Rate(r));
            }
            return None;
        }
        if let Some(w) = v.strip_prefix("win=") {
            return w.trim().parse::<u32>().ok().map(Feedback::Window);
        }
        None
    }
}

/// The outcome of one admission decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Admit the call (`true`) or reject it with `503` (`false`).
    pub admit: bool,
    /// `Retry-After` to carry on the `503` when rejecting.
    pub retry_after: Option<SimDuration>,
    /// Feedback to advertise upstream: attached to the `100 Trying` when
    /// admitting, to the `503` when rejecting.
    pub feedback: Option<Feedback>,
}

/// Plain-data law selector: `Copy` configuration the experiment layer can
/// store in `PbxConfig` and sweep over; [`ControlLaw::build`] instantiates
/// the stateful law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlLaw {
    /// Two-watermark local shed (the PR 1 default, digest-compatible).
    Hysteresis {
        /// Engage shedding at or above this load.
        high_watermark: f64,
        /// Release shedding at or below this load.
        low_watermark: f64,
        /// `Retry-After` advertised on `503`.
        retry_after: SimDuration,
    },
    /// Rate feedback: advertise a max upstream call rate scaled down as
    /// load exceeds `target_load`; shed outright only on pool exhaustion.
    RateBased {
        /// Load at which the advertised rate starts backing off.
        target_load: f64,
        /// Rate advertised when unloaded, calls/sec.
        max_rate_cps: f64,
        /// Floor for the advertised rate, calls/sec.
        min_rate_cps: f64,
        /// `Retry-After` advertised on `503`.
        retry_after: SimDuration,
    },
    /// Window feedback: advertise a max number of open upstream calls,
    /// scaled down as load exceeds `target_load`.
    WindowBased {
        /// Load at which the advertised window starts shrinking.
        target_load: f64,
        /// Window advertised when unloaded.
        max_window: u32,
        /// Floor for the advertised window.
        min_window: u32,
        /// `Retry-After` advertised on `503`.
        retry_after: SimDuration,
    },
    /// Local queue-delay estimator with hysteresis.
    SignalBased {
        /// Estimated signalling delay (ms) at which shedding engages.
        target_delay_ms: f64,
        /// Nominal per-message service time (ms) feeding the estimator.
        service_ms: f64,
        /// EWMA smoothing factor in `(0, 1]`.
        ewma_alpha: f64,
        /// `Retry-After` advertised on `503`.
        retry_after: SimDuration,
    },
    /// MOS-predictive CAC: admit only when the E-model predicts at least
    /// `min_mos` under current link loss/jitter/delay (and a channel is
    /// free).
    MosCac {
        /// Minimum acceptable predicted MOS.
        min_mos: f64,
        /// `Retry-After` advertised on `503`.
        retry_after: SimDuration,
    },
}

impl ControlLaw {
    /// Stable algorithm name (same string the built law reports).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ControlLaw::Hysteresis { .. } => "hysteresis503",
            ControlLaw::RateBased { .. } => "rate_based",
            ControlLaw::WindowBased { .. } => "window_based",
            ControlLaw::SignalBased { .. } => "signal_based",
            ControlLaw::MosCac { .. } => "mos_cac",
        }
    }

    /// The PR 1 default watermarks: engage at 0.90, release at 0.70,
    /// advertise `Retry-After: 2`.
    #[must_use]
    pub fn hysteresis_default() -> ControlLaw {
        ControlLaw::Hysteresis {
            high_watermark: 0.90,
            low_watermark: 0.70,
            retry_after: SimDuration::from_secs(2),
        }
    }

    /// Rate-based law sized for a server engineered to `capacity_cps`
    /// calls/sec: advertises up to 110% of capacity, backs off from 85%
    /// load, floors at 10% of capacity.
    #[must_use]
    pub fn rate_based_for(capacity_cps: f64) -> ControlLaw {
        ControlLaw::RateBased {
            target_load: 0.85,
            max_rate_cps: capacity_cps * 1.1,
            min_rate_cps: (capacity_cps * 0.1).max(0.1),
            retry_after: SimDuration::from_secs(2),
        }
    }

    /// Window-based law sized for a channel pool of `channels`: advertises
    /// up to the full pool, shrinks from 85% load, floors at one call.
    #[must_use]
    pub fn window_based_for(channels: u32) -> ControlLaw {
        ControlLaw::WindowBased {
            target_load: 0.85,
            max_window: channels.max(1),
            min_window: 1,
            retry_after: SimDuration::from_secs(2),
        }
    }

    /// Signal-based law with a 150 ms delay budget over a 2 ms nominal
    /// service time, lightly smoothed. (With utilisation clamped at 0.99
    /// the M/M/1 estimate tops out at 198 ms, so the budget must sit below
    /// that for the law to be able to engage.)
    #[must_use]
    pub fn signal_based_default() -> ControlLaw {
        ControlLaw::SignalBased {
            target_delay_ms: 150.0,
            service_ms: 2.0,
            ewma_alpha: 0.3,
            retry_after: SimDuration::from_secs(2),
        }
    }

    /// MOS CAC with the conventional "acceptable" floor of 3.5.
    #[must_use]
    pub fn mos_cac_default() -> ControlLaw {
        ControlLaw::MosCac {
            min_mos: 3.5,
            retry_after: SimDuration::from_secs(2),
        }
    }

    /// Instantiate the stateful law.
    ///
    /// # Panics
    /// On a `WindowBased` law whose `min_window` exceeds its `max_window`
    /// (the advertised window could not be clamped between them).
    #[must_use]
    pub fn build(self) -> Law {
        if let ControlLaw::WindowBased {
            max_window,
            min_window,
            ..
        } = self
        {
            assert!(
                min_window <= max_window,
                "window law: min_window {min_window} > max_window {max_window}"
            );
        }
        Law {
            params: self,
            shedding: false,
            delay_est_ms: 0.0,
        }
    }
}

/// A built overload-control law: observes load signals on each new INVITE
/// and decides admit/reject, optionally advertising feedback upstream.
///
/// Laws are stateful (hysteresis flags, an EWMA estimator) and
/// deterministic: the same observation sequence always yields the same
/// decisions, which is what lets the experiment layer pin run digests per
/// law.
#[derive(Debug, Clone)]
pub struct Law {
    params: ControlLaw,
    /// Hysteresis, signal-based and MOS laws: rejecting new INVITEs. The
    /// feedback laws never set it (they reject only on pool exhaustion).
    shedding: bool,
    /// Signal-based law: the smoothed delay estimate, ms.
    delay_est_ms: f64,
}

impl Law {
    /// Stable algorithm name, used in campaign artifacts.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.params.name()
    }

    /// Decide admission for one new INVITE under the given signals.
    pub fn on_invite(&mut self, signals: &LoadSignals) -> Decision {
        let load = signals.load();
        let (admit, retry_after, feedback) = match self.params {
            // The two-watermark shed, verbatim: engage at `load >=
            // high_watermark`, release only at `load <= low_watermark`,
            // reject with `503 + Retry-After` while engaged, advertise
            // nothing.
            ControlLaw::Hysteresis {
                high_watermark,
                low_watermark,
                retry_after,
            } => {
                self.shedding = hysteresis(self.shedding, load, high_watermark, low_watermark);
                (!self.shedding, retry_after, None)
            }
            // Hong et al.'s "rate-based" family: every response advertises
            // the call rate the upstream should not exceed; the server
            // itself only rejects when the channel pool is exhausted
            // (converting the 486 the pool would produce into a 503 the
            // upstream backs off from).
            ControlLaw::RateBased {
                target_load,
                max_rate_cps,
                min_rate_cps,
                retry_after,
            } => {
                let rate = (max_rate_cps * feedback_scale(load, target_load)).max(min_rate_cps);
                let fb = Feedback::Rate(rate);
                (signals.free_channels > 0, retry_after, Some(fb))
            }
            // The "window-based" family: every response advertises the
            // number of calls the upstream may hold open; rejection only on
            // pool exhaustion, as for the rate law.
            ControlLaw::WindowBased {
                target_load,
                max_window,
                min_window,
                retry_after,
            } => {
                let scale = feedback_scale(load, target_load);
                let win =
                    ((f64::from(max_window) * scale).floor() as u32).clamp(min_window, max_window);
                let fb = Feedback::Window(win);
                (signals.free_channels > 0, retry_after, Some(fb))
            }
            // Queueing delay from utilisation by an M/M/1-shaped law
            // `d = service · u/(1−u)`, EWMA-smoothed across INVITEs, shed
            // with hysteresis (release at half the target).
            ControlLaw::SignalBased {
                target_delay_ms,
                service_ms,
                ewma_alpha,
                retry_after,
            } => {
                let u = load.clamp(0.0, 0.99);
                let instant = service_ms * u / (1.0 - u);
                self.delay_est_ms = ewma_alpha * instant + (1.0 - ewma_alpha) * self.delay_est_ms;
                let release = 0.5 * target_delay_ms;
                self.shedding =
                    hysteresis(self.shedding, self.delay_est_ms, target_delay_ms, release);
                (!self.shedding, retry_after, None)
            }
            // 3D-CAC: the plain free-channel check, plus a rejection of any
            // admission whose predicted MOS lands below the floor.
            ControlLaw::MosCac {
                min_mos,
                retry_after,
            } => {
                self.shedding = signals.free_channels == 0 || predict_mos(signals) < min_mos;
                (!self.shedding, retry_after, None)
            }
        };
        Decision {
            admit,
            retry_after: (!admit).then_some(retry_after),
            feedback,
        }
    }

    /// True while the law is actively shedding (for stats/reporting).
    #[must_use]
    pub fn is_shedding(&self) -> bool {
        self.shedding
    }

    /// Reset transient state after a server crash: the shed flag and the
    /// delay estimator start again from an idle server.
    pub fn on_crash(&mut self) {
        self.shedding = false;
        self.delay_est_ms = 0.0;
    }
}

/// Two-threshold hysteresis on `level`. While shedding, only release is
/// evaluated (inclusive, so a sample at `release_at` exits); otherwise only
/// engagement (at `level >= engage_at`). A plateau between the thresholds
/// changes nothing — no flapping.
fn hysteresis(shedding: bool, level: f64, engage_at: f64, release_at: f64) -> bool {
    if shedding && level <= release_at {
        false
    } else {
        shedding || level >= engage_at
    }
}

/// Scale factor for feedback laws: 1.0 up to `target`, then linear down to
/// 0.0 as load approaches 1.0.
fn feedback_scale(load: f64, target: f64) -> f64 {
    if load <= target {
        return 1.0;
    }
    let span = (1.0 - target).max(1e-9);
    ((1.0 - load) / span).clamp(0.0, 1.0)
}

/// The MOS a new call would experience under the given link signals (the
/// 3D-CAC prediction): the `vmon` per-call scorer's E-model rule
/// ([`EModelInputs::measured_g711`]) with random (non-bursty) loss.
#[must_use]
fn predict_mos(signals: &LoadSignals) -> f64 {
    estimate_mos(&EModelInputs::measured_g711(
        signals.link_delay_ms,
        signals.link_jitter_ms,
        signals.link_loss,
        1.0,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signals(occupancy: f64, cpu: f64, free: u32) -> LoadSignals {
        LoadSignals {
            occupancy,
            cpu,
            free_channels: free,
            link_loss: 0.0,
            link_jitter_ms: 0.0,
            link_delay_ms: 0.0,
        }
    }

    /// Satellite: hysteresis enter/exit ordering. Engages strictly above
    /// the band's interior only at `>= high`, releases only at `<= low`,
    /// and a plateau between the watermarks never flaps.
    #[test]
    fn hysteresis_engages_high_releases_low_no_plateau_flapping() {
        let mut law = ControlLaw::Hysteresis {
            high_watermark: 0.75,
            low_watermark: 0.30,
            retry_after: SimDuration::from_secs(3),
        }
        .build();

        // Below high watermark: admits, not shedding.
        assert!(law.on_invite(&signals(0.5, 0.0, 2)).admit);
        assert!(!law.is_shedding());
        // Just under high: still admits.
        assert!(law.on_invite(&signals(0.7499, 0.0, 1)).admit);
        // At the high watermark: engages and rejects this INVITE.
        let d = law.on_invite(&signals(0.75, 0.0, 1));
        assert!(!d.admit);
        assert!(law.is_shedding());
        assert_eq!(d.retry_after, Some(SimDuration::from_secs(3)));
        assert_eq!(d.feedback, None, "hysteresis advertises nothing");

        // Plateau in the dead band (low < load < high): keeps shedding on
        // every sample — no flapping.
        for _ in 0..5 {
            assert!(!law.on_invite(&signals(0.5, 0.0, 3)).admit);
            assert!(law.is_shedding());
        }
        // Still above low: shedding persists even as load falls.
        assert!(!law.on_invite(&signals(0.3001, 0.0, 4)).admit);
        // At the low watermark: releases (inclusive, like the legacy code)
        // and this INVITE is admitted.
        assert!(law.on_invite(&signals(0.30, 0.0, 4)).admit);
        assert!(!law.is_shedding());
        // Back in the dead band from below: stays admitted — no flapping.
        for _ in 0..5 {
            assert!(law.on_invite(&signals(0.6, 0.0, 3)).admit);
            assert!(!law.is_shedding());
        }
        // CPU alone can engage it (load = max(occupancy, cpu)).
        assert!(!law.on_invite(&signals(0.1, 0.9, 5)).admit);
        law.on_crash();
        assert!(!law.is_shedding(), "crash resets the shed flag");
    }

    #[test]
    fn feedback_wire_format_round_trips_and_rejects_garbage() {
        let r = Feedback::Rate(12.5);
        assert_eq!(r.to_header_value(), "rate=12.500");
        assert_eq!(Feedback::parse("rate=12.500"), Some(Feedback::Rate(12.5)));
        let w = Feedback::Window(8);
        assert_eq!(w.to_header_value(), "win=8");
        assert_eq!(Feedback::parse(" win=8 "), Some(Feedback::Window(8)));
        for bad in [
            "", "rate=", "rate=abc", "rate=-3", "rate=inf", "win=", "win=-1", "cap=9",
        ] {
            assert_eq!(Feedback::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn rate_law_backs_off_past_target_and_sheds_only_when_exhausted() {
        let mut law = ControlLaw::rate_based_for(10.0).build();
        // Unloaded: full advertised rate, admitted.
        let d = law.on_invite(&signals(0.2, 0.0, 8));
        assert!(d.admit);
        let Some(Feedback::Rate(r_full)) = d.feedback else {
            panic!("rate law must advertise a rate");
        };
        assert!((r_full - 11.0).abs() < 1e-9);
        // Past target: advertised rate drops but the call is still admitted
        // while channels remain.
        let d = law.on_invite(&signals(0.95, 0.0, 1));
        assert!(d.admit);
        let Some(Feedback::Rate(r_hot)) = d.feedback else {
            panic!("rate law must advertise a rate");
        };
        assert!(r_hot < r_full);
        // Pool exhausted: 503 with feedback still attached.
        let d = law.on_invite(&signals(1.0, 0.0, 0));
        assert!(!d.admit);
        assert!(d.retry_after.is_some());
        assert!(matches!(d.feedback, Some(Feedback::Rate(_))));
    }

    #[test]
    fn window_law_shrinks_window_past_target() {
        let mut law = ControlLaw::window_based_for(10).build();
        let d = law.on_invite(&signals(0.5, 0.0, 5));
        assert!(d.admit);
        assert_eq!(d.feedback, Some(Feedback::Window(10)));
        let d = law.on_invite(&signals(0.925, 0.0, 1));
        let Some(Feedback::Window(hot)) = d.feedback else {
            panic!("window law must advertise a window");
        };
        assert!(hot < 10 && hot >= 1, "window shrinks past target: {hot}");
        let d = law.on_invite(&signals(1.0, 0.0, 0));
        assert!(!d.admit);
        assert_eq!(d.feedback, Some(Feedback::Window(1)));
    }

    /// An inverted window is refused when the law is built, not by
    /// `u32::clamp` at the first INVITE.
    #[test]
    #[should_panic(expected = "min_window 5 > max_window 4")]
    fn window_law_with_min_above_max_is_refused_at_build() {
        let _ = ControlLaw::WindowBased {
            target_load: 0.85,
            max_window: 4,
            min_window: 5,
            retry_after: SimDuration::from_secs(2),
        }
        .build();
    }

    #[test]
    fn signal_law_sheds_on_sustained_delay_and_recovers() {
        let mut law = ControlLaw::signal_based_default().build();
        // Sustained saturation drives the EWMA estimate toward
        // 2 ms · 0.99/0.01 = 198 ms, crossing the 150 ms budget.
        let mut tripped = false;
        for _ in 0..50 {
            if !law.on_invite(&signals(0.999, 0.999, 1)).admit {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "signal law must shed under sustained saturation");
        assert!(law.is_shedding());
        // A brief dip does not release: the estimate must fall below half
        // the budget, not just below it (hysteresis).
        assert!(!law.on_invite(&signals(0.5, 0.5, 4)).admit);
        // Sustained idle drains the estimator and the law recovers.
        let mut recovered = false;
        for _ in 0..50 {
            if law.on_invite(&signals(0.0, 0.0, 8)).admit {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "signal law must release once the queue drains");
        assert!(!law.is_shedding());
    }

    #[test]
    fn crash_resets_the_signal_law_delay_estimate() {
        let mut law = ControlLaw::signal_based_default().build();
        for _ in 0..50 {
            law.on_invite(&signals(0.999, 0.999, 1));
        }
        assert!(law.is_shedding());
        assert!(
            (law.delay_est_ms - 198.0).abs() < 0.1,
            "{}",
            law.delay_est_ms
        );
        law.on_crash();
        // A fresh estimator reads 0.3 · 98 ms at load 0.98 and admits; a
        // stale one would read 0.3 · 98 + 0.7 · 198 ≈ 168 ms, over the
        // 150 ms budget, and shed.
        assert!(law.on_invite(&signals(0.98, 0.98, 1)).admit);
        assert!(!law.is_shedding());
    }

    #[test]
    fn mos_cac_rejects_on_predicted_quality_not_just_channels() {
        let mut law = ControlLaw::mos_cac_default().build();
        // Clean link, free channels: admit.
        assert!(law.on_invite(&signals(0.5, 0.0, 5)).admit);
        // Clean link but exhausted pool: reject.
        assert!(!law.on_invite(&signals(1.0, 0.0, 0)).admit);
        // Channels free but the link is lossy enough that a new call would
        // score below 3.5: reject — the 3D part of 3D-CAC.
        let lossy = LoadSignals {
            occupancy: 0.2,
            cpu: 0.1,
            free_channels: 5,
            link_loss: 0.15,
            link_jitter_ms: 60.0,
            link_delay_ms: 150.0,
        };
        assert!(predict_mos(&lossy) < 3.5);
        assert!(!law.on_invite(&lossy).admit);
        assert!(law.is_shedding());
        law.on_crash();
        assert!(!law.is_shedding());
    }

    #[test]
    fn control_law_names_are_stable_and_built_laws_agree() {
        let laws = [
            ControlLaw::hysteresis_default(),
            ControlLaw::rate_based_for(5.0),
            ControlLaw::window_based_for(8),
            ControlLaw::signal_based_default(),
            ControlLaw::mos_cac_default(),
        ];
        let names: Vec<&str> = laws.iter().map(ControlLaw::name).collect();
        assert_eq!(
            names,
            [
                "hysteresis503",
                "rate_based",
                "window_based",
                "signal_based",
                "mos_cac"
            ]
        );
        for law in laws {
            assert_eq!(law.build().name(), law.name());
        }
    }

    /// Step `i` of the pinned trace: load ramps 0 → 1.2 → 0 over 400
    /// steps, free channels (of 10) fall to 0 around the peak, and the
    /// link is lossy over steps 60..140, while channels are still free.
    fn trace_signals(i: u32) -> LoadSignals {
        let load = 1.2 * (1.0 - (f64::from(i) - 200.0).abs() / 200.0);
        let occupancy = load.min(1.0);
        let lossy = (60..140).contains(&i);
        LoadSignals {
            occupancy,
            cpu: 0.9 * load,
            free_channels: ((1.0 - occupancy) * 10.0).round() as u32,
            link_loss: if lossy { 0.15 } else { 0.001 },
            link_jitter_ms: if lossy { 60.0 } else { 2.0 },
            link_delay_ms: if lossy { 150.0 } else { 1.0 },
        }
    }

    /// Every law's decisions over one fixed 400-step sequence (a crash at
    /// step 200), folded with FNV-1a over (admit, `Retry-After` ns,
    /// feedback bits, shedding) per step. The literals were printed before
    /// the five law structs were folded into one `Law`; whole runs pin the
    /// laws only through `overload_suite` and the campaign fold.
    /// `cargo test -p overload decision_traces -- --nocapture` prints them.
    #[test]
    fn decision_traces_are_pinned() {
        let laws = [
            ControlLaw::hysteresis_default(),
            ControlLaw::Hysteresis {
                high_watermark: 0.75,
                low_watermark: 0.30,
                retry_after: SimDuration::from_secs(3),
            },
            ControlLaw::rate_based_for(10.0),
            ControlLaw::window_based_for(10),
            ControlLaw::signal_based_default(),
            ControlLaw::mos_cac_default(),
        ];
        let folds: Vec<u64> = laws
            .iter()
            .map(|params| {
                let mut law = params.build();
                let mut hash = 0xcbf2_9ce4_8422_2325_u64;
                let mut fold = |v: u64| {
                    for b in v.to_le_bytes() {
                        hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                    }
                };
                for step in 0..400 {
                    if step == 200 {
                        law.on_crash();
                    }
                    let d = law.on_invite(&trace_signals(step));
                    fold(u64::from(d.admit));
                    fold(d.retry_after.map_or(u64::MAX, SimDuration::as_nanos));
                    fold(match d.feedback {
                        None => 0,
                        Some(Feedback::Rate(r)) => r.to_bits(),
                        Some(Feedback::Window(w)) => 1 << 32 | u64::from(w),
                    });
                    fold(u64::from(law.is_shedding()));
                }
                hash
            })
            .collect();
        println!("decision trace folds: {folds:#018x?}");
        assert_eq!(
            folds,
            [
                0x3660_0e11_1166_7299,
                0x8246_f9ed_6f21_a879,
                0xb210_3413_99eb_7bc7,
                0xb252_0297_92da_b387,
                0xd3ac_f410_bfb6_6409,
                0xd9a2_8a9a_60ae_c1c9,
            ]
        );
    }
}
