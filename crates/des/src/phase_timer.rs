//! Wall-clock phase attribution for the event loop.
//!
//! A capacity run spends its wall time in a handful of distinct kinds of
//! work — SIP signalling, media companding, RTP relaying, monitor scoring
//! — plus the scheduler machinery that dispatches between them. Knowing
//! the split is what turns "the run is slow" into "companding is 60 % of
//! the wall clock", so the media-plane optimisations can be verified in
//! the report instead of guessed at from totals.
//!
//! The timer is compiled out unless the `phase-timing` cargo feature is
//! enabled: without it [`PhaseTimer::measure`] is a direct call of the
//! closure with no clock reads, no state, and nothing for the optimiser
//! to keep alive — the hot path pays nothing. With the feature on, each
//! `measure` costs two monotonic clock reads, which is accurate enough to
//! rank the buckets but adds a few percent of overhead on packet-rate
//! events; benchmark numbers meant for records should be taken with the
//! feature off and the breakdown captured in a separate profiling run.

use serde::{Deserialize, Serialize};

/// The kinds of handler work the simulation attributes wall time to.
/// The scheduler bucket is not measured directly — it is whatever part of
/// the total wall clock no handler claimed (see
/// [`PhaseTimer::breakdown`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// SIP parsing, state machines, call placement and teardown.
    Signalling = 0,
    /// PCM synthesis and G.711 companding of media frames.
    MediaEncode = 1,
    /// Moving RTP datagrams through links and the PBX relay.
    Relay = 2,
    /// Monitor taps: per-packet RTP statistics and SIP accounting.
    Scoring = 3,
}

const PHASES: usize = 4;

/// Seconds of wall clock attributed to each bucket of a run.
///
/// `enabled` records whether the producing binary was compiled with
/// `phase-timing`; when it is `false` every bucket is zero and consumers
/// (the text report) should omit the breakdown rather than print zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Whether the breakdown was actually measured.
    pub enabled: bool,
    /// Event-loop overhead: pop/push, dispatch, and anything no handler
    /// bucket claimed.
    pub scheduler_s: f64,
    /// Time in SIP signalling handlers.
    pub signalling_s: f64,
    /// Time synthesising and companding media frames.
    pub media_encode_s: f64,
    /// Time relaying RTP through the network and PBX.
    pub relay_s: f64,
    /// Time scoring packets in the monitor.
    pub scoring_s: f64,
}

impl PhaseBreakdown {
    /// Sum of the measured handler buckets (excludes the scheduler
    /// remainder).
    #[must_use]
    pub fn handler_total_s(&self) -> f64 {
        self.signalling_s + self.media_encode_s + self.relay_s + self.scoring_s
    }
}

/// Accumulates per-phase wall time. Zero-cost unless the crate is built
/// with the `phase-timing` feature.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimer {
    #[cfg(feature = "phase-timing")]
    nanos: [u64; PHASES],
}

impl PhaseTimer {
    /// A timer with all buckets empty.
    #[must_use]
    pub fn new() -> Self {
        PhaseTimer::default()
    }

    /// Whether this build measures phases (`phase-timing` feature).
    #[must_use]
    pub const fn enabled() -> bool {
        cfg!(feature = "phase-timing")
    }

    /// Run `f`, attributing its wall time to `phase`. Compiles to a plain
    /// call when phase timing is off.
    #[inline]
    pub fn measure<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        #[cfg(feature = "phase-timing")]
        {
            let start = std::time::Instant::now();
            let out = f();
            self.nanos[phase as usize] += u64::try_from(start.elapsed().as_nanos()).unwrap_or(0);
            out
        }
        #[cfg(not(feature = "phase-timing"))]
        {
            let _ = phase;
            f()
        }
    }

    /// Fold the measured buckets into a [`PhaseBreakdown`], attributing
    /// `total_wall_s` minus the handler buckets to the scheduler. Returns
    /// an all-zero, `enabled: false` breakdown when timing is compiled
    /// out.
    #[must_use]
    pub fn breakdown(&self, total_wall_s: f64) -> PhaseBreakdown {
        #[cfg(feature = "phase-timing")]
        {
            let s = |p: Phase| self.nanos[p as usize] as f64 / 1e9;
            let mut b = PhaseBreakdown {
                enabled: true,
                scheduler_s: 0.0,
                signalling_s: s(Phase::Signalling),
                media_encode_s: s(Phase::MediaEncode),
                relay_s: s(Phase::Relay),
                scoring_s: s(Phase::Scoring),
            };
            b.scheduler_s = (total_wall_s - b.handler_total_s()).max(0.0);
            b
        }
        #[cfg(not(feature = "phase-timing"))]
        {
            let _ = total_wall_s;
            let _ = PHASES; // used only by the gated field otherwise
            PhaseBreakdown::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_the_closure_value() {
        let mut t = PhaseTimer::new();
        let v = t.measure(Phase::Signalling, || 41 + 1);
        assert_eq!(v, 42);
    }

    #[test]
    fn breakdown_matches_build_mode() {
        let mut t = PhaseTimer::new();
        t.measure(Phase::MediaEncode, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let b = t.breakdown(1.0);
        if PhaseTimer::enabled() {
            assert!(b.enabled);
            assert!(b.media_encode_s > 0.0, "{b:?}");
            assert!(b.scheduler_s <= 1.0);
            assert!((b.scheduler_s + b.handler_total_s() - 1.0).abs() < 1e-9);
        } else {
            assert_eq!(b, PhaseBreakdown::default());
        }
    }

    #[test]
    fn scheduler_share_never_negative() {
        let mut t = PhaseTimer::new();
        t.measure(Phase::Relay, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        // Caller passes a total smaller than the measured buckets (clock
        // skew between the outer and inner timers): clamp at zero.
        let b = t.breakdown(0.0);
        assert!(b.scheduler_s >= 0.0);
    }
}
