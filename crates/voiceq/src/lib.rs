//! Voice quality estimation — the ITU-T G.107 E-model.
//!
//! The paper assesses call quality with the Mean Opinion Score measured by
//! VoIPmonitor. VoIPmonitor (like every passive monitor) does not run the
//! subjective ITU-T P.800 listening test; it computes an **objective MOS
//! estimate** from measured network impairments using the E-model. This
//! crate implements that computation:
//!
//! ```text
//! R = Ro − Is − Id − Ie,eff + A        (G.107 Eq. 1, simplified defaults)
//! ```
//!
//! * `Ro − Is = 93.2` — the default signal-to-noise baseline with standard
//!   send/receive loudness ratings;
//! * `Id` — delay impairment, a function of one-way mouth-to-ear delay;
//! * `Ie,eff` — effective equipment impairment: the codec's intrinsic
//!   impairment inflated by packet loss against its loss robustness `Bpl`;
//! * `A` — advantage factor (0 for fixed networks; up to 10 is sometimes
//!   granted for wireless access, which we expose but default to 0).
//!
//! The R-factor maps to MOS via the G.107 Annex B cubic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// Default `Ro − Is` baseline R-factor with all G.107 defaults.
pub const DEFAULT_BASE_R: f64 = 93.2;

/// Codec parameters for the `Ie,eff` computation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CodecProfile {
    /// Intrinsic equipment impairment `Ie` (0 for G.711).
    pub ie: f64,
    /// Packet-loss robustness `Bpl` (25.1 for G.711 with PLC, random loss).
    pub bpl: f64,
    /// Codec + packetization delay contribution in ms (one 20 ms frame for
    /// G.711, negligible lookahead).
    pub codec_delay_ms: f64,
}

impl CodecProfile {
    /// ITU-T G.113 Appendix I values for G.711 with packet-loss concealment.
    #[must_use]
    pub fn g711() -> Self {
        CodecProfile {
            ie: 0.0,
            bpl: 25.1,
            codec_delay_ms: 20.0,
        }
    }

    /// G.711 **without** concealment — markedly less loss-robust
    /// (Bpl = 4.3); the contrast case for the concealment tests.
    #[must_use]
    pub fn g711_no_plc() -> Self {
        CodecProfile {
            ie: 0.0,
            bpl: 4.3,
            codec_delay_ms: 20.0,
        }
    }

    /// G.729A, for comparison studies (Ie = 11, Bpl = 19).
    #[must_use]
    pub fn g729a() -> Self {
        CodecProfile {
            ie: 11.0,
            bpl: 19.0,
            codec_delay_ms: 25.0,
        }
    }
}

/// Inputs to one E-model evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EModelInputs {
    /// One-way network delay in milliseconds (propagation + queueing).
    pub network_delay_ms: f64,
    /// Receive-side jitter buffer delay in milliseconds.
    pub jitter_buffer_ms: f64,
    /// Packet loss probability in `[0, 1]` **after** the jitter buffer
    /// (network loss plus late discards).
    pub packet_loss: f64,
    /// Burstiness ratio `BurstR` (1.0 = random/Bernoulli loss; >1 bursty).
    pub burst_ratio: f64,
    /// Codec profile.
    pub codec: CodecProfile,
    /// Advantage factor `A` (0 conventional, ≤ 10 wireless).
    pub advantage: f64,
}

impl EModelInputs {
    /// Inputs for a pristine G.711 call: no loss, negligible delay.
    #[must_use]
    pub fn ideal_g711() -> Self {
        EModelInputs {
            network_delay_ms: 0.5,
            jitter_buffer_ms: 40.0,
            packet_loss: 0.0,
            burst_ratio: 1.0,
            codec: CodecProfile::g711(),
            advantage: 0.0,
        }
    }

    /// Inputs for a measured G.711 (with PLC) call on a fixed network
    /// (advantage 0): mean one-way `delay_ms`, interarrival `jitter_ms`,
    /// `loss` fraction and `burst_ratio`. The receiver is assumed to run
    /// an adaptive jitter buffer sized at twice the observed jitter,
    /// floored at two packet times (`max(2·jitter, 40 ms)`) — the common
    /// deployment rule, and the one both the monitor's per-call score and
    /// MOS-aware admission use.
    #[must_use]
    pub fn measured_g711(delay_ms: f64, jitter_ms: f64, loss: f64, burst_ratio: f64) -> Self {
        EModelInputs {
            network_delay_ms: delay_ms,
            jitter_buffer_ms: (2.0 * jitter_ms).max(40.0),
            packet_loss: loss,
            burst_ratio,
            codec: CodecProfile::g711(),
            advantage: 0.0,
        }
    }

    /// Total one-way mouth-to-ear delay `Ta` in milliseconds.
    #[must_use]
    pub fn total_delay_ms(&self) -> f64 {
        self.network_delay_ms + self.jitter_buffer_ms + self.codec.codec_delay_ms
    }
}

/// Delay impairment `Id` per the widely used G.107 approximation
/// (Cole & Rosenbluth): `Id = 0.024·Ta + 0.11·(Ta − 177.3)·H(Ta − 177.3)`.
#[must_use]
pub fn delay_impairment(ta_ms: f64) -> f64 {
    let ta = ta_ms.max(0.0);
    let mut id = 0.024 * ta;
    if ta > 177.3 {
        id += 0.11 * (ta - 177.3);
    }
    id
}

/// Effective equipment impairment
/// `Ie,eff = Ie + (95 − Ie) · Ppl / (Ppl/BurstR + Bpl)` with `Ppl` in
/// percent (G.107 Eq. 7-29).
#[must_use]
pub fn equipment_impairment(codec: CodecProfile, packet_loss: f64, burst_ratio: f64) -> f64 {
    let ppl = (packet_loss.clamp(0.0, 1.0)) * 100.0;
    let burst = burst_ratio.max(1.0);
    codec.ie + (95.0 - codec.ie) * ppl / (ppl / burst + codec.bpl)
}

/// The transmission rating factor R for the given inputs.
#[must_use]
pub fn r_factor(inputs: &EModelInputs) -> f64 {
    let id = delay_impairment(inputs.total_delay_ms());
    let ie_eff = equipment_impairment(inputs.codec, inputs.packet_loss, inputs.burst_ratio);
    DEFAULT_BASE_R - id - ie_eff + inputs.advantage.clamp(0.0, 20.0)
}

/// Map an R-factor to MOS (G.107 Annex B).
///
/// The raw Annex B cubic dips slightly below 1.0 for R ≲ 6 (a known quirk
/// of the fit); like deployed implementations we clamp the result to the
/// MOS scale `[1.0, 4.5]`, which also makes the mapping monotone.
#[must_use]
pub fn r_to_mos(r: f64) -> f64 {
    if r <= 0.0 {
        1.0
    } else if r >= 100.0 {
        4.5
    } else {
        (1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7e-6).clamp(1.0, 4.5)
    }
}

/// Inverse of [`r_to_mos`] by bisection (returns the R in `[0, 100]` whose
/// MOS is closest to the target).
#[must_use]
pub fn mos_to_r(mos: f64) -> f64 {
    let target = mos.clamp(1.0, 4.5);
    let (mut lo, mut hi) = (0.0f64, 100.0f64);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if r_to_mos(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// One-call convenience: MOS estimate for the given inputs.
#[must_use]
pub fn estimate_mos(inputs: &EModelInputs) -> f64 {
    r_to_mos(r_factor(inputs))
}

/// ITU quality categories for an R factor (G.109).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QualityCategory {
    /// R ≥ 90: users very satisfied.
    Best,
    /// 80 ≤ R < 90: satisfied.
    High,
    /// 70 ≤ R < 80: some dissatisfied.
    Medium,
    /// 60 ≤ R < 70: many dissatisfied.
    Low,
    /// R < 60: nearly all dissatisfied.
    Poor,
}

/// Classify an R-factor per G.109.
#[must_use]
pub fn categorize(r: f64) -> QualityCategory {
    if r >= 90.0 {
        QualityCategory::Best
    } else if r >= 80.0 {
        QualityCategory::High
    } else if r >= 70.0 {
        QualityCategory::Medium
    } else if r >= 60.0 {
        QualityCategory::Low
    } else {
        QualityCategory::Poor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_g711_is_toll_quality() {
        // The paper's Table I reports MOS ≈ 4.4–4.46 for unloaded runs.
        let mos = estimate_mos(&EModelInputs::ideal_g711());
        assert!(mos > 4.3 && mos <= 4.5, "mos={mos}");
    }

    #[test]
    fn r_to_mos_anchors() {
        assert_eq!(r_to_mos(-5.0), 1.0);
        assert_eq!(r_to_mos(0.0), 1.0);
        assert_eq!(r_to_mos(100.0), 4.5);
        assert_eq!(r_to_mos(120.0), 4.5);
        // R = 60 -> 1 + 2.1 + 0 = 3.1 exactly (cubic term vanishes).
        assert!((r_to_mos(60.0) - 3.1).abs() < 1e-12);
        // Default baseline ~93.2 -> ~4.41.
        assert!((r_to_mos(93.2) - 4.41).abs() < 0.02);
    }

    #[test]
    fn r_to_mos_monotone() {
        let mut prev = 0.0;
        for i in 0..=1000 {
            let r = f64::from(i) / 10.0;
            let m = r_to_mos(r);
            assert!(m >= prev - 1e-12, "r={r}");
            prev = m;
        }
    }

    #[test]
    fn mos_to_r_inverts() {
        // Below R ≈ 6 the clamped mapping is flat at MOS 1.0 and therefore
        // not invertible; test the invertible region.
        for &r in &[10.0, 30.0, 50.0, 70.0, 93.2, 99.0] {
            let m = r_to_mos(r);
            let back = mos_to_r(m);
            assert!((back - r).abs() < 1e-6, "r={r} back={back}");
        }
        // Clamped extremes.
        assert!(mos_to_r(0.5) <= 1e-6);
        assert!((mos_to_r(5.0) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn delay_impairment_shape() {
        assert_eq!(delay_impairment(0.0), 0.0);
        assert_eq!(delay_impairment(-10.0), 0.0);
        // Below the 177.3 ms knee: linear 0.024/ms.
        assert!((delay_impairment(100.0) - 2.4).abs() < 1e-12);
        // Above the knee the slope steepens.
        let below = delay_impairment(177.0);
        let above = delay_impairment(277.0);
        assert!(above - below > 0.024 * 100.0 + 10.0, "knee adds 0.11/ms");
    }

    #[test]
    fn loss_impairment_g711_anchors() {
        // 1% random loss on G.711+PLC: Ie,eff = 95·1/(1/1+25.1) ≈ 3.64.
        let ie = equipment_impairment(CodecProfile::g711(), 0.01, 1.0);
        assert!((ie - 3.64).abs() < 0.01, "ie={ie}");
        // No loss: intrinsic only.
        assert_eq!(equipment_impairment(CodecProfile::g711(), 0.0, 1.0), 0.0);
        assert_eq!(equipment_impairment(CodecProfile::g729a(), 0.0, 1.0), 11.0);
        // 100% loss approaches 95.
        let ie = equipment_impairment(CodecProfile::g711(), 1.0, 1.0);
        assert!(ie > 70.0 && ie <= 95.0);
    }

    #[test]
    fn burstiness_hurts() {
        let random = equipment_impairment(CodecProfile::g711(), 0.02, 1.0);
        let bursty = equipment_impairment(CodecProfile::g711(), 0.02, 2.0);
        assert!(bursty > random);
        // BurstR below 1 is clamped to 1.
        let sub = equipment_impairment(CodecProfile::g711(), 0.02, 0.2);
        assert_eq!(sub, random);
    }

    #[test]
    fn plc_matters() {
        let with = equipment_impairment(CodecProfile::g711(), 0.03, 1.0);
        let without = equipment_impairment(CodecProfile::g711_no_plc(), 0.03, 1.0);
        assert!(without > 2.0 * with, "no-PLC should be much worse");
    }

    #[test]
    fn mos_degrades_with_loss_but_survives_moderate_loss() {
        // The paper's observation: even at overload (with blocking), the
        // completed calls keep MOS above 4 because per-call loss stays low.
        let mut inputs = EModelInputs::ideal_g711();
        let m0 = estimate_mos(&inputs);
        inputs.packet_loss = 0.005;
        let m1 = estimate_mos(&inputs);
        inputs.packet_loss = 0.02;
        let m2 = estimate_mos(&inputs);
        inputs.packet_loss = 0.10;
        let m3 = estimate_mos(&inputs);
        assert!(m0 > m1 && m1 > m2 && m2 > m3);
        assert!(m1 > 4.0, "0.5% loss still 'good': {m1}");
        assert!(m3 < 3.6, "10% loss clearly degraded: {m3}");
    }

    #[test]
    fn mos_degrades_with_delay() {
        let mut inputs = EModelInputs::ideal_g711();
        inputs.network_delay_ms = 400.0;
        let slow = estimate_mos(&inputs);
        assert!(slow < 4.0, "satellite-ish delay is audible: {slow}");
        assert!(
            slow > estimate_mos(&EModelInputs {
                network_delay_ms: 800.0,
                ..inputs
            })
        );
    }

    #[test]
    fn advantage_factor_compensates() {
        let mut inputs = EModelInputs::ideal_g711();
        inputs.packet_loss = 0.02;
        let plain = estimate_mos(&inputs);
        inputs.advantage = 10.0;
        let wireless = estimate_mos(&inputs);
        assert!(wireless > plain);
        // Clamped to the G.107 maximum of 20.
        inputs.advantage = 50.0;
        let clamped_r = r_factor(&inputs);
        inputs.advantage = 20.0;
        assert!((clamped_r - r_factor(&inputs)).abs() < 1e-12);
    }

    #[test]
    fn measured_call_sizes_its_jitter_buffer_from_jitter() {
        // Quiet network: the 40 ms floor (two packet times) holds.
        let quiet = EModelInputs::measured_g711(0.5, 5.0, 0.0, 1.0);
        assert_eq!(quiet, EModelInputs::ideal_g711());
        // Jittery network: the buffer grows to twice the jitter.
        let jittery = EModelInputs::measured_g711(20.0, 35.0, 0.01, 2.0);
        assert_eq!(jittery.jitter_buffer_ms, 70.0);
        assert_eq!(jittery.advantage, 0.0);
        assert_eq!(jittery.codec, CodecProfile::g711());
        assert!(estimate_mos(&jittery) < estimate_mos(&quiet));
    }

    #[test]
    fn categories() {
        assert_eq!(categorize(95.0), QualityCategory::Best);
        assert_eq!(categorize(85.0), QualityCategory::High);
        assert_eq!(categorize(75.0), QualityCategory::Medium);
        assert_eq!(categorize(65.0), QualityCategory::Low);
        assert_eq!(categorize(10.0), QualityCategory::Poor);
    }

    #[test]
    fn total_delay_composition() {
        let inputs = EModelInputs {
            network_delay_ms: 30.0,
            jitter_buffer_ms: 60.0,
            ..EModelInputs::ideal_g711()
        };
        assert!((inputs.total_delay_ms() - 110.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// MOS is always in [1, 4.5].
        #[test]
        fn mos_bounded(
            delay in 0.0f64..2000.0,
            jb in 0.0f64..500.0,
            loss in 0.0f64..1.0,
            burst in 0.5f64..8.0,
            adv in 0.0f64..20.0,
        ) {
            let inputs = EModelInputs {
                network_delay_ms: delay,
                jitter_buffer_ms: jb,
                packet_loss: loss,
                burst_ratio: burst,
                codec: CodecProfile::g711(),
                advantage: adv,
            };
            let mos = estimate_mos(&inputs);
            prop_assert!((1.0..=4.5).contains(&mos));
        }

        /// More loss never improves MOS (all else equal).
        #[test]
        fn loss_monotone(loss in 0.0f64..0.95, extra in 0.001f64..0.05) {
            let mut a = EModelInputs::ideal_g711();
            a.packet_loss = loss;
            let mut b = a;
            b.packet_loss = loss + extra;
            prop_assert!(estimate_mos(&b) <= estimate_mos(&a) + 1e-12);
        }

        /// More delay never improves MOS.
        #[test]
        fn delay_monotone(d in 0.0f64..900.0, extra in 1.0f64..100.0) {
            let mut a = EModelInputs::ideal_g711();
            a.network_delay_ms = d;
            let mut b = a;
            b.network_delay_ms = d + extra;
            prop_assert!(estimate_mos(&b) <= estimate_mos(&a) + 1e-12);
        }
    }
}
