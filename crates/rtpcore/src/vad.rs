//! Voice activity / talkspurt modelling.
//!
//! The paper's experiments deliberately use "a dialogue between end-points
//! without moments of idleness" — i.e. VAD off, a constant 50 pps per
//! direction. Real conversations alternate talkspurts and silences
//! (classically modelled as a two-state Markov process with ~1 s talk and
//! ~1.35 s silence means, giving ~40% activity per direction). This module
//! provides that source so an experiment can quantify how much
//! headroom silence suppression would have bought the UnB deployment.

use crate::packetizer::{VoiceSource, SAMPLES_PER_FRAME};
use des::rng::Distributions;
use des::StreamRng;

/// What a talkspurt source emits for one 20 ms frame slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameSlot {
    /// Active speech: samples to encode; `start_of_spurt` drives the RTP
    /// marker bit.
    Talk {
        /// PCM samples for this frame.
        samples: Vec<i16>,
        /// True on the first frame after silence (RTP marker).
        start_of_spurt: bool,
    },
    /// Silence: with suppression on, nothing is sent for this slot.
    Silence,
}

/// A two-state (talk/silence) Markov voice source.
#[derive(Debug, Clone)]
pub struct TalkspurtSource {
    voice: VoiceSource,
    rng: StreamRng,
    mean_talk_frames: f64,
    mean_silence_frames: f64,
    talking: bool,
    frames_left: u64,
    fresh_spurt: bool,
}

impl TalkspurtSource {
    /// A source with the given mean talkspurt and silence durations in
    /// seconds (Brady's classic values are ≈1.0 s talk, ≈1.35 s silence).
    #[must_use]
    pub fn new(seed: u64, mean_talk_s: f64, mean_silence_s: f64) -> Self {
        assert!(mean_talk_s > 0.0 && mean_silence_s >= 0.0);
        let mut rng = StreamRng::seed_from_u64(seed ^ 0x7A1C_59D2_7AB3_0C41);
        let mean_talk_frames = mean_talk_s / 0.020;
        let mean_silence_frames = mean_silence_s / 0.020;
        let first = sample_geometric(&mut rng, mean_talk_frames);
        TalkspurtSource {
            voice: VoiceSource::new(seed),
            rng,
            mean_talk_frames,
            mean_silence_frames,
            talking: true,
            frames_left: first,
            fresh_spurt: true,
        }
    }

    /// The conversational default (≈42% activity).
    #[must_use]
    pub fn conversational(seed: u64) -> Self {
        TalkspurtSource::new(seed, 1.0, 1.35)
    }

    /// Produce the next 20 ms slot.
    pub fn next_slot(&mut self) -> FrameSlot {
        while self.frames_left == 0 {
            self.talking = !self.talking;
            self.fresh_spurt = self.talking;
            let mean = if self.talking {
                self.mean_talk_frames
            } else {
                self.mean_silence_frames
            };
            self.frames_left = sample_geometric(&mut self.rng, mean);
        }
        self.frames_left -= 1;
        if self.talking {
            let start = self.fresh_spurt;
            self.fresh_spurt = false;
            FrameSlot::Talk {
                samples: self.voice.next_samples(SAMPLES_PER_FRAME),
                start_of_spurt: start,
            }
        } else {
            FrameSlot::Silence
        }
    }
}

/// Geometric number of frames with the given mean (at least 1).
fn sample_geometric(rng: &mut StreamRng, mean_frames: f64) -> u64 {
    if mean_frames <= 1.0 {
        return 1;
    }
    // Exponential holding discretised to frames.
    (rng.exp_mean(mean_frames).round() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_factor_matches_the_model() {
        let mut src = TalkspurtSource::conversational(5);
        let n = 200_000;
        let talking = (0..n)
            .filter(|_| matches!(src.next_slot(), FrameSlot::Talk { .. }))
            .count();
        let activity = talking as f64 / n as f64;
        // 1.0 / (1.0 + 1.35) ≈ 0.426.
        assert!((activity - 0.426).abs() < 0.03, "activity={activity}");
    }

    #[test]
    fn marker_set_exactly_on_spurt_starts() {
        let mut src = TalkspurtSource::new(9, 0.2, 0.2);
        let mut prev_silence = false;
        let mut spurt_starts = 0;
        let mut marker_frames = 0;
        for _ in 0..10_000 {
            match src.next_slot() {
                FrameSlot::Talk { start_of_spurt, .. } => {
                    if start_of_spurt {
                        marker_frames += 1;
                        assert!(
                            prev_silence || marker_frames == 1,
                            "marker only after silence (or at stream start)"
                        );
                    }
                    if prev_silence {
                        spurt_starts += 1;
                        assert!(start_of_spurt, "first talk frame must carry the marker");
                    }
                    prev_silence = false;
                }
                FrameSlot::Silence => {
                    prev_silence = true;
                }
            }
        }
        assert!(spurt_starts > 10, "the source alternates: {spurt_starts}");
        assert_eq!(
            marker_frames,
            spurt_starts + 1,
            "start-of-stream marker plus one per spurt"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let collect = |seed| {
            let mut s = TalkspurtSource::conversational(seed);
            (0..500)
                .map(|_| matches!(s.next_slot(), FrameSlot::Talk { .. }))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(1), collect(1));
        assert_ne!(collect(1), collect(2));
    }

    #[test]
    fn talk_frames_carry_real_audio() {
        let mut src = TalkspurtSource::new(3, 10.0, 0.0001);
        match src.next_slot() {
            FrameSlot::Talk { samples, .. } => {
                assert_eq!(samples.len(), SAMPLES_PER_FRAME);
                assert!(samples.iter().any(|&s| s != 0));
            }
            FrameSlot::Silence => panic!("long talk mean should start talking"),
        }
    }

    #[test]
    fn bandwidth_saving_estimate() {
        // The ablation headline: silence suppression cuts packet rate by
        // the inactivity factor (~57%), which maps 1:1 to PBX relay load.
        let mut src = TalkspurtSource::conversational(11);
        let n = 100_000;
        let sent = (0..n)
            .filter(|_| matches!(src.next_slot(), FrameSlot::Talk { .. }))
            .count();
        let saving = 1.0 - sent as f64 / n as f64;
        assert!(saving > 0.5 && saving < 0.65, "saving={saving}");
    }
}
