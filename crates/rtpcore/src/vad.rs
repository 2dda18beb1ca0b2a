//! Voice activity / talkspurt modelling.
//!
//! The paper's experiments deliberately use "a dialogue between end-points
//! without moments of idleness" — i.e. VAD off, a constant 50 pps per
//! direction. Real conversations alternate talkspurts and silences
//! (classically modelled as a two-state Markov process with ~1 s talk and
//! ~1.35 s silence means, giving ~40% activity per direction). This module
//! provides that process as a gate in front of a stream's one voice
//! source, so an experiment can quantify how much headroom silence
//! suppression would have bought the UnB deployment. The gate says only
//! whether a 20 ms slot carries speech: the stream's
//! [`Packetizer`](crate::Packetizer) skips a silent slot and marks the
//! first packet after it.

use des::rng::Distributions;
use des::StreamRng;

/// A two-state (talk/silence) Markov gate over 20 ms frame slots.
#[derive(Debug, Clone)]
pub struct TalkspurtSource {
    rng: StreamRng,
    mean_talk_frames: f64,
    mean_silence_frames: f64,
    talking: bool,
    frames_left: u64,
}

impl TalkspurtSource {
    /// A gate with the given mean talkspurt and silence durations in
    /// seconds (Brady's classic values are ≈1.0 s talk, ≈1.35 s silence).
    /// The first slot always carries speech.
    #[must_use]
    pub fn new(seed: u64, mean_talk_s: f64, mean_silence_s: f64) -> Self {
        assert!(mean_talk_s > 0.0 && mean_silence_s >= 0.0);
        let mut rng = StreamRng::seed_from_u64(seed ^ 0x7A1C_59D2_7AB3_0C41);
        let mean_talk_frames = mean_talk_s / 0.020;
        let mean_silence_frames = mean_silence_s / 0.020;
        let first = sample_geometric(&mut rng, mean_talk_frames);
        TalkspurtSource {
            rng,
            mean_talk_frames,
            mean_silence_frames,
            talking: true,
            frames_left: first,
        }
    }

    /// The conversational default (≈42% activity).
    #[must_use]
    pub fn conversational(seed: u64) -> Self {
        TalkspurtSource::new(seed, 1.0, 1.35)
    }

    /// Step one 20 ms slot: whether it carries speech (with suppression
    /// on, a silent slot sends nothing).
    pub fn next_slot(&mut self) -> bool {
        while self.frames_left == 0 {
            self.talking = !self.talking;
            let mean = if self.talking {
                self.mean_talk_frames
            } else {
                self.mean_silence_frames
            };
            self.frames_left = sample_geometric(&mut self.rng, mean);
        }
        self.frames_left -= 1;
        self.talking
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
    use crate::packetizer::{Law, Packetizer};

    #[test]
    fn activity_factor_matches_the_model() {
        let mut src = TalkspurtSource::conversational(5);
        let n = 200_000;
        let talking = (0..n).filter(|_| src.next_slot()).count();
        let activity = talking as f64 / n as f64;
        // 1.0 / (1.0 + 1.35) ≈ 0.426.
        assert!((activity - 0.426).abs() < 0.03, "activity={activity}");
    }

    #[test]
    fn marker_set_exactly_on_spurt_starts() {
        // The gate decides which slots are sent; the packetizer alone
        // decides the marker, as the media plane drives the two.
        let mut src = TalkspurtSource::new(9, 0.2, 0.2);
        let mut packetizer = Packetizer::new(1, Law::Mu, 0, 0);
        let mut prev_silence = false;
        let mut spurt_starts = 0;
        let mut marker_frames = 0;
        for _ in 0..10_000 {
            if src.next_slot() {
                let marked = packetizer.next_header().marker;
                if marked {
                    marker_frames += 1;
                    assert!(
                        prev_silence || marker_frames == 1,
                        "marker only after silence (or at stream start)"
                    );
                }
                if prev_silence {
                    spurt_starts += 1;
                    assert!(marked, "first talk frame must carry the marker");
                }
                prev_silence = false;
            } else {
                packetizer.skip_frame();
                prev_silence = true;
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
            (0..500).map(|_| s.next_slot()).collect::<Vec<_>>()
        };
        assert_eq!(collect(1), collect(1));
        assert_ne!(collect(1), collect(2));
    }

    #[test]
    fn bandwidth_saving_estimate() {
        // The ablation headline: silence suppression cuts packet rate by
        // the inactivity factor (~57%), which maps 1:1 to PBX relay load.
        let mut src = TalkspurtSource::conversational(11);
        let n = 100_000;
        let sent = (0..n).filter(|_| src.next_slot()).count();
        let saving = 1.0 - sent as f64 / n as f64;
        assert!(saving > 0.5 && saving < 0.65, "saving={saving}");
    }
}
