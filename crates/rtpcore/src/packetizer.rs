//! Packetization: PCM sample blocks → timed RTP packets.
//!
//! The evaluation's media plane is fixed at the G.711 defaults the paper
//! uses: 8 kHz sampling, 20 ms packet time, hence 160 samples (and 160
//! companded bytes) per packet and 50 packets per second per direction.

use crate::g711::{alaw_encode, alaw_encode_into, ulaw_encode, ulaw_encode_into};
use crate::packet::{RtpDatagram, RtpHeader, RtpPacket};
use std::sync::Arc;

/// Audio sampling rate (Hz).
pub const SAMPLE_RATE_HZ: u32 = 8000;
/// Packet time in milliseconds.
pub const PTIME_MS: u32 = 20;
/// Samples per RTP packet: 8000 Hz × 20 ms.
pub const SAMPLES_PER_FRAME: usize = (SAMPLE_RATE_HZ as usize * PTIME_MS as usize) / 1000;
/// Packets per second per direction.
pub const PACKETS_PER_SECOND: u32 = 1000 / PTIME_MS;

/// Which G.711 law to compand with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Law {
    /// μ-law (payload type 0).
    Mu,
    /// A-law (payload type 8).
    A,
}

impl Law {
    /// Static RTP payload type.
    #[must_use]
    pub fn payload_type(self) -> u8 {
        match self {
            Law::Mu => 0,
            Law::A => 8,
        }
    }
}

/// A deterministic speech-band signal source standing in for a microphone.
///
/// Produces a sum of two enharmonic tones with slow amplitude modulation —
/// enough spectral and envelope structure to exercise the codec and the
/// quality analysis without shipping audio fixtures. Each source is phase-
/// offset by its seed so concurrent calls do not correlate.
#[derive(Debug, Clone)]
pub struct VoiceSource {
    sample_index: u64,
    phase_a: f64,
    phase_b: f64,
}

impl VoiceSource {
    /// A source whose phases are derived from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let golden = 0.618_033_988_749_895_f64;
        VoiceSource {
            sample_index: 0,
            phase_a: (seed as f64 * golden).fract() * std::f64::consts::TAU,
            phase_b: (seed as f64 * golden * golden).fract() * std::f64::consts::TAU,
        }
    }

    /// Produce the next `n` PCM samples.
    pub fn next_samples(&mut self, n: usize) -> Vec<i16> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let t = self.sample_index as f64 / f64::from(SAMPLE_RATE_HZ);
            // 310 Hz + 1510 Hz partials, 2.3 Hz envelope: speech-ish.
            let env = 0.55 + 0.45 * (std::f64::consts::TAU * 2.3 * t).sin();
            let s = env
                * (0.6 * (std::f64::consts::TAU * 310.0 * t + self.phase_a).sin()
                    + 0.4 * (std::f64::consts::TAU * 1510.0 * t + self.phase_b).sin());
            out.push((s * 0.5 * f64::from(i16::MAX)) as i16);
            self.sample_index += 1;
        }
        out
    }
}

/// Batched phasor-bank twin of [`VoiceSource`].
///
/// Synthesizes the same two-partial + envelope signal family, but instead
/// of three `sin()` calls per sample it advances three complex rotors by
/// a fixed per-sample rotation — four multiplies and two adds each — and
/// renormalizes once per [`Self::fill`] call. That removes the
/// transcendental work that dominates the full-media profile once
/// companding is table-driven. Phase offsets are seeded exactly like
/// [`VoiceSource::new`], so concurrent calls stay decorrelated and the
/// waveform tracks the scalar source to within a couple of LSBs over a
/// frame; the simulation never reads payload bytes, so the tiny rounding
/// divergence cannot reach any physics output.
#[derive(Debug, Clone)]
pub struct FastVoiceSource {
    /// `(cos, sin)` state of the 310 Hz, 1510 Hz and 2.3 Hz rotors.
    tone_a: (f64, f64),
    tone_b: (f64, f64),
    env: (f64, f64),
    /// Per-sample rotation of each rotor.
    rot_a: (f64, f64),
    rot_b: (f64, f64),
    rot_env: (f64, f64),
}

#[inline]
fn rotate(z: (f64, f64), r: (f64, f64)) -> (f64, f64) {
    (z.0 * r.0 - z.1 * r.1, z.0 * r.1 + z.1 * r.0)
}

impl FastVoiceSource {
    /// A source whose phases are derived from `seed`, matching
    /// [`VoiceSource::new`].
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let golden = 0.618_033_988_749_895_f64;
        let phase_a = (seed as f64 * golden).fract() * std::f64::consts::TAU;
        let phase_b = (seed as f64 * golden * golden).fract() * std::f64::consts::TAU;
        let step = |hz: f64| {
            let w = std::f64::consts::TAU * hz / f64::from(SAMPLE_RATE_HZ);
            (w.cos(), w.sin())
        };
        FastVoiceSource {
            tone_a: (phase_a.cos(), phase_a.sin()),
            tone_b: (phase_b.cos(), phase_b.sin()),
            env: (1.0, 0.0),
            rot_a: step(310.0),
            rot_b: step(1510.0),
            rot_env: step(2.3),
        }
    }

    /// Fill `out` with the next `out.len()` PCM samples.
    pub fn fill(&mut self, out: &mut [i16]) {
        let (mut ta, mut tb, mut env) = (self.tone_a, self.tone_b, self.env);
        for dst in out.iter_mut() {
            let e = 0.55 + 0.45 * env.1;
            let s = e * (0.6 * ta.1 + 0.4 * tb.1);
            *dst = (s * 0.5 * f64::from(i16::MAX)) as i16;
            ta = rotate(ta, self.rot_a);
            tb = rotate(tb, self.rot_b);
            env = rotate(env, self.rot_env);
        }
        // One renormalization per block keeps |z| = 1 against rounding
        // drift without touching the per-sample loop.
        let norm = |z: (f64, f64)| {
            let m = (z.0 * z.0 + z.1 * z.1).sqrt();
            (z.0 / m, z.1 / m)
        };
        self.tone_a = norm(ta);
        self.tone_b = norm(tb);
        self.env = norm(env);
    }
}

/// Stateful RTP packetizer for one outgoing stream.
#[derive(Debug, Clone)]
pub struct Packetizer {
    ssrc: u32,
    law: Law,
    next_sequence: u16,
    next_timestamp: u32,
    first: bool,
}

impl Packetizer {
    /// A packetizer for stream `ssrc`, starting at the given sequence
    /// number and timestamp (real stacks randomise both; the simulation
    /// passes values from its RNG stream).
    #[must_use]
    pub fn new(ssrc: u32, law: Law, first_sequence: u16, first_timestamp: u32) -> Self {
        Packetizer {
            ssrc,
            law,
            next_sequence: first_sequence,
            next_timestamp: first_timestamp,
            first: true,
        }
    }

    /// Consume exactly [`SAMPLES_PER_FRAME`] PCM samples and emit the next
    /// packet. The first packet of the stream carries the marker bit.
    ///
    /// # Panics
    /// If `samples.len() != SAMPLES_PER_FRAME`.
    pub fn packetize(&mut self, samples: &[i16]) -> RtpPacket {
        assert_eq!(
            samples.len(),
            SAMPLES_PER_FRAME,
            "one 20 ms frame at a time"
        );
        let mut payload = vec![0u8; SAMPLES_PER_FRAME];
        match self.law {
            Law::Mu => ulaw_encode_into(samples, &mut payload),
            Law::A => alaw_encode_into(samples, &mut payload),
        }
        let pkt = RtpPacket {
            header: RtpHeader {
                marker: self.first,
                payload_type: self.law.payload_type(),
                sequence: self.next_sequence,
                timestamp: self.next_timestamp,
                ssrc: self.ssrc,
            },
            payload,
        };
        self.first = false;
        self.next_sequence = self.next_sequence.wrapping_add(1);
        self.next_timestamp = self.next_timestamp.wrapping_add(SAMPLES_PER_FRAME as u32);
        pkt
    }

    /// Emit just the next header, advancing sequence/timestamp/marker
    /// exactly like [`Self::packetize`]. The zero-copy media path pairs
    /// this with a shared payload it already holds.
    pub fn next_header(&mut self) -> RtpHeader {
        let header = RtpHeader {
            marker: self.first,
            payload_type: self.law.payload_type(),
            sequence: self.next_sequence,
            timestamp: self.next_timestamp,
            ssrc: self.ssrc,
        };
        self.first = false;
        self.next_sequence = self.next_sequence.wrapping_add(1);
        self.next_timestamp = self.next_timestamp.wrapping_add(SAMPLES_PER_FRAME as u32);
        header
    }

    /// Encode one 20 ms frame into a *shared* payload buffer, ready to be
    /// reused across frames (and across relay hops) without copying.
    ///
    /// # Panics
    /// If `samples.len() != SAMPLES_PER_FRAME`.
    #[must_use]
    pub fn encode_shared(&self, samples: &[i16]) -> Arc<[u8]> {
        assert_eq!(
            samples.len(),
            SAMPLES_PER_FRAME,
            "one 20 ms frame at a time"
        );
        match self.law {
            Law::Mu => samples.iter().map(|&s| ulaw_encode(s)).collect(),
            Law::A => samples.iter().map(|&s| alaw_encode(s)).collect(),
        }
    }

    /// Scalar-reference variant of [`Self::encode_shared`]: per-sample
    /// segment-search companding from [`crate::g711::reference`] rather
    /// than the lookup tables. This is the pre-vectorization media
    /// kernel, kept callable as the oracle the LUT-equivalence tests
    /// compare against.
    ///
    /// # Panics
    /// If `samples.len() != SAMPLES_PER_FRAME`.
    #[must_use]
    pub fn encode_shared_reference(&self, samples: &[i16]) -> Arc<[u8]> {
        assert_eq!(
            samples.len(),
            SAMPLES_PER_FRAME,
            "one 20 ms frame at a time"
        );
        match self.law {
            Law::Mu => samples
                .iter()
                .map(|&s| crate::g711::reference::ulaw_encode(s))
                .collect(),
            Law::A => samples
                .iter()
                .map(|&s| crate::g711::reference::alaw_encode(s))
                .collect(),
        }
    }

    /// Emit the next packet around an already-companded shared payload:
    /// the refcount bumps, the bytes do not move. Sequence/timestamp
    /// advance exactly like [`Self::packetize`].
    ///
    /// # Panics
    /// If `payload.len() != SAMPLES_PER_FRAME`.
    pub fn packetize_shared(&mut self, payload: Arc<[u8]>) -> RtpDatagram {
        assert_eq!(
            payload.len(),
            SAMPLES_PER_FRAME,
            "one 20 ms frame at a time"
        );
        RtpDatagram {
            header: self.next_header(),
            payload,
        }
    }

    /// Number of packets required for `duration_s` seconds of audio.
    #[must_use]
    pub fn packets_for_duration(duration_s: f64) -> u64 {
        (duration_s * f64::from(PACKETS_PER_SECOND)).round() as u64
    }

    /// Advance the media clock over one silent (suppressed) frame: the
    /// timestamp moves with wall time but no packet is emitted and the
    /// sequence number stays put — RFC 3550 semantics for discontinuous
    /// transmission. The next emitted packet will carry the marker bit to
    /// flag the new talkspurt.
    pub fn skip_frame(&mut self) {
        self.next_timestamp = self.next_timestamp.wrapping_add(SAMPLES_PER_FRAME as u32);
        self.first = true; // next packet starts a talkspurt
    }

    /// Emit the next packet with an already-companded payload, advancing
    /// sequence/timestamp exactly like [`Self::packetize`].
    ///
    /// This is the large-sweep fast path: the experiment encodes real
    /// audio every Nth frame and reuses the companded bytes in between, so
    /// headers/counts stay exact while skipping redundant DSP work
    /// (`tests/full_stack_media.rs` asserts the counts are unchanged).
    ///
    /// # Panics
    /// If `payload.len() != SAMPLES_PER_FRAME`.
    pub fn packetize_raw(&mut self, payload: Vec<u8>) -> RtpPacket {
        assert_eq!(
            payload.len(),
            SAMPLES_PER_FRAME,
            "one 20 ms frame at a time"
        );
        let pkt = RtpPacket {
            header: RtpHeader {
                marker: self.first,
                payload_type: self.law.payload_type(),
                sequence: self.next_sequence,
                timestamp: self.next_timestamp,
                ssrc: self.ssrc,
            },
            payload,
        };
        self.first = false;
        self.next_sequence = self.next_sequence.wrapping_add(1);
        self.next_timestamp = self.next_timestamp.wrapping_add(SAMPLES_PER_FRAME as u32);
        pkt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_constants_match_the_paper() {
        assert_eq!(SAMPLES_PER_FRAME, 160);
        assert_eq!(PACKETS_PER_SECOND, 50);
        // A 120 s call sends 6000 packets per direction; both directions as
        // seen by the monitor ≈ 12000 ≈ the paper's 12037/call at A=40.
        assert_eq!(Packetizer::packets_for_duration(120.0), 6000);
    }

    #[test]
    fn packetizer_sequences_and_timestamps() {
        let mut src = VoiceSource::new(1);
        let mut p = Packetizer::new(0xABCD, Law::Mu, 100, 5000);
        let p1 = p.packetize(&src.next_samples(160));
        let p2 = p.packetize(&src.next_samples(160));
        let p3 = p.packetize(&src.next_samples(160));
        assert!(p1.header.marker, "first packet marks talkspurt");
        assert!(!p2.header.marker);
        assert_eq!(p1.header.sequence, 100);
        assert_eq!(p2.header.sequence, 101);
        assert_eq!(p3.header.sequence, 102);
        assert_eq!(p1.header.timestamp, 5000);
        assert_eq!(p2.header.timestamp, 5160);
        assert_eq!(p1.header.payload_type, 0);
        assert_eq!(p1.header.ssrc, 0xABCD);
        assert_eq!(p1.payload.len(), 160);
        assert_eq!(p1.wire_len(), 172);
    }

    #[test]
    fn sequence_and_timestamp_wrap() {
        let mut src = VoiceSource::new(2);
        let mut p = Packetizer::new(1, Law::A, u16::MAX, u32::MAX - 100);
        let p1 = p.packetize(&src.next_samples(160));
        let p2 = p.packetize(&src.next_samples(160));
        assert_eq!(p1.header.sequence, u16::MAX);
        assert_eq!(p2.header.sequence, 0, "sequence wraps");
        assert!(p2.header.timestamp < 100, "timestamp wraps");
        assert_eq!(p1.header.payload_type, 8);
    }

    #[test]
    #[should_panic(expected = "20 ms frame")]
    fn wrong_frame_size_panics() {
        let mut p = Packetizer::new(1, Law::Mu, 0, 0);
        let _ = p.packetize(&[0i16; 80]);
    }

    #[test]
    fn voice_source_is_deterministic_and_bounded() {
        let mut a = VoiceSource::new(42);
        let mut b = VoiceSource::new(42);
        let sa = a.next_samples(1600);
        let sb = b.next_samples(1600);
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&s| s != 0), "not silence");
        assert!(sa.iter().all(|&s| s > -30000 && s < 30000), "headroom kept");
        // Different seeds decorrelate.
        let sc = VoiceSource::new(43).next_samples(1600);
        assert_ne!(sa, sc);
    }

    #[test]
    fn voice_source_is_continuous_across_calls() {
        // Drawing 320 samples at once equals drawing 2×160.
        let mut a = VoiceSource::new(7);
        let whole = a.next_samples(320);
        let mut b = VoiceSource::new(7);
        let mut parts = b.next_samples(160);
        parts.extend(b.next_samples(160));
        assert_eq!(whole, parts);
    }

    #[test]
    fn fast_voice_source_is_deterministic_and_bounded() {
        let mut a = FastVoiceSource::new(42);
        let mut b = FastVoiceSource::new(42);
        let mut sa = vec![0i16; 1600];
        let mut sb = vec![0i16; 1600];
        for (ca, cb) in sa.chunks_mut(160).zip(sb.chunks_mut(160)) {
            a.fill(ca);
            b.fill(cb);
        }
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&s| s != 0), "not silence");
        assert!(sa.iter().all(|&s| s > -30000 && s < 30000), "headroom kept");
        let mut sc = vec![0i16; 1600];
        let mut c = FastVoiceSource::new(43);
        for chunk in sc.chunks_mut(160) {
            c.fill(chunk);
        }
        assert_ne!(sa, sc, "different seeds decorrelate");
    }

    #[test]
    fn fast_voice_source_tracks_the_scalar_source() {
        // The rotor bank synthesizes the same signal as the sin()-based
        // source; over a second of audio the rounding divergence stays
        // within a couple of LSBs.
        let mut scalar = VoiceSource::new(8);
        let mut fast = FastVoiceSource::new(8);
        let want = scalar.next_samples(8000);
        let mut got = vec![0i16; 8000];
        for chunk in got.chunks_mut(160) {
            fast.fill(chunk);
        }
        let max_err = want
            .iter()
            .zip(&got)
            .map(|(&w, &g)| (i32::from(w) - i32::from(g)).abs())
            .max()
            .unwrap();
        assert!(max_err <= 2, "max divergence {max_err} LSB");
    }

    #[test]
    fn encode_shared_reference_matches_lut_path() {
        let mut src = VoiceSource::new(21);
        let samples = src.next_samples(160);
        for law in [Law::Mu, Law::A] {
            let p = Packetizer::new(1, law, 0, 0);
            assert_eq!(
                &p.encode_shared(&samples)[..],
                &p.encode_shared_reference(&samples)[..]
            );
        }
    }

    #[test]
    fn skip_frame_advances_clock_not_sequence() {
        let mut src = VoiceSource::new(4);
        let mut p = Packetizer::new(1, Law::Mu, 100, 0);
        let p1 = p.packetize(&src.next_samples(160));
        p.skip_frame();
        p.skip_frame();
        let p2 = p.packetize(&src.next_samples(160));
        assert_eq!(
            p2.header.sequence, 101,
            "sequence contiguous across silence"
        );
        assert_eq!(
            p2.header.timestamp, 480,
            "timestamp covers the silent frames"
        );
        assert!(p2.header.marker, "new talkspurt flagged");
        assert!(p1.header.marker, "stream start flagged");
        let p3 = p.packetize(&src.next_samples(160));
        assert!(!p3.header.marker, "mid-spurt packets unmarked");
    }

    #[test]
    fn packetize_raw_advances_like_packetize() {
        let mut src = VoiceSource::new(3);
        let samples = src.next_samples(160);
        let mut a = Packetizer::new(5, Law::Mu, 10, 100);
        let mut b = Packetizer::new(5, Law::Mu, 10, 100);
        let pa = a.packetize(&samples);
        let pb = b.packetize_raw(pa.payload.clone());
        assert_eq!(pa, pb);
        // Second frames also line up.
        let pa2 = a.packetize(&samples);
        let pb2 = b.packetize_raw(pa.payload.clone());
        assert_eq!(pa2.header, pb2.header);
    }

    #[test]
    #[should_panic(expected = "20 ms frame")]
    fn packetize_raw_rejects_wrong_size() {
        let mut p = Packetizer::new(1, Law::Mu, 0, 0);
        let _ = p.packetize_raw(vec![0u8; 10]);
    }

    #[test]
    fn shared_path_matches_owned_path() {
        // encode_shared + packetize_shared must produce bit-identical wire
        // output to packetize, frame for frame, including marker handling
        // around skip_frame.
        let mut src = VoiceSource::new(11);
        let mut owned = Packetizer::new(77, Law::Mu, 42, 9000);
        let mut shared = Packetizer::new(77, Law::Mu, 42, 9000);
        for i in 0..5 {
            if i == 3 {
                owned.skip_frame();
                shared.skip_frame();
            }
            let samples = src.next_samples(160);
            let a = owned.packetize(&samples);
            let b = shared.packetize_shared(shared.encode_shared(&samples));
            assert_eq!(a.header, b.header, "frame {i}");
            assert_eq!(&a.payload[..], &b.payload[..], "frame {i}");
            assert_eq!(a.wire_len(), b.wire_len());
            assert_eq!(a.encode(), b.encode());
        }
    }

    #[test]
    fn cloning_a_datagram_shares_the_payload() {
        let mut src = VoiceSource::new(12);
        let mut p = Packetizer::new(1, Law::Mu, 0, 0);
        let d = p.packetize_shared(p.encode_shared(&src.next_samples(160)));
        let d2 = d.clone();
        assert!(std::sync::Arc::ptr_eq(&d.payload, &d2.payload));
    }

    #[test]
    fn next_header_advances_like_packetize() {
        let mut src = VoiceSource::new(13);
        let samples = src.next_samples(160);
        let mut a = Packetizer::new(3, Law::A, 500, 1000);
        let mut b = Packetizer::new(3, Law::A, 500, 1000);
        assert_eq!(a.packetize(&samples).header, b.next_header());
        assert_eq!(a.packetize(&samples).header, b.next_header());
    }

    #[test]
    #[should_panic(expected = "20 ms frame")]
    fn packetize_shared_rejects_wrong_size() {
        let mut p = Packetizer::new(1, Law::Mu, 0, 0);
        let _ = p.packetize_shared(vec![0u8; 10].into());
    }

    #[test]
    fn payload_is_real_g711() {
        let mut src = VoiceSource::new(9);
        let samples = src.next_samples(160);
        let mut p = Packetizer::new(1, Law::Mu, 0, 0);
        let pkt = p.packetize(&samples);
        // Decoding the payload approximates the original samples.
        for (i, &code) in pkt.payload.iter().enumerate() {
            let decoded = crate::g711::ulaw_decode(code);
            let err = i32::from(decoded) - i32::from(samples[i]);
            assert!(err.abs() <= 2048);
        }
    }
}
