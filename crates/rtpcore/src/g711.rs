//! ITU-T G.711 companding: μ-law (PCMU) and A-law (PCMA).
//!
//! This is the codec the paper selects for its compatibility with the
//! campus telephone network. The algorithm follows the classic
//! segment-based reference (CCITT G.711 / Sun `g711.c` lineage): 16-bit
//! linear PCM is reduced to 14 bits (μ-law) or 13 bits (A-law), biased,
//! and mapped to a sign + 3-bit segment + 4-bit mantissa byte. Companded
//! bytes are bit-inverted per the standard (μ-law fully, A-law with the
//! 0x55 alternating mask).
//!
//! The public entry points are table-driven: a 64 Ki `u8` encode LUT and
//! a 256-entry `i16` decode LUT per law, all built at compile time from
//! the scalar algorithm in [`reference`](mod@reference). A table lookup
//! replaces the segment search and branch chain of the scalar code, which
//! matters on the full-media path where every 20 ms frame is 160
//! companding operations per direction. The [`ulaw_encode_into`]-style slice kernels
//! compand whole frames into caller buffers with no per-sample call
//! overhead and no allocation; the `*_slice` helpers keep the old
//! allocating signatures on top of them. Exhaustive tests check every
//! `i16` (encode) and every code byte (decode) against
//! [`reference`](mod@reference).

/// Branch-free scalar reference implementation.
///
/// This module is the oracle: the exact segment-search algorithm the
/// crate has always used, kept as `const fn`s so the lookup tables are
/// derived from it at compile time and so tests can compare the fast
/// path against it exhaustively. Simulation code should use the
/// table-driven functions in the parent module instead.
pub mod reference {
    /// μ-law bias (in the 14-bit domain the reference algorithm works in,
    /// applied as `0x84 >> 2 = 33`).
    const ULAW_BIAS: i32 = 0x84;
    /// μ-law clip in the 14-bit magnitude domain.
    const ULAW_CLIP: i32 = 8159;

    const SEG_UEND: [i32; 8] = [0x3F, 0x7F, 0xFF, 0x1FF, 0x3FF, 0x7FF, 0xFFF, 0x1FFF];
    const SEG_AEND: [i32; 8] = [0x1F, 0x3F, 0x7F, 0xFF, 0x1FF, 0x3FF, 0x7FF, 0xFFF];

    #[inline]
    const fn segment(val: i32, table: &[i32; 8]) -> usize {
        let mut seg = 0;
        while seg < 8 {
            if val <= table[seg] {
                return seg;
            }
            seg += 1;
        }
        8
    }

    /// Encode one 16-bit linear PCM sample to a μ-law byte.
    #[inline]
    #[must_use]
    pub const fn ulaw_encode(pcm: i16) -> u8 {
        let mut val = (pcm as i32) >> 2; // 16 -> 14 bits
        let mask: u8 = if val < 0 {
            val = -val;
            0x7F
        } else {
            0xFF
        };
        if val > ULAW_CLIP {
            val = ULAW_CLIP;
        }
        val += ULAW_BIAS >> 2;
        let seg = segment(val, &SEG_UEND);
        if seg >= 8 {
            0x7F ^ mask
        } else {
            let uval = ((seg as u8) << 4) | (((val >> (seg + 1)) & 0x0F) as u8);
            uval ^ mask
        }
    }

    /// Decode one μ-law byte to a 16-bit linear PCM sample.
    #[inline]
    #[must_use]
    pub const fn ulaw_decode(code: u8) -> i16 {
        let u = !code;
        let mut t = (((u as i32) & 0x0F) << 3) + ULAW_BIAS;
        t <<= ((u as i32) & 0x70) >> 4;
        let v = if u & 0x80 != 0 {
            ULAW_BIAS - t
        } else {
            t - ULAW_BIAS
        };
        v as i16
    }

    /// Encode one 16-bit linear PCM sample to an A-law byte.
    #[inline]
    #[must_use]
    pub const fn alaw_encode(pcm: i16) -> u8 {
        let mut val = (pcm as i32) >> 3; // 16 -> 13 bits
        let mask: u8 = if val >= 0 {
            0xD5
        } else {
            val = -val - 1;
            0x55
        };
        let seg = segment(val, &SEG_AEND);
        if seg >= 8 {
            0x7F ^ mask
        } else {
            let mut aval = (seg as u8) << 4;
            aval |= if seg < 2 {
                ((val >> 1) & 0x0F) as u8
            } else {
                ((val >> seg) & 0x0F) as u8
            };
            aval ^ mask
        }
    }

    /// Decode one A-law byte to a 16-bit linear PCM sample.
    #[inline]
    #[must_use]
    pub const fn alaw_decode(code: u8) -> i16 {
        let a = code ^ 0x55;
        let mut t = ((a as i32) & 0x0F) << 4;
        let seg = ((a as i32) & 0x70) >> 4;
        match seg {
            0 => t += 8,
            1 => t += 0x108,
            _ => {
                t += 0x108;
                t <<= seg - 1;
            }
        }
        let v = if a & 0x80 != 0 { t } else { -t };
        v as i16
    }
}

/// One encode table per law: every 16-bit PCM value to its companded
/// byte, indexed by the sample reinterpreted as `u16`. 64 KiB each,
/// built in const context from [`reference`].
static ULAW_ENC: [u8; 65536] = build_encode_table(true);
static ALAW_ENC: [u8; 65536] = build_encode_table(false);

/// One decode table per law: all 256 code bytes to linear PCM.
const ULAW_DEC: [i16; 256] = build_decode_table(true);
const ALAW_DEC: [i16; 256] = build_decode_table(false);

const fn build_encode_table(mu: bool) -> [u8; 65536] {
    let mut table = [0u8; 65536];
    let mut i = 0usize;
    while i < 65536 {
        let pcm = i as u16 as i16;
        table[i] = if mu {
            reference::ulaw_encode(pcm)
        } else {
            reference::alaw_encode(pcm)
        };
        i += 1;
    }
    table
}

const fn build_decode_table(mu: bool) -> [i16; 256] {
    let mut table = [0i16; 256];
    let mut i = 0usize;
    while i < 256 {
        table[i] = if mu {
            reference::ulaw_decode(i as u8)
        } else {
            reference::alaw_decode(i as u8)
        };
        i += 1;
    }
    table
}

/// Touch every companding table so later encode/decode calls never pay
/// a first-use cost.
///
/// The tables are compile-time `static`s — there is nothing to *build*
/// at runtime — but 130 KiB of read-only data still faults in page by
/// page on first touch. A sweep calls this once before fanning
/// replications out so the cold cost lands in setup, not inside the
/// first timed run on each worker. Returns a checksum over the tables
/// (a fixed, documented constant in practice) so the reads cannot be
/// optimised away.
pub fn warm() -> u64 {
    let mut acc = 0u64;
    for i in (0..65536).step_by(512) {
        acc = acc
            .wrapping_mul(31)
            .wrapping_add(u64::from(ULAW_ENC[i]))
            .wrapping_add(u64::from(ALAW_ENC[i]));
    }
    for i in 0..256 {
        acc = acc
            .wrapping_mul(31)
            .wrapping_add(ULAW_DEC[i] as u16 as u64)
            .wrapping_add(ALAW_DEC[i] as u16 as u64);
    }
    acc
}

/// Encode one 16-bit linear PCM sample to a μ-law byte (table lookup).
#[inline]
#[must_use]
pub fn ulaw_encode(pcm: i16) -> u8 {
    ULAW_ENC[pcm as u16 as usize]
}

/// Decode one μ-law byte to a 16-bit linear PCM sample (table lookup).
#[inline]
#[must_use]
pub fn ulaw_decode(code: u8) -> i16 {
    ULAW_DEC[code as usize]
}

/// Encode one 16-bit linear PCM sample to an A-law byte (table lookup).
#[inline]
#[must_use]
pub fn alaw_encode(pcm: i16) -> u8 {
    ALAW_ENC[pcm as u16 as usize]
}

/// Decode one A-law byte to a 16-bit linear PCM sample (table lookup).
#[inline]
#[must_use]
pub fn alaw_decode(code: u8) -> i16 {
    ALAW_DEC[code as usize]
}

#[inline]
fn encode_into(table: &[u8; 65536], pcm: &[i16], out: &mut [u8]) {
    assert_eq!(
        pcm.len(),
        out.len(),
        "output buffer must match input length"
    );
    for (dst, &s) in out.iter_mut().zip(pcm) {
        *dst = table[s as u16 as usize];
    }
}

#[inline]
fn decode_into(table: &[i16; 256], codes: &[u8], out: &mut [i16]) {
    assert_eq!(
        codes.len(),
        out.len(),
        "output buffer must match input length"
    );
    for (dst, &c) in out.iter_mut().zip(codes) {
        *dst = table[c as usize];
    }
}

/// Compand a PCM block to μ-law into a caller-provided buffer.
///
/// The frame kernel of the media plane: no allocation, one table probe
/// per sample, branch-free over the whole block.
///
/// # Panics
/// If `out.len() != pcm.len()`.
#[inline]
pub fn ulaw_encode_into(pcm: &[i16], out: &mut [u8]) {
    encode_into(&ULAW_ENC, pcm, out);
}

/// Expand a μ-law block to PCM into a caller-provided buffer.
///
/// # Panics
/// If `out.len() != codes.len()`.
#[inline]
pub fn ulaw_decode_into(codes: &[u8], out: &mut [i16]) {
    decode_into(&ULAW_DEC, codes, out);
}

/// Compand a PCM block to A-law into a caller-provided buffer.
///
/// # Panics
/// If `out.len() != pcm.len()`.
#[inline]
pub fn alaw_encode_into(pcm: &[i16], out: &mut [u8]) {
    encode_into(&ALAW_ENC, pcm, out);
}

/// Expand an A-law block to PCM into a caller-provided buffer.
///
/// # Panics
/// If `out.len() != codes.len()`.
#[inline]
pub fn alaw_decode_into(codes: &[u8], out: &mut [i16]) {
    decode_into(&ALAW_DEC, codes, out);
}

/// Encode a PCM block to μ-law.
#[must_use]
pub fn ulaw_encode_slice(pcm: &[i16]) -> Vec<u8> {
    let mut out = vec![0u8; pcm.len()];
    ulaw_encode_into(pcm, &mut out);
    out
}

/// Decode a μ-law block to PCM.
#[must_use]
pub fn ulaw_decode_slice(codes: &[u8]) -> Vec<i16> {
    let mut out = vec![0i16; codes.len()];
    ulaw_decode_into(codes, &mut out);
    out
}

/// Encode a PCM block to A-law.
#[must_use]
pub fn alaw_encode_slice(pcm: &[i16]) -> Vec<u8> {
    let mut out = vec![0u8; pcm.len()];
    alaw_encode_into(pcm, &mut out);
    out
}

/// Decode an A-law block to PCM.
#[must_use]
pub fn alaw_decode_slice(codes: &[u8]) -> Vec<i16> {
    let mut out = vec![0i16; codes.len()];
    alaw_decode_into(codes, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_is_deterministic_and_nonzero() {
        let a = warm();
        assert_eq!(a, warm(), "pure function of the const tables");
        assert_ne!(a, 0);
    }

    #[test]
    fn lut_encode_matches_reference_exhaustively() {
        // Every one of the 65 536 i16 inputs, both laws.
        for raw in 0..=u16::MAX {
            let pcm = raw as i16;
            assert_eq!(
                ulaw_encode(pcm),
                reference::ulaw_encode(pcm),
                "ulaw pcm={pcm}"
            );
            assert_eq!(
                alaw_encode(pcm),
                reference::alaw_encode(pcm),
                "alaw pcm={pcm}"
            );
        }
    }

    #[test]
    fn lut_decode_matches_reference_exhaustively() {
        for code in 0..=u8::MAX {
            assert_eq!(
                ulaw_decode(code),
                reference::ulaw_decode(code),
                "ulaw code={code:#04x}"
            );
            assert_eq!(
                alaw_decode(code),
                reference::alaw_decode(code),
                "alaw code={code:#04x}"
            );
        }
    }

    #[test]
    fn into_kernels_match_scalar_exhaustively() {
        // Run the block kernels over the full i16 domain in frame-sized
        // chunks so the chunked path is what gets exercised.
        let pcm: Vec<i16> = (0..=u16::MAX).map(|raw| raw as i16).collect();
        let mut ucodes = vec![0u8; pcm.len()];
        let mut acodes = vec![0u8; pcm.len()];
        for (chunk, out) in pcm.chunks(160).zip(ucodes.chunks_mut(160)) {
            ulaw_encode_into(chunk, out);
        }
        for (chunk, out) in pcm.chunks(160).zip(acodes.chunks_mut(160)) {
            alaw_encode_into(chunk, out);
        }
        for i in 0..pcm.len() {
            assert_eq!(ucodes[i], reference::ulaw_encode(pcm[i]));
            assert_eq!(acodes[i], reference::alaw_encode(pcm[i]));
        }
        let codes: Vec<u8> = (0..=u8::MAX).collect();
        let mut upcm = vec![0i16; 256];
        let mut apcm = vec![0i16; 256];
        ulaw_decode_into(&codes, &mut upcm);
        alaw_decode_into(&codes, &mut apcm);
        for i in 0..256 {
            assert_eq!(upcm[i], reference::ulaw_decode(codes[i]));
            assert_eq!(apcm[i], reference::alaw_decode(codes[i]));
        }
    }

    #[test]
    #[should_panic(expected = "output buffer")]
    fn encode_into_rejects_mismatched_buffers() {
        let mut out = [0u8; 4];
        ulaw_encode_into(&[0i16; 8], &mut out);
    }

    #[test]
    fn ulaw_reference_points() {
        // Zero encodes to 0xFF (positive zero) and both zero codes decode
        // to silence.
        assert_eq!(ulaw_encode(0), 0xFF);
        assert_eq!(ulaw_decode(0xFF), 0);
        assert_eq!(ulaw_decode(0x7F), 0);
        // Extremes map to the top segment codes.
        assert_eq!(ulaw_encode(i16::MAX), 0x80);
        assert_eq!(ulaw_encode(i16::MIN), 0x00);
        // And decode back near full scale.
        assert!(ulaw_decode(0x80) > 31_000);
        assert!(ulaw_decode(0x00) < -31_000);
    }

    #[test]
    fn alaw_reference_points() {
        assert_eq!(alaw_encode(0), 0xD5);
        assert_eq!(
            alaw_decode(0xD5),
            8,
            "A-law has no true zero; +8 is positive zero level"
        );
        assert_eq!(alaw_decode(0x55), -8);
        // Top segment codes: 0x7F xor the sign mask.
        let top_pos = alaw_encode(i16::MAX);
        let top_neg = alaw_encode(i16::MIN);
        assert_eq!(top_pos, 0xAA);
        assert_eq!(top_neg, 0x2A);
        assert!(alaw_decode(top_pos) > 30_000);
        assert!(alaw_decode(top_neg) < -30_000);
    }

    #[test]
    fn ulaw_code_idempotence() {
        // encode(decode(c)) == c for every code except negative zero 0x7F,
        // which decodes to 0 and re-encodes as positive zero 0xFF.
        for c in 0u16..=255 {
            let c = c as u8;
            let back = ulaw_encode(ulaw_decode(c));
            if c == 0x7F {
                assert_eq!(back, 0xFF);
            } else {
                assert_eq!(back, c, "code {c:#04x}");
            }
        }
    }

    #[test]
    fn alaw_code_idempotence() {
        for c in 0u16..=255 {
            let c = c as u8;
            let back = alaw_encode(alaw_decode(c));
            assert_eq!(back, c, "code {c:#04x}");
        }
    }

    #[test]
    fn ulaw_decode_is_odd_symmetric() {
        // Codes with the sign bit cleared are negatives of their mirrored
        // positive codes.
        for c in 0x80u8..=0xFF {
            let pos = ulaw_decode(c);
            let neg = ulaw_decode(c & 0x7F);
            assert_eq!(i32::from(pos), -i32::from(neg), "code {c:#04x}");
        }
    }

    #[test]
    fn alaw_decode_is_odd_symmetric() {
        for c in 0x80u8..=0xFF {
            let pos = alaw_decode(c);
            let neg = alaw_decode(c & 0x7F);
            assert_eq!(i32::from(pos), -i32::from(neg), "code {c:#04x}");
        }
    }

    #[test]
    fn ulaw_decode_monotone_in_magnitude() {
        // Within the positive half, higher code magnitude = larger sample.
        let mut prev = ulaw_decode(0xFF);
        for mag in 1..=0x7F_u8 {
            let v = ulaw_decode(0xFF ^ mag); // 0xFE .. 0x80
            assert!(v > prev, "mag {mag}");
            prev = v;
        }
    }

    #[test]
    fn quantization_error_bounded() {
        // μ-law error is at most half the local step; globally the step for
        // the top segment is 4096 in 16-bit units -> error < 2048 + bias.
        for pcm in (-32768i32..=32767).step_by(17) {
            let pcm = pcm as i16;
            let err = i32::from(ulaw_decode(ulaw_encode(pcm))) - i32::from(pcm);
            assert!(err.abs() <= 2048, "ulaw pcm={pcm} err={err}");
            let err = i32::from(alaw_decode(alaw_encode(pcm))) - i32::from(pcm);
            assert!(err.abs() <= 2048, "alaw pcm={pcm} err={err}");
        }
        // Near zero the codec is nearly transparent (step 8 for μ-law).
        for pcm in -64i16..=64 {
            let err = i32::from(ulaw_decode(ulaw_encode(pcm))) - i32::from(pcm);
            assert!(err.abs() <= 8, "ulaw small pcm={pcm} err={err}");
        }
    }

    #[test]
    fn sine_wave_snr_is_toll_quality() {
        // G.711 achieves ~38 dB SQNR on a near-full-scale sine; require a
        // conservative 30 dB for both laws.
        let n = 8000;
        let mut signal = Vec::with_capacity(n);
        for i in 0..n {
            let t = i as f64 / 8000.0;
            signal.push((0.5 * 32767.0 * (2.0 * std::f64::consts::PI * 440.0 * t).sin()) as i16);
        }
        for (enc, dec, name) in [
            (
                ulaw_encode as fn(i16) -> u8,
                ulaw_decode as fn(u8) -> i16,
                "ulaw",
            ),
            (alaw_encode, alaw_decode, "alaw"),
        ] {
            let mut sig_pow = 0.0f64;
            let mut err_pow = 0.0f64;
            for &s in &signal {
                let d = dec(enc(s));
                sig_pow += f64::from(s) * f64::from(s);
                let e = f64::from(d) - f64::from(s);
                err_pow += e * e;
            }
            let snr_db = 10.0 * (sig_pow / err_pow).log10();
            assert!(snr_db > 30.0, "{name} SNR {snr_db:.1} dB");
        }
    }

    #[test]
    fn slice_helpers_match_scalar() {
        let pcm: Vec<i16> = (-200..200).step_by(7).collect();
        let enc = ulaw_encode_slice(&pcm);
        assert_eq!(enc.len(), pcm.len());
        for (i, &s) in pcm.iter().enumerate() {
            assert_eq!(enc[i], ulaw_encode(s));
        }
        let dec = ulaw_decode_slice(&enc);
        for (i, &c) in enc.iter().enumerate() {
            assert_eq!(dec[i], ulaw_decode(c));
        }
        let aenc = alaw_encode_slice(&pcm);
        let adec = alaw_decode_slice(&aenc);
        assert_eq!(adec.len(), pcm.len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Round-trip error is bounded by the largest quantization step.
        #[test]
        fn ulaw_round_trip_error(pcm in any::<i16>()) {
            let err = i32::from(ulaw_decode(ulaw_encode(pcm))) - i32::from(pcm);
            prop_assert!(err.abs() <= 2048);
        }

        #[test]
        fn alaw_round_trip_error(pcm in any::<i16>()) {
            let err = i32::from(alaw_decode(alaw_encode(pcm))) - i32::from(pcm);
            prop_assert!(err.abs() <= 2048);
        }

        /// Encoding preserves sign (μ-law sign bit set = non-negative input).
        #[test]
        fn ulaw_sign_preserved(pcm in any::<i16>()) {
            let c = ulaw_encode(pcm);
            let decoded = ulaw_decode(c);
            // Signs agree (both are zero or same sign).
            prop_assert!(i32::from(decoded).signum() * i32::from(pcm).signum() >= 0);
        }

        /// Encoding is monotone: larger sample never yields smaller decode.
        #[test]
        fn ulaw_monotone(a in any::<i16>(), b in any::<i16>()) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(ulaw_decode(ulaw_encode(lo)) <= ulaw_decode(ulaw_encode(hi)));
        }

        #[test]
        fn alaw_monotone(a in any::<i16>(), b in any::<i16>()) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(alaw_decode(alaw_encode(lo)) <= alaw_decode(alaw_encode(hi)));
        }
    }
}
