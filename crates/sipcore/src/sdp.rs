//! Minimal SDP (Session Description Protocol) support.
//!
//! Just enough of RFC 4566 to negotiate the media session the paper uses:
//! one audio stream, G.711 μ-law (payload type 0, `PCMU/8000`), with the
//! RTP address and port of each endpoint. A-law (PT 8) is also representable
//! for the codec ablation.
//!
//! Everything lives in [`wire`]: [`wire::SdpBody`] is the one owned form
//! (what a message carries, serialized on demand), [`wire::SdpView`] the
//! one reader (what the [`crate::message::Body`] accessors scan), and
//! [`wire::write_sdp`] the one serializer. [`wire::SdpSummary`], an
//! interned `Copy` form, is on no engine's path; the zero-allocation
//! floor test and the benchmark's SDP probe time it.

pub mod wire;

/// The audio codec offered in an SDP body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdpCodec {
    /// G.711 μ-law, static payload type 0.
    Pcmu,
    /// G.711 A-law, static payload type 8.
    Pcma,
}

impl SdpCodec {
    /// Static RTP payload type number.
    #[must_use]
    pub fn payload_type(self) -> u8 {
        match self {
            SdpCodec::Pcmu => 0,
            SdpCodec::Pcma => 8,
        }
    }

    /// rtpmap encoding name.
    #[must_use]
    pub fn encoding_name(self) -> &'static str {
        match self {
            SdpCodec::Pcmu => "PCMU",
            SdpCodec::Pcma => "PCMA",
        }
    }

    /// From a payload type number.
    #[must_use]
    pub fn from_payload_type(pt: u8) -> Option<SdpCodec> {
        match pt {
            0 => Some(SdpCodec::Pcmu),
            8 => Some(SdpCodec::Pcma),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_tables() {
        assert_eq!(SdpCodec::from_payload_type(0), Some(SdpCodec::Pcmu));
        assert_eq!(SdpCodec::from_payload_type(8), Some(SdpCodec::Pcma));
        assert_eq!(SdpCodec::from_payload_type(18), None);
        assert_eq!(SdpCodec::Pcmu.payload_type(), 0);
        assert_eq!(SdpCodec::Pcma.payload_type(), 8);
        assert_eq!(SdpCodec::Pcmu.encoding_name(), "PCMU");
        assert_eq!(SdpCodec::Pcma.encoding_name(), "PCMA");
    }
}
