//! Minimal SDP (Session Description Protocol) support.
//!
//! Just enough of RFC 4566 to negotiate the media session the paper uses:
//! one audio stream, G.711 μ-law (payload type 0, `PCMU/8000`), with the
//! RTP address and port of each endpoint. A-law (PT 8) is also representable
//! for the codec ablation.
//!
//! [`SessionDescription`] is the eager owned form — cold paths and tests.
//! The hot signalling path uses [`wire`]: lazy borrowed views, interned
//! `Copy` summaries, and pooled zero-allocation serialization. Both forms
//! share one parser ([`wire::SdpView`]) and one serializer
//! ([`wire::write_sdp`]), so they agree byte-for-byte by construction.

use crate::pool::BufferPool;

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

/// A parsed/built session description for one audio stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionDescription {
    /// Origin username field (`o=`).
    pub origin_user: String,
    /// Connection address (`c=IN IP4 <addr>`).
    pub connection: String,
    /// Audio media port (`m=audio <port> ...`).
    pub audio_port: u16,
    /// Offered codec.
    pub codec: SdpCodec,
}

impl SessionDescription {
    /// Build an offer/answer for an endpoint.
    #[must_use]
    pub fn new(origin_user: &str, connection: &str, audio_port: u16, codec: SdpCodec) -> Self {
        SessionDescription {
            origin_user: origin_user.to_owned(),
            connection: connection.to_owned(),
            audio_port,
            codec,
        }
    }

    /// Serialize to SDP text (CRLF line endings). Allocates exactly once
    /// (the returned buffer, sized by [`wire::body_len`]).
    #[must_use]
    pub fn to_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(wire::body_len(
            &self.origin_user,
            &self.connection,
            self.audio_port,
            self.codec,
        ));
        wire::write_sdp(
            &mut out,
            &self.origin_user,
            &self.connection,
            self.audio_port,
            self.codec,
        );
        out
    }

    /// Serialize into a pooled buffer — byte-identical to
    /// [`Self::to_body`] but allocation-free once the pool is warm.
    /// Release the buffer back with [`BufferPool::release`] after use.
    #[must_use]
    pub fn to_body_into(&self, pool: &mut BufferPool) -> Vec<u8> {
        let mut out = pool.acquire();
        out.reserve(wire::body_len(
            &self.origin_user,
            &self.connection,
            self.audio_port,
            self.codec,
        ));
        wire::write_sdp(
            &mut out,
            &self.origin_user,
            &self.connection,
            self.audio_port,
            self.codec,
        );
        out
    }

    /// Parse an SDP body produced by [`Self::to_body`] (or similar simple
    /// descriptions). Returns `None` if no usable audio stream is found.
    ///
    /// Tolerant, byte-line-wise: a malformed or non-UTF-8 line never
    /// poisons the rest of the body; for each field the first line that
    /// yields a usable value wins. Delegates to [`wire::SdpView`], so
    /// the owned parse and the zero-allocation view agree by
    /// construction (a property test in [`wire`] pins this).
    #[must_use]
    pub fn parse(body: &[u8]) -> Option<SessionDescription> {
        wire::SdpView::parse(body)?.to_session()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_parse_round_trip() {
        let sdp = SessionDescription::new("sipp", "10.0.0.2", 6000, SdpCodec::Pcmu);
        let body = sdp.to_body();
        let text = String::from_utf8(body.clone()).unwrap();
        assert!(text.contains("m=audio 6000 RTP/AVP 0\r\n"));
        assert!(text.contains("a=rtpmap:0 PCMU/8000\r\n"));
        let back = SessionDescription::parse(&body).unwrap();
        assert_eq!(back, sdp);
    }

    #[test]
    fn alaw_payload_type() {
        let sdp = SessionDescription::new("x", "10.0.0.3", 7000, SdpCodec::Pcma);
        let body = sdp.to_body();
        let back = SessionDescription::parse(&body).unwrap();
        assert_eq!(back.codec, SdpCodec::Pcma);
        assert_eq!(back.codec.payload_type(), 8);
    }

    #[test]
    fn parse_rejects_missing_media() {
        assert!(SessionDescription::parse(b"v=0\r\ns=x\r\n").is_none());
        assert!(SessionDescription::parse(b"m=audio notaport RTP/AVP 0\r\n").is_none());
        // Unknown codec payload type.
        assert!(
            SessionDescription::parse(b"c=IN IP4 1.2.3.4\r\nm=audio 5000 RTP/AVP 96\r\n").is_none()
        );
        assert!(SessionDescription::parse(&[0xFF, 0xFE]).is_none());
    }

    #[test]
    fn parse_tolerates_garbage_bytes() {
        // Non-UTF-8 garbage alone: no usable stream, clean None — never a
        // panic. Garbage mixed into an otherwise valid body: the valid
        // lines still parse.
        let garbage: Vec<u8> = (0u8..=255).rev().collect();
        assert!(SessionDescription::parse(&garbage).is_none());

        let mut body = garbage.clone();
        body.push(b'\n');
        body.extend_from_slice(b"o=alice 0 0 IN IP4 h\r\nc=IN IP4 10.0.0.7\r\n");
        body.extend_from_slice(&[0x80, 0x81, b'\n']);
        body.extend_from_slice(b"m=audio 6000 RTP/AVP 0\r\n");
        let s = SessionDescription::parse(&body).expect("valid lines survive garbage");
        assert_eq!(s.origin_user, "alice");
        assert_eq!(s.connection, "10.0.0.7");
        assert_eq!(s.audio_port, 6000);
        assert_eq!(s.codec, SdpCodec::Pcmu);
    }

    #[test]
    fn pooled_body_build_matches_eager() {
        let sdp = SessionDescription::new("sipp", "10.0.0.2", 6000, SdpCodec::Pcmu);
        let mut pool = BufferPool::default();
        let warm = sdp.to_body_into(&mut pool);
        pool.release(warm);
        let pooled = sdp.to_body_into(&mut pool);
        assert_eq!(pooled, sdp.to_body());
        let (acquired, reused) = pool.stats();
        assert_eq!((acquired, reused), (2, 1), "second build reused the buffer");
    }

    #[test]
    fn codec_tables() {
        assert_eq!(SdpCodec::from_payload_type(0), Some(SdpCodec::Pcmu));
        assert_eq!(SdpCodec::from_payload_type(8), Some(SdpCodec::Pcma));
        assert_eq!(SdpCodec::from_payload_type(18), None);
        assert_eq!(SdpCodec::Pcmu.encoding_name(), "PCMU");
        assert_eq!(SdpCodec::Pcma.encoding_name(), "PCMA");
    }
}
