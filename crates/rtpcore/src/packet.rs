//! RTP packet header (RFC 3550 §5.1).
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |V=2|P|X|  CC   |M|     PT      |       sequence number         |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |                           timestamp                           |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |           synchronization source (SSRC) identifier            |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! ```
//!
//! CSRC lists, padding and extensions are not used by the evaluation's
//! media plane and are rejected on decode if flagged.

use std::sync::Arc;

/// Length of the fixed RTP header in bytes.
pub const RTP_HEADER_LEN: usize = 12;

/// The RTP protocol version carried in every header.
const RTP_VERSION: u8 = 2;

/// Decoded RTP fixed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtpHeader {
    /// Marker bit (set on the first packet of a talkspurt).
    pub marker: bool,
    /// Payload type (0 = PCMU, 8 = PCMA).
    pub payload_type: u8,
    /// Sequence number (increments by one per packet, wraps).
    pub sequence: u16,
    /// Media timestamp in sampling-clock units (8 kHz for G.711).
    pub timestamp: u32,
    /// Synchronisation source identifier.
    pub ssrc: u32,
}

/// A full RTP packet: header plus payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtpPacket {
    /// Fixed header.
    pub header: RtpHeader,
    /// Codec payload (160 bytes for 20 ms of G.711).
    pub payload: Vec<u8>,
}

/// An RTP packet whose payload is shared rather than owned.
///
/// This is the zero-copy representation the simulator moves through the
/// network and the PBX relay: cloning a datagram bumps the [`Arc`]
/// refcount instead of copying the 160 payload bytes, and the decoded
/// header rides alongside so hops never re-parse wire bytes. Use
/// [`RtpDatagram::encode`] only at true materialisation points (pcap
/// capture).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtpDatagram {
    /// Fixed header (kept decoded; copy-cheap).
    pub header: RtpHeader,
    /// Shared codec payload (160 bytes for 20 ms of G.711).
    pub payload: Arc<[u8]>,
}

impl RtpDatagram {
    /// Total wire size in bytes.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        RTP_HEADER_LEN + self.payload.len()
    }

    /// Materialise header + payload into one owned buffer (pcap only —
    /// this is the copy the relay path avoids).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.header.encode());
        out.extend_from_slice(&self.payload);
        out
    }
}

impl From<RtpPacket> for RtpDatagram {
    fn from(p: RtpPacket) -> Self {
        RtpDatagram {
            header: p.header,
            payload: p.payload.into(),
        }
    }
}

/// Why an RTP buffer failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtpError {
    /// Fewer than 12 bytes.
    TooShort,
    /// Version field is not 2.
    BadVersion,
    /// Padding/extension/CSRC present (unsupported in this media plane).
    UnsupportedFeatures,
}

impl core::fmt::Display for RtpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RtpError::TooShort => write!(f, "buffer shorter than the RTP header"),
            RtpError::BadVersion => write!(f, "RTP version is not 2"),
            RtpError::UnsupportedFeatures => {
                write!(f, "padding/extension/CSRC not supported")
            }
        }
    }
}

impl std::error::Error for RtpError {}

impl RtpHeader {
    /// Encode into the 12-byte wire form.
    #[must_use]
    pub fn encode(&self) -> [u8; RTP_HEADER_LEN] {
        let mut b = [0u8; RTP_HEADER_LEN];
        b[0] = RTP_VERSION << 6; // P=0, X=0, CC=0
        b[1] = (u8::from(self.marker) << 7) | (self.payload_type & 0x7F);
        b[2..4].copy_from_slice(&self.sequence.to_be_bytes());
        b[4..8].copy_from_slice(&self.timestamp.to_be_bytes());
        b[8..12].copy_from_slice(&self.ssrc.to_be_bytes());
        b
    }

    /// Decode from wire bytes.
    pub fn decode(buf: &[u8]) -> Result<RtpHeader, RtpError> {
        if buf.len() < RTP_HEADER_LEN {
            return Err(RtpError::TooShort);
        }
        if buf[0] >> 6 != RTP_VERSION {
            return Err(RtpError::BadVersion);
        }
        let padding = buf[0] & 0x20 != 0;
        let extension = buf[0] & 0x10 != 0;
        let cc = buf[0] & 0x0F;
        if padding || extension || cc != 0 {
            return Err(RtpError::UnsupportedFeatures);
        }
        Ok(RtpHeader {
            marker: buf[1] & 0x80 != 0,
            payload_type: buf[1] & 0x7F,
            sequence: u16::from_be_bytes([buf[2], buf[3]]),
            timestamp: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ssrc: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
        })
    }
}

impl RtpPacket {
    /// Encode header + payload into one buffer.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(RTP_HEADER_LEN + self.payload.len());
        out.extend_from_slice(&self.header.encode());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decode a buffer into header + payload.
    pub fn decode(buf: &[u8]) -> Result<RtpPacket, RtpError> {
        let header = RtpHeader::decode(buf)?;
        Ok(RtpPacket {
            header,
            payload: buf[RTP_HEADER_LEN..].to_vec(),
        })
    }

    /// Total wire size in bytes.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        RTP_HEADER_LEN + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> RtpHeader {
        RtpHeader {
            marker: true,
            payload_type: 0,
            sequence: 4660,
            timestamp: 0x0102_0304,
            ssrc: 0xDEAD_BEEF,
        }
    }

    #[test]
    fn header_encode_layout() {
        let b = sample_header().encode();
        assert_eq!(b[0], 0x80, "V=2, no padding/ext/cc");
        assert_eq!(b[1], 0x80, "marker set, PT=0 (PCMU)");
        assert_eq!(u16::from_be_bytes([b[2], b[3]]), 4660);
        assert_eq!(&b[4..8], &[0x01, 0x02, 0x03, 0x04]);
        assert_eq!(&b[8..12], &[0xDE, 0xAD, 0xBE, 0xEF]);
    }

    #[test]
    fn header_round_trip() {
        let h = sample_header();
        assert_eq!(RtpHeader::decode(&h.encode()).unwrap(), h);
        let h2 = RtpHeader {
            marker: false,
            payload_type: 8,
            sequence: u16::MAX,
            timestamp: u32::MAX,
            ssrc: 0,
        };
        assert_eq!(RtpHeader::decode(&h2.encode()).unwrap(), h2);
    }

    #[test]
    fn packet_round_trip() {
        let p = RtpPacket {
            header: sample_header(),
            payload: (0..160).map(|i| i as u8).collect(),
        };
        assert_eq!(p.wire_len(), 172);
        let wire = p.encode();
        assert_eq!(wire.len(), 172);
        assert_eq!(RtpPacket::decode(&wire).unwrap(), p);
    }

    #[test]
    fn decode_rejects_short_and_bad_version() {
        assert_eq!(RtpHeader::decode(&[0x80; 11]), Err(RtpError::TooShort));
        let mut b = sample_header().encode();
        b[0] = 0x40; // version 1
        assert_eq!(RtpHeader::decode(&b), Err(RtpError::BadVersion));
    }

    #[test]
    fn decode_rejects_unsupported_features() {
        for flag in [0x20u8, 0x10, 0x01] {
            let mut b = sample_header().encode();
            b[0] |= flag;
            assert_eq!(
                RtpHeader::decode(&b),
                Err(RtpError::UnsupportedFeatures),
                "flag {flag:#x}"
            );
        }
    }

    #[test]
    fn empty_payload_is_fine() {
        let p = RtpPacket {
            header: sample_header(),
            payload: vec![],
        };
        assert_eq!(RtpPacket::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn error_display() {
        assert!(RtpError::TooShort.to_string().contains("short"));
        assert!(RtpError::BadVersion.to_string().contains("version"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// decode ∘ encode = id for all header field values.
        #[test]
        fn header_round_trip_all_fields(
            marker in any::<bool>(),
            pt in 0u8..128,
            seq in any::<u16>(),
            ts in any::<u32>(),
            ssrc in any::<u32>(),
        ) {
            let h = RtpHeader { marker, payload_type: pt, sequence: seq, timestamp: ts, ssrc };
            prop_assert_eq!(RtpHeader::decode(&h.encode()).unwrap(), h);
        }

        /// The decoder never panics on arbitrary bytes.
        #[test]
        fn decoder_total(buf in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = RtpPacket::decode(&buf);
        }
    }
}
