//! RTP media substrate: packets, codecs, packetization and reception
//! statistics (RFC 3550 subset + ITU-T G.711).
//!
//! The paper's media plane is G.711 μ-law voice in 20 ms RTP packets —
//! 160 samples at 8 kHz, 50 packets per second per direction, all relayed
//! through the Asterisk PBX. This crate implements that plane for real:
//!
//! * [`packet`] — the 12-byte RTP header (RFC 3550 §5.1), encode/decode;
//! * [`g711`] — bit-exact ITU-T G.711 μ-law and A-law companding;
//! * [`packetizer`] — sample-block framing plus a speech-band signal
//!   synthesizer standing in for a microphone;
//! * [`jitter`] — the RFC 3550 §6.4.1 interarrival-jitter estimator and
//!   §A.1-style sequence-number bookkeeping (loss, reorder, duplicates).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod g711;
pub mod jitter;
pub mod packet;
pub mod packetizer;
pub mod playout;
pub mod plc;
pub mod vad;

pub use g711::{alaw_decode, alaw_encode, ulaw_decode, ulaw_encode};
pub use jitter::{JitterEstimator, SequenceTracker};
pub use packet::{RtpDatagram, RtpHeader, RtpPacket, RTP_HEADER_LEN};
pub use packetizer::{Packetizer, VoiceSource, SAMPLES_PER_FRAME, SAMPLE_RATE_HZ};
pub use playout::{PlayoutBuffer, PlayoutEvent};
pub use plc::Concealer;
pub use vad::TalkspurtSource;
