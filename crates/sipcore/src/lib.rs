//! SIP (Session Initiation Protocol) substrate — an RFC 3261 subset.
//!
//! The paper's empirical method drives real SIP signalling between a SIPp
//! call generator, an Asterisk PBX and a SIPp receiver (its Fig. 2 ladder:
//! INVITE / 100 Trying / 180 Ringing / 200 OK / ACK … BYE / 200 OK — nine
//! messages to establish a call and four to tear it down). This crate
//! provides everything those components need:
//!
//! * a typed message model ([`Request`], [`Response`], [`SipMessage`]);
//! * SIP URIs with parameters ([`uri::SipUri`]);
//! * a text parser and serializer that round-trip the RFC 3261 wire format
//!   ([`parse`]);
//! * client/server transaction state machines with the RFC's timer
//!   semantics, T1-based retransmission and absorption of retransmits
//!   ([`transaction`]);
//! * per-method / per-status message counting ([`tally`]);
//! * a minimal SDP body builder/parser ([`sdp`]) sufficient to negotiate a
//!   G.711 μ-law audio stream;
//! * zero-allocation hot-path support: a deterministic string interner
//!   ([`atoms`]), lazy borrowed views over raw wire bytes ([`wire`] for
//!   messages, [`sdp::wire`] for session descriptions, plus structured
//!   [`message::Body::Sdp`] bodies serialized on demand) and a free-list
//!   of reusable serialization buffers ([`pool`]).
//!
//! The implementation favours explicitness over completeness: every header
//! needed by the evaluation is first-class, everything else rides in the
//! generic header map and survives round-trips untouched.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atoms;
pub mod auth;
pub mod headers;
pub mod message;
pub mod method;
pub mod parse;
pub mod pool;
pub mod sdp;
pub mod status;
pub mod tally;
pub mod transaction;
pub mod txmgr;
pub mod uri;
pub mod wire;

pub use atoms::{Atom, AtomTable};
pub use headers::{HeaderMap, HeaderName};
pub use message::{Body, Request, Response, SipMessage};
pub use method::Method;
pub use parse::{parse_message, ParseError};
pub use pool::BufferPool;
pub use sdp::wire::{SdpBody, SdpSummary, SdpView};
pub use status::StatusCode;
pub use tally::SipTally;
pub use uri::SipUri;
pub use wire::WireMessage;
