//! Asterisk-style software PBX — the system under test.
//!
//! The paper stresses a real Asterisk 1.8 server; this crate provides the
//! simulated equivalent with the behaviours the capacity evaluation
//! depends on:
//!
//! * [`b2bua`] — the back-to-back user agent: terminates the caller's SIP
//!   leg, originates the callee's leg, forwards 100/180/200/ACK/BYE per the
//!   paper's Fig. 2 ladder (9 messages up, 4 down), and relays RTP between
//!   the legs through per-call media ports, exactly like Asterisk in
//!   non-directmedia mode;
//! * [`channels`] — the finite channel pool whose size is the capacity
//!   knob `N`; exhaustion turns new INVITEs into 486 Busy Here;
//! * [`registrar`] + [`directory`] — REGISTER handling with credential
//!   checks against an LDAP-like in-memory directory (the paper's UnB
//!   deployment authenticates against LDAP); the registrar's location
//!   table is also the routing table: a dialled extension reaches a
//!   registered subscriber or gets 404;
//! * [`cdr`] — call detail records, tallied per disposition;
//! * [`cpu`] — a calibrated service-cost model that turns message and
//!   packet handling into CPU utilisation (documented in DESIGN.md §7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod b2bua;
pub mod cdr;
pub mod channels;
pub mod cpu;
pub mod directory;
mod ports;
pub mod registrar;

pub use b2bua::{Pbx, PbxAction, PbxConfig, PbxStats};
pub use cdr::Disposition;
pub use channels::ChannelPool;
pub use cpu::CpuModel;
pub use directory::Directory;
pub use registrar::Registrar;
