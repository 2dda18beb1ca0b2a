//! Teletraffic analytics used throughout the capacity evaluation.
//!
//! This crate implements the analytical side of *"Asterisk PBX Capacity
//! Evaluation"* (IPDPSW 2015): the Erlang-B loss model (Eq. 2 of the paper)
//! together with the supporting machinery one needs to actually dimension a
//! PBX — traffic-unit conversions (Eq. 1), inverse solvers ("how many
//! channels for this load and target blocking?"), and the neighbouring
//! loss models (Engset, extended Erlang-B with retries) that a practitioner
//! reaches for when the infinite-source, no-retry assumptions do not hold.
//!
//! All formulas are computed with numerically stable recurrences — no
//! factorials are ever materialised, so loads of tens of thousands of
//! Erlangs and channel counts in the millions are handled without overflow.
//!
//! # Quick start
//!
//! ```
//! use teletraffic::{Erlangs, erlang_b};
//!
//! // The paper's headline back-of-envelope: a 3000-call busy hour with
//! // 3-minute calls offered to 165 channels blocks ~1.8% of calls.
//! let load = Erlangs::from_calls(3000.0, 180.0); // 3000 calls/h of 180 s
//! let pb = erlang_b::blocking_probability(load, 165);
//! assert!((pb - 0.018).abs() < 0.005);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engset;
pub mod erlang_b;
pub mod error;
pub mod extended;
pub mod overflow;
pub mod units;

pub use engset::{engset_blocking, engset_blocking_large};
pub use erlang_b::{blocking_probability, channels_for, load_for, BlockingCurve};
pub use error::TrafficError;
pub use units::Erlangs;
