//! SIPp-style SIP load generation.
//!
//! The paper drives its testbed with SIPp v3.3: one machine runs the UAC
//! scenario (place calls at rate λ, hold for `h` seconds, hang up) and one
//! the UAS scenario (ring, answer, wait for the BYE). This crate implements
//! both scenario engines plus the stochastic machinery around them:
//!
//! * [`arrivals`] — Poisson / deterministic / MMPP call arrival processes;
//! * [`holding`] — fixed / exponential / lognormal holding-time laws;
//! * [`uac`] — the caller state machine (INVITE → ACK → … → BYE);
//! * [`uas`] — the callee state machine (180 → 200 → wait BYE);
//! * [`journal`] — per-run accounting of attempts, retries and call
//!   outcomes (SIPp's view of a run). Table I's SIP message rows are not
//!   counted here: they come from the passive monitor,
//!   `vmon::MonitorReport`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod holding;
pub mod journal;
pub mod population;
pub mod uac;
pub mod uas;

pub use arrivals::ArrivalProcess;
pub use holding::HoldingDist;
pub use journal::{CallOutcome, Journal};
pub use population::{Arrival, ChurnWheel, DiurnalProfile, PopulationArrivals, PopulationConfig};
pub use uac::{parse_retry_after, Pacer, PacerMode, RetryPolicy, Uac, UacEvent};
pub use uas::{Uas, UasEvent};
