//! The paper's evaluation methodology, end to end.
//!
//! This crate wires every substrate together into the Fig. 4/Fig. 5
//! experiment: a SIPp-style generator pair ([`loadgen`]) drives calls
//! through the Asterisk-style PBX ([`pbx_sim`]) over the simulated switched
//! LAN ([`netsim`]), while the VoIPmonitor stand-in ([`vmon`]) scores every
//! delivered packet — all inside the deterministic DES ([`des`]).
//!
//! * [`experiment`] — one empirical run: configuration, the event-driven
//!   world, and the results record;
//! * [`campaign`] — the overload-control comparison: every admission law
//!   swept 0.5×–4× past engineered capacity under a flash crowd;
//! * [`mod@table1`] — the six-workload sweep reproducing the paper's Table I;
//! * [`figures`] — series builders for Figures 3, 6 and 7;
//! * [`sweep`] — the shared-cursor executor every sweep
//!   (figures, campaign, farm, policy) fans out through;
//! * [`report`] — text/JSON renderers for all of the above.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod experiment;
pub mod farm;
pub mod figures;
pub mod policy;
pub mod report;
pub mod sweep;
pub mod table1;
pub mod world;

pub use experiment::{EmpiricalConfig, EmpiricalRunner, MediaMode, RunResult, SimOptions};
pub use table1::{table1, Table1Row};
