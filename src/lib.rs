//! # asterisk-capacity
//!
//! Façade crate for the reproduction of *"Asterisk PBX Capacity Evaluation"*
//! (L. R. Costa, L. S. N. Nunes, J. L. Bordim, K. Nakano — IEEE IPDPSW 2015).
//!
//! The workspace implements the paper end-to-end:
//!
//! * [`teletraffic`] — the analytical side: Erlang-B (the paper's Eq. 2),
//!   Engset, extended Erlang-B, and traffic-unit conversions.
//! * [`des`] — a deterministic discrete-event simulation engine with RNG
//!   streams and a statistics toolkit.
//! * [`sipcore`] — SIP messages, parsing/serialization and transactions
//!   (RFC 3261 subset).
//! * [`rtpcore`] — RTP, real G.711 μ-law/A-law codecs, packetization
//!   and RFC 3550 jitter estimation.
//! * [`voiceq`] — the ITU-T G.107 E-model mapping network impairments to
//!   MOS scores.
//! * [`netsim`] — the simulated 10/100 Mb/s switched LAN of the paper's
//!   Fig. 4.
//! * [`pbx_sim`] — the Asterisk stand-in: a B2BUA with a finite channel
//!   pool, registrar/directory auth, CDRs, RTP relay, and a CPU-cost model.
//! * [`loadgen`] — the SIPp stand-in: UAC/UAS agents with Poisson
//!   arrivals.
//! * [`vmon`] — the VoIPmonitor/Wireshark stand-in: passive RTP analysis,
//!   MOS estimation and SIP message accounting.
//! * [`capacity`] — the experiment harness that regenerates the paper's
//!   Table I and Figures 3, 6 and 7.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use asterisk_capacity::prelude::*;
//!
//! // Analytical: how many channels for 150 Erlangs at 2% blocking?
//! let n = teletraffic::channels_for(Erlangs(150.0), 0.02).unwrap();
//! assert!(n > 150 && n < 180);
//! ```

#![forbid(unsafe_code)]

pub use capacity;
pub use des;
pub use faults;
pub use loadgen;
pub use netsim;
pub use pbx_sim;
pub use rtpcore;
pub use sipcore;
pub use teletraffic;
pub use vmon;
pub use voiceq;

/// Commonly used items, re-exported for examples and downstream users.
pub mod prelude {
    pub use capacity::{
        self,
        experiment::{EmpiricalConfig, EmpiricalRunner},
        figures, table1,
    };
    pub use des;
    pub use faults::{self, FaultKind, FaultSchedule};
    pub use overload::{self, ControlLaw};
    pub use pbx_sim::{self, PbxConfig};
    pub use teletraffic::{self, erlang_b, CallRate, Erlangs, HoldingTime};
    pub use voiceq::{self, EModelInputs};
}
