//! Deterministic discrete-event simulation (DES) engine.
//!
//! This is the substrate on which the empirical side of the paper runs: the
//! simulated network, PBX and load generators are all event handlers driven
//! by a single future-event list. Design goals:
//!
//! * **Determinism** — integer nanosecond timestamps, a stable FIFO
//!   tie-break for simultaneous events, and splittable counter-based RNG
//!   streams mean a run is a pure function of its seed. Parallel parameter
//!   sweeps (the shared-cursor executor in the `capacity` crate) therefore
//!   reproduce bit-identical journals regardless of thread scheduling.
//! * **Throughput** — a hierarchical timing wheel (a ≈ 67 ms ring of
//!   128 buckets: 20 ms media re-arms and LAN hops) with far-future overflow
//!   as the future-event list of every run (the `BinaryHeap` backend beside
//!   it is the model the tests compare pop order against, [`SchedulerKind`]),
//!   no per-event boxing for the common case, and O(1) statistics
//!   accumulators. Without a span port a media packet rides no event of
//!   its own (one event per 20 ms phase slot emits every stream due
//!   there, straight through the network model), so the A = 240 Erlang
//!   Table-I cell at seed 2015 processes 880 634 events and the six
//!   Table-I cells 4 463 967.
//!
//! Beside the engine the crate holds the slot table that a run's frames,
//! media sessions, calls, channels and monitor streams live in
//! ([`slab`]), the RNG streams ([`rng`]), the
//! process-wide sweep worker count ([`pool`]) and the statistics toolkit
//! ([`stats`]). It times nothing: where a run's wall clock goes is
//! measured from outside, by the benchmark's per-layer trace.
//!
//! # Example
//!
//! ```
//! use des::{Scheduler, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut sched = Scheduler::new();
//! sched.schedule(SimTime::from_secs_f64(1.0), Ev::Ping);
//! sched.schedule(SimTime::from_secs_f64(0.5), Ev::Pong);
//! let (t, ev) = sched.pop().unwrap();
//! assert_eq!(ev, Ev::Pong);
//! assert_eq!(t, SimTime::from_secs_f64(0.5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod engine;
pub mod fastmap;
pub mod pool;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use cancel::{GenTag, Generation};
pub use engine::{EventHandler, Scheduler, SchedulerKind, Simulation};
pub use fastmap::FastMap;
pub use rng::{stream_seed, Distributions, RngStream, StreamRng};
pub use slab::Slab;
pub use stats::{BatchMeans, Histogram, TimeWeighted, Welford};
pub use time::{SimDuration, SimTime};
