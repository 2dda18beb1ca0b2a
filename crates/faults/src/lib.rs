//! Deterministic fault-injection schedules for the capacity testbed.
//!
//! The paper evaluates Asterisk on a healthy LAN; a production PBX also
//! has to survive the unhealthy days — cable faults, process crashes,
//! thermal throttling, flash crowds after an outage notice. This crate
//! describes *what goes wrong when* as plain data: a [`FaultSchedule`] is
//! a time-sorted list of [`FaultEvent`]s that the experiment world
//! replays against its network, PBX processes and arrival process.
//!
//! The schedule is pure description — it holds no references into the
//! simulation. That keeps faults serialisable-in-spirit, trivially
//! comparable in tests, and deterministic: the same schedule and the same
//! seed always produce the same run, which is what makes
//! fault-injection experiments debuggable at all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use des::rng::{Distributions, RngStream};
use des::{SimDuration, SimTime};
use netsim::{LinkParams, NodeId};

/// One kind of injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Replace both directions of the `a`↔`b` link with `params` —
    /// degrade to a lossy/slow wire, or anything else expressible as
    /// link parameters.
    LinkDegrade {
        /// One endpoint of the duplex link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Parameters installed in both directions.
        params: LinkParams,
    },
    /// Cut the `a`↔`b` link entirely (100% loss in both directions).
    LinkPartition {
        /// One endpoint of the duplex link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Restore the `a`↔`b` link to the world's baseline parameters.
    LinkHeal {
        /// One endpoint of the duplex link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Kill PBX process `pbx` (0-based server index): all live calls
    /// drop, the channel pool flushes, registrations are lost, and the
    /// node stays dark until the supervisor restarts it `restart_after`
    /// later (endpoints then re-REGISTER).
    PbxCrash {
        /// Server index within the farm (0 for a single-PBX run).
        pbx: u32,
        /// Supervisor restart delay.
        restart_after: SimDuration,
    },
    /// Scale PBX `pbx`'s per-event CPU cost by `factor` (1.0 heals;
    /// >1.0 models thermal capping or a noisy co-tenant).
    CpuThrottle {
        /// Server index within the farm.
        pbx: u32,
        /// Service-cost multiplier.
        factor: f64,
    },
    /// Multiply the call-arrival rate by `rate_multiplier` for
    /// `duration` — the flash crowd that follows a mass notification.
    FlashCrowd {
        /// Arrival-rate multiplier (>1.0 is a burst).
        rate_multiplier: f64,
        /// How long the burst lasts.
        duration: SimDuration,
    },
}

/// A fault occurring at a point in simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A time-sorted schedule of faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (the healthy baseline).
    #[must_use]
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Add a fault at `at_secs` seconds into the run (builder style).
    /// Events may be added in any order; the schedule keeps itself
    /// time-sorted, with insertion order breaking ties.
    #[must_use]
    pub fn at(mut self, at_secs: f64, kind: FaultKind) -> Self {
        self.push(SimTime::from_secs_f64(at_secs), kind);
        self
    }

    /// Add a fault at an exact [`SimTime`].
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, FaultEvent { at, kind });
    }

    /// Add a fault at the end, leaving the schedule to be sorted.
    fn append(&mut self, at: SimTime, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
    }

    /// The scheduled events, soonest first.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The latest instant the schedule touches, *including* deferred
    /// consequences (a crash's restart, a flash crowd's end). Experiments
    /// extend their horizon past this so recovery is observable.
    #[must_use]
    pub fn last_effect_time(&self) -> Option<SimTime> {
        self.events
            .iter()
            .map(|e| match &e.kind {
                FaultKind::PbxCrash { restart_after, .. } => e.at.saturating_add(*restart_after),
                FaultKind::FlashCrowd { duration, .. } => e.at.saturating_add(*duration),
                _ => e.at,
            })
            .max()
    }

    /// A seeded random fault storm: `count` faults drawn over
    /// `(0.1..0.8) × horizon_s`, mixing partitions (healed after an
    /// exponential outage), crashes, CPU throttles (restored) and flash
    /// crowds across `pbx_nodes` and their links to `switch`. The same
    /// seed always yields the same storm.
    #[must_use]
    pub fn random_storm(
        seed: u64,
        horizon_s: f64,
        count: usize,
        pbx_nodes: &[NodeId],
        switch: NodeId,
    ) -> Self {
        assert!(!pbx_nodes.is_empty(), "need at least one PBX node");
        let mut rng = RngStream::new(seed).stream("fault-storm");
        let mut schedule = FaultSchedule::new();
        for _ in 0..count {
            let t = horizon_s * rng.uniform_f64(0.1, 0.8);
            let pbx = rng.below(pbx_nodes.len() as u64) as u32;
            let node = pbx_nodes[pbx as usize];
            match rng.below(4) {
                0 => {
                    let outage = rng.exp_mean(5.0).clamp(1.0, 20.0);
                    schedule.append(
                        SimTime::from_secs_f64(t),
                        FaultKind::LinkPartition { a: node, b: switch },
                    );
                    schedule.append(
                        SimTime::from_secs_f64(t + outage),
                        FaultKind::LinkHeal { a: node, b: switch },
                    );
                }
                1 => {
                    schedule.append(
                        SimTime::from_secs_f64(t),
                        FaultKind::PbxCrash {
                            pbx,
                            restart_after: SimDuration::from_secs_f64(rng.uniform_f64(1.0, 5.0)),
                        },
                    );
                }
                2 => {
                    let heal_after = rng.uniform_f64(5.0, 15.0);
                    schedule.append(
                        SimTime::from_secs_f64(t),
                        FaultKind::CpuThrottle {
                            pbx,
                            factor: rng.uniform_f64(1.5, 4.0),
                        },
                    );
                    schedule.append(
                        SimTime::from_secs_f64(t + heal_after),
                        FaultKind::CpuThrottle { pbx, factor: 1.0 },
                    );
                }
                _ => {
                    schedule.append(
                        SimTime::from_secs_f64(t),
                        FaultKind::FlashCrowd {
                            rate_multiplier: rng.uniform_f64(2.0, 8.0),
                            duration: SimDuration::from_secs_f64(rng.uniform_f64(3.0, 10.0)),
                        },
                    );
                }
            }
        }
        // A stable sort keeps the order `push` would have built, with
        // insertion order breaking ties, in O(n log n) rather than O(n²).
        schedule.events.sort_by_key(|e| e.at);
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_keeps_time_order() {
        let s = FaultSchedule::new()
            .at(
                60.0,
                FaultKind::LinkHeal {
                    a: NodeId(3),
                    b: NodeId(0),
                },
            )
            .at(
                10.0,
                FaultKind::FlashCrowd {
                    rate_multiplier: 4.0,
                    duration: SimDuration::from_secs(5),
                },
            )
            .at(
                40.0,
                FaultKind::LinkPartition {
                    a: NodeId(3),
                    b: NodeId(0),
                },
            );
        let times: Vec<f64> = s.events().iter().map(|e| e.at.as_secs_f64()).collect();
        assert_eq!(times, vec![10.0, 40.0, 60.0]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn ties_preserve_insertion_order() {
        let s = FaultSchedule::new()
            .at(
                5.0,
                FaultKind::CpuThrottle {
                    pbx: 0,
                    factor: 2.0,
                },
            )
            .at(
                5.0,
                FaultKind::CpuThrottle {
                    pbx: 1,
                    factor: 3.0,
                },
            );
        match (&s.events()[0].kind, &s.events()[1].kind) {
            (FaultKind::CpuThrottle { pbx: 0, .. }, FaultKind::CpuThrottle { pbx: 1, .. }) => {}
            other => panic!("insertion order lost: {other:?}"),
        }
    }

    #[test]
    fn last_effect_time_includes_deferred_consequences() {
        let s = FaultSchedule::new().at(
            30.0,
            FaultKind::PbxCrash {
                pbx: 0,
                restart_after: SimDuration::from_secs(7),
            },
        );
        assert_eq!(s.last_effect_time(), Some(SimTime::from_secs(37)));
        let s2 = FaultSchedule::new().at(
            20.0,
            FaultKind::FlashCrowd {
                rate_multiplier: 4.0,
                duration: SimDuration::from_secs(12),
            },
        );
        assert_eq!(s2.last_effect_time(), Some(SimTime::from_secs(32)));
        assert_eq!(FaultSchedule::new().last_effect_time(), None);
    }

    #[test]
    fn overlapping_fault_windows_interleave_deterministically() {
        // A flash crowd breaking out *inside* a link-degrade window —
        // the compound scenario the overload campaign leans on. Pushed
        // deliberately out of order: the heal first, the crowd last.
        let degraded = LinkParams {
            loss_probability: 0.05,
            ..LinkParams::fast_ethernet()
        };
        let build = || {
            FaultSchedule::new()
                .at(
                    50.0,
                    FaultKind::LinkHeal {
                        a: NodeId(3),
                        b: NodeId(0),
                    },
                )
                .at(
                    20.0,
                    FaultKind::LinkDegrade {
                        a: NodeId(3),
                        b: NodeId(0),
                        params: degraded,
                    },
                )
                .at(
                    30.0,
                    FaultKind::FlashCrowd {
                        rate_multiplier: 6.0,
                        duration: SimDuration::from_secs(15),
                    },
                )
        };
        let s = build();
        // Time-sorted regardless of insertion order: degrade, then the
        // crowd that lands mid-window, then the heal.
        let times: Vec<f64> = s.events().iter().map(|e| e.at.as_secs_f64()).collect();
        assert_eq!(times, vec![20.0, 30.0, 50.0]);
        assert!(matches!(s.events()[0].kind, FaultKind::LinkDegrade { .. }));
        assert!(matches!(s.events()[1].kind, FaultKind::FlashCrowd { .. }));
        assert!(matches!(s.events()[2].kind, FaultKind::LinkHeal { .. }));
        // The heal fires at 50 s but the crowd's deferred end (30+15=45)
        // is still earlier: the last effect is the heal itself.
        assert_eq!(s.last_effect_time(), Some(SimTime::from_secs(50)));
        // Identical construction yields an identical schedule — the
        // property the world's Fault(idx) indexing depends on.
        assert_eq!(s, build());
    }

    #[test]
    fn random_storm_is_deterministic_and_seed_sensitive() {
        let nodes = [NodeId(3), NodeId(4)];
        let a = FaultSchedule::random_storm(42, 120.0, 8, &nodes, NodeId(0));
        let b = FaultSchedule::random_storm(42, 120.0, 8, &nodes, NodeId(0));
        assert_eq!(a, b, "same seed, same storm");
        let c = FaultSchedule::random_storm(43, 120.0, 8, &nodes, NodeId(0));
        assert_ne!(a, c, "different seed, different storm");
        assert!(a.len() >= 8, "paired heal events may add more");
        // Every event lands inside the run.
        for e in a.events() {
            assert!(e.at.as_secs_f64() < 120.0 + 20.0);
        }
    }
}
