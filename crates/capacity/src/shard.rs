//! Within-run parallel execution: the farm partitioned into per-PBX
//! shards under a conservative sync horizon.
//!
//! The classic runner ([`crate::experiment::EmpiricalRunner::run_with`])
//! drives the whole farm through one event wheel on one thread. This
//! module splits a multi-server run into **one shard per PBX**: each
//! shard is a complete private [`World`] universe — its own star
//! topology, channel pool, UAC/UAS pair, monitor and RNG streams — plus
//! a **driver** on shard 0 owning the arrival process. The driver draws
//! arrivals from the run's Poisson clock and dispatches each call to a
//! uniformly random shard (Bernoulli splitting keeps every per-server
//! substream Poisson, so the farm's Erlang-B analytics stay exact),
//! where the order lands one control-plane hop later as
//! [`Ev::PlaceOrder`].
//!
//! That dispatch hop **is** the conservative lookahead: shards exchange
//! nothing but call orders, and an order drawn at `t` cannot take effect
//! before `t + dispatch_delay`. The delay is derived from the network's
//! per-link latency floor ([`netsim::Network::min_latency_floor`]) with
//! a 20 ms control-plane floor on top — the scale of a real dispatcher's
//! forwarding hop — giving the windowed executor a horizon wide enough
//! to amortise its barriers over thousands of events.
//!
//! Both [`ExecMode`]s run the *same* partitioned model through
//! [`des::ShardedSim`]; `Sequential` is the single-threaded
//! global-interleave reference and `Sharded { threads }` the windowed
//! parallel executor. They are digest-identical at any thread count (see
//! `des::shard` for the argument; `tests/parallel_determinism.rs`
//! enforces it).

use crate::experiment::{compute_recoveries, EmpiricalConfig, RunResult, SimOptions};
use crate::world::{pbx_node, Ev, World};
use des::rng::Distributions;
use des::{
    PhaseBreakdown, Scheduler, ShardCtx, ShardWorld, ShardedSim, SimDuration, SimTime, StreamRng,
};
use faults::{FaultKind, FaultSchedule};
use loadgen::{ArrivalProcess, CallOutcome, HoldingDist, PopulationArrivals, PopulationConfig};
use netsim::NodeId;
use teletraffic::Erlangs;
use vmon::MonitorReport;

/// Which executor drives a partitioned run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Single-threaded global-interleave reference: pops the globally
    /// smallest `(time, seq)` key across all shard wheels.
    Sequential,
    /// Windowed parallel executor on up to `threads` workers (clamped by
    /// the [`des::pool`] budget and the shard count).
    Sharded {
        /// Requested worker threads.
        threads: u32,
    },
}

impl ExecMode {
    /// The mode an [`EmpiricalConfig`] asks for: `Sharded` with the
    /// configured thread count, defaulting to the process-wide
    /// [`des::pool`] budget when `threads` is `None`.
    #[must_use]
    pub fn from_config(config: &EmpiricalConfig) -> Self {
        let threads = config
            .threads
            .unwrap_or_else(|| des::pool::total().try_into().unwrap_or(u32::MAX));
        ExecMode::Sharded { threads }
    }
}

/// Minimum control-plane dispatch delay: the forwarding hop a real edge
/// dispatcher adds between drawing a call and the PBX seeing its INVITE.
/// Also the floor under the sync horizon — wide enough that a window
/// spans many 20 ms media frames' worth of events per shard.
const DISPATCH_FLOOR: SimDuration = SimDuration::from_millis(20);

/// The arrival driver living on shard 0: the run's single Poisson clock
/// plus the uniform dispatch draw, with their own decorrelated RNG
/// streams (the per-shard worlds consume `stream_seed(seed, k)` for
/// `k < shards`; the driver takes the next index).
struct Driver {
    arrivals: ArrivalProcess,
    rng_arrivals: StreamRng,
    rng_dispatch: StreamRng,
    placement_end: SimTime,
    dispatch: SimDuration,
    population: Option<DriverPop>,
}

/// Population mode on the partitioned model: the driver owns the
/// whole-population aggregated Engset engine and dispatches each claimed
/// arrival to the shard whose contiguous block homes the caller
/// ([`PopulationConfig::shard_of`]); the sampled holding time rides the
/// order. Call-end bookkeeping is **open loop**: the driver estimates the
/// end as `dispatch + pickup + hold` rather than observing the shard's
/// terminal outcome (a cross-shard feedback edge would shrink the
/// lookahead to zero). Blocked calls therefore idle slightly later here
/// than in the classic runner — one more way the partitioned model is a
/// *different* model, digest-compared only against its own executors.
struct DriverPop {
    engine: PopulationArrivals,
    rng_holding: StreamRng,
    cfg: PopulationConfig,
    pickup: SimDuration,
}

/// One partition: a private single-server [`World`], plus the driver on
/// shard 0.
struct CapacityShard {
    world: World,
    driver: Option<Driver>,
}

impl CapacityShard {
    /// Scale the driver's arrival rate (flash-crowd begin/end).
    fn scale_driver_rate(&mut self, factor: f64) {
        if let Some(d) = &mut self.driver {
            match &mut d.arrivals {
                ArrivalProcess::Poisson { rate } | ArrivalProcess::Deterministic { rate } => {
                    *rate *= factor;
                }
                ArrivalProcess::Mmpp {
                    rate_low,
                    rate_high,
                    ..
                } => {
                    *rate_low *= factor;
                    *rate_high *= factor;
                }
            }
        }
    }
}

impl ShardWorld for CapacityShard {
    type Ev = Ev;

    fn handle(&mut self, at: SimTime, ev: Ev, ctx: &mut ShardCtx<'_, Ev>) {
        match ev {
            Ev::ArrivalTick => {
                let d = self.driver.as_mut().expect("driver owns ArrivalTick");
                if at > d.placement_end {
                    return;
                }
                let shards = ctx.shards();
                let dst = if shards == 1 {
                    0
                } else {
                    d.rng_dispatch.below(shards as u64) as usize
                };
                let dispatch = d.dispatch;
                // The dispatch hop applies to every order — including the
                // driver's own shard — so call physics are identical no
                // matter how many shards or threads execute the run.
                let next = d.arrivals.next_after(at, &mut d.rng_arrivals);
                let rearm = next <= d.placement_end;
                ctx.send(dst, at + dispatch, Ev::PlaceOrder);
                if rearm {
                    ctx.sched.schedule(next, Ev::ArrivalTick);
                }
            }
            // Population mode: the driver's aggregated arrival clock. The
            // stamp decides liveness — a claim that fails is a superseded
            // draw, discarded like a cancelled timer.
            Ev::PopArrival { tag } if self.driver.is_some() => {
                let d = self.driver.as_mut().expect("checked");
                if at > d.placement_end {
                    return;
                }
                let Driver {
                    population,
                    rng_arrivals,
                    dispatch,
                    placement_end,
                    ..
                } = d;
                let p = population
                    .as_mut()
                    .expect("population driver owns PopArrival");
                let Some(rank) = p.engine.claim(tag) else {
                    return;
                };
                let hold = self.world.config.holding.sample(&mut p.rng_holding);
                let dst = p.cfg.shard_of(rank, ctx.shards());
                ctx.send(
                    dst,
                    at + *dispatch,
                    Ev::PlaceOrderFor {
                        user: rank,
                        hold_ns: hold.as_nanos(),
                    },
                );
                // Open-loop end estimate (see `DriverPop`): the user
                // rejoins the idle set when the call would end if answered.
                ctx.sched.schedule(
                    at + *dispatch + p.pickup + hold,
                    Ev::PopCallEnded { user: rank },
                );
                if let Some(a) = p.engine.next_arrival(at, rng_arrivals) {
                    if a.at <= *placement_end {
                        ctx.sched.schedule(a.at, Ev::PopArrival { tag: a.tag });
                    }
                }
            }
            Ev::PopCallEnded { user } => {
                let d = self.driver.as_mut().expect("driver owns PopCallEnded");
                let Driver {
                    population,
                    rng_arrivals,
                    placement_end,
                    ..
                } = d;
                let p = population
                    .as_mut()
                    .expect("population driver owns PopCallEnded");
                p.engine.call_ended(user);
                // The idle-count change staled any outstanding draw;
                // re-arm while calls can still be admitted.
                if at <= *placement_end {
                    if let Some(a) = p.engine.next_arrival(at, rng_arrivals) {
                        if a.at <= *placement_end {
                            ctx.sched.schedule(a.at, Ev::PopArrival { tag: a.tag });
                        }
                    }
                }
            }
            // Flash crowds act on the arrival process, which the driver
            // owns in a partitioned run; crashes, throttles and link
            // faults stay with the world that hosts the target.
            Ev::Fault(idx)
                if self.driver.is_some()
                    && matches!(
                        self.world.config.faults.events().get(idx).map(|e| &e.kind),
                        Some(FaultKind::FlashCrowd { .. })
                    ) =>
            {
                let Some(FaultKind::FlashCrowd {
                    rate_multiplier,
                    duration,
                }) = self
                    .world
                    .config
                    .faults
                    .events()
                    .get(idx)
                    .map(|e| e.kind.clone())
                else {
                    unreachable!("guard matched FlashCrowd");
                };
                self.scale_driver_rate(rate_multiplier);
                ctx.sched
                    .schedule(at + duration, Ev::FlashCrowdEnd { rate_multiplier });
            }
            Ev::FlashCrowdEnd { rate_multiplier } if self.driver.is_some() => {
                self.scale_driver_rate(1.0 / rate_multiplier);
            }
            other => des::EventHandler::handle(&mut self.world, at, other, ctx.sched),
        }
    }
}

/// Map a star-topology node into a single-server shard universe: infra
/// nodes (switch, client, server hosts) keep their identity, the shard's
/// own PBX becomes PBX 0, and other shards' PBXes don't exist here.
fn remap_node(n: NodeId, shard: u32) -> Option<NodeId> {
    if n == pbx_node(0) || u32::from(n.0) < u32::from(pbx_node(0).0) {
        if n == pbx_node(0) && shard != 0 {
            // pbx_node(0) names shard 0's PBX specifically.
            return None;
        }
        return Some(n);
    }
    (u32::from(n.0) - u32::from(pbx_node(0).0) == shard).then(|| pbx_node(0))
}

/// Project the run-level fault schedule onto one shard: PBX faults go to
/// the shard hosting that server (renumbered to PBX 0), link faults
/// follow their pbx endpoint (infra-only links replicate to every shard's
/// universe), and flash crowds go to shard 0 where the driver intercepts
/// them.
fn remap_faults(all: &FaultSchedule, shard: u32) -> FaultSchedule {
    let mut out = FaultSchedule::new();
    for event in all.events() {
        let mapped = match event.kind.clone() {
            FaultKind::PbxCrash { pbx, restart_after } => {
                (pbx == shard).then_some(FaultKind::PbxCrash {
                    pbx: 0,
                    restart_after,
                })
            }
            FaultKind::CpuThrottle { pbx, factor } => {
                (pbx == shard).then_some(FaultKind::CpuThrottle { pbx: 0, factor })
            }
            FaultKind::LinkDegrade { a, b, params } => remap_node(a, shard)
                .zip(remap_node(b, shard))
                .map(|(a, b)| FaultKind::LinkDegrade { a, b, params }),
            FaultKind::LinkPartition { a, b } => remap_node(a, shard)
                .zip(remap_node(b, shard))
                .map(|(a, b)| FaultKind::LinkPartition { a, b }),
            FaultKind::LinkHeal { a, b } => remap_node(a, shard)
                .zip(remap_node(b, shard))
                .map(|(a, b)| FaultKind::LinkHeal { a, b }),
            fk @ FaultKind::FlashCrowd { .. } => (shard == 0).then_some(fk),
        };
        if let Some(kind) = mapped {
            out.push(event.at, kind);
        }
    }
    out
}

/// The sub-configuration shard `k` of `shards` runs: one server carrying
/// its `1/shards` share of the offered load (so
/// [`EmpiricalConfig::expected_pending_events`] pre-sizes the shard's
/// wheel for its partition, not the whole farm), a decorrelated seed, and
/// the shard's projection of the fault schedule.
fn shard_config(config: &EmpiricalConfig, shard: u32, shards: u32) -> EmpiricalConfig {
    let mut sub = config.clone();
    sub.servers = 1;
    sub.erlangs = config.erlangs / f64::from(shards);
    sub.seed = des::stream_seed(config.seed, u64::from(shard));
    sub.faults = remap_faults(&config.faults, shard);
    // Population mode: the shard owns its contiguous block of subscribers
    // — its slice of the registrar bindings, the synthetic directory
    // range and the churn wheel — while the driver owns the (whole-
    // population) arrival engine.
    sub.population = config
        .population
        .as_ref()
        .map(|p| p.slice(shard as usize, shards as usize));
    sub
}

/// The same run horizon the classic runner uses (placement + holding
/// slack + fault-recovery observation room).
fn run_horizon(config: &EmpiricalConfig) -> SimTime {
    let hold_slack = match config.holding {
        HoldingDist::Fixed(h) => h + 10.0,
        _ => config.holding.mean() * 8.0 + 30.0,
    };
    let mut horizon_s = 1.0 + config.placement_window_s + hold_slack + 5.0;
    if let Some(last) = config.faults.last_effect_time() {
        horizon_s = horizon_s.max(last.as_secs_f64() + hold_slack + 15.0);
    }
    SimTime::from_secs_f64(horizon_s)
}

/// Execute one run on the partitioned model with the chosen executor and
/// aggregate shard results into a [`RunResult`].
///
/// The result is a pure function of `(config, opts)` — `mode` (and the
/// worker count the pool actually grants) affects only wall-clock fields,
/// never [`RunResult::digest`]. Note the partitioned model is a
/// *different* (more faithful) model than the classic shared-world farm:
/// calls reach their PBX through an explicit dispatch hop, so its digests
/// are compared between its own executors, not against
/// [`crate::experiment::EmpiricalRunner::run_with`].
#[must_use]
pub fn run_partitioned(config: EmpiricalConfig, opts: SimOptions, mode: ExecMode) -> RunResult {
    let shards = config.servers.max(1);
    let horizon = run_horizon(&config);

    let started = std::time::Instant::now();
    let mut lookahead = DISPATCH_FLOOR;
    let mut cells = Vec::with_capacity(shards as usize);
    for k in 0..shards {
        let sub = shard_config(&config, k, shards);
        let mut sched: Scheduler<Ev> =
            Scheduler::with_kind_and_capacity(opts.scheduler, sub.expected_pending_events());
        sched.set_seq_stream(u64::from(k), u64::from(shards));
        let mut world = World::with_engine(sub, opts.media_path, opts.media_kernel)
            .with_signalling(opts.signalling);
        world.prime_partitioned(&mut sched);
        if let Some(floor) = world.topo.network.min_latency_floor() {
            if floor > lookahead {
                lookahead = floor;
            }
        }
        cells.push((
            CapacityShard {
                world,
                driver: None,
            },
            sched,
        ));
    }

    // The driver: one Poisson clock for the whole farm, seeded from the
    // index after the last shard so its draws correlate with nobody's.
    let streams = des::RngStream::new(des::stream_seed(config.seed, u64::from(shards)));
    let mut driver = Driver {
        arrivals: ArrivalProcess::poisson(config.erlangs / config.holding.mean()),
        rng_arrivals: streams.stream("arrivals"),
        rng_dispatch: streams.stream("dispatch"),
        placement_end: SimTime::from_secs(1)
            + SimDuration::from_secs_f64(config.placement_window_s),
        dispatch: lookahead,
        population: config.population.as_ref().map(|pop| DriverPop {
            // The decoy index sits past every shard seed (0..shards) and
            // the driver's own (shards); it feeds only the reference
            // engine's private loser-clock stream.
            engine: PopulationArrivals::new(
                pop,
                des::stream_seed(config.seed, u64::from(shards) + 1),
            ),
            rng_holding: streams.stream("holding"),
            cfg: pop.clone(),
            pickup: config.pickup_delay,
        }),
    };
    if let Some(p) = &mut driver.population {
        if let Some(a) = p
            .engine
            .next_arrival(SimTime::from_secs(1), &mut driver.rng_arrivals)
        {
            if a.at <= driver.placement_end {
                cells[0].1.schedule(a.at, Ev::PopArrival { tag: a.tag });
            }
        }
    } else {
        let first = driver
            .arrivals
            .next_after(SimTime::from_secs(1), &mut driver.rng_arrivals);
        cells[0].1.schedule(first, Ev::ArrivalTick);
    }
    cells[0].0.driver = Some(driver);

    let mut sim = ShardedSim::new(lookahead, cells);
    let stats = match mode {
        ExecMode::Sequential => sim.run_sequential(horizon),
        ExecMode::Sharded { threads } => sim.run_parallel(horizon, threads as usize),
    };
    let wall_clock_s = started.elapsed().as_secs_f64();

    aggregate(&config, sim, stats, wall_clock_s)
}

/// Fold per-shard worlds into one [`RunResult`], walking shards in index
/// order everywhere so every float fold is bit-reproducible and identical
/// for both executors.
fn aggregate(
    config: &EmpiricalConfig,
    sim: ShardedSim<CapacityShard>,
    stats: des::ExecStats,
    wall_clock_s: f64,
) -> RunResult {
    let shards = sim.shard_count();
    let ends: Vec<SimTime> = (0..shards).map(|i| sim.shard_now(i)).collect();
    let end = ends.iter().copied().max().unwrap_or(SimTime::ZERO);
    let events_processed = stats.events;
    let mut worlds = sim.into_worlds();

    let mut journal = loadgen::Journal::new();
    let mut per_server_peaks = Vec::with_capacity(shards);
    let mut per_server_peak_in_use = Vec::with_capacity(shards);
    let mut carried_erlangs = 0.0;
    let mut cpu_sum = 0.0;
    let mut cpu_band = (f64::INFINITY, f64::NEG_INFINITY);
    let mut shed = 0u64;
    let mut steady_attempts = 0u64;
    let mut steady_blocked = 0u64;
    let mut answers: Vec<u64> = Vec::new();
    let mut reports = Vec::with_capacity(shards);
    let mut phases = PhaseBreakdown::default();
    let warmup = SimTime::from_secs_f64(1.0 + config.holding.mean());

    for (i, cell) in worlds.iter_mut().enumerate() {
        let world = &mut cell.world;
        let end_i = ends[i];
        for pbx in &mut world.pbxes {
            pbx.finish(end_i);
        }
        for uac in &mut world.uacs {
            let _ = uac.finish();
            journal.merge(&uac.journal);
        }
        shed += world
            .pbxes
            .iter()
            .map(|p| p.stats().calls_shed)
            .sum::<u64>();
        per_server_peaks.extend(world.pbxes.iter().map(|p| p.pool.peak()));
        per_server_peak_in_use.extend(world.pbxes.iter().map(|p| p.pool.peak_in_use()));
        carried_erlangs += world
            .pbxes
            .iter()
            .map(|p| p.pool.mean_occupancy(world.placement_end()))
            .sum::<f64>();
        cpu_sum += world
            .pbxes
            .iter()
            .map(|p| p.cpu.mean_utilisation(end_i))
            .sum::<f64>();
        cpu_band = world
            .pbxes
            .iter()
            .map(|p| p.cpu.utilisation_band())
            .fold(cpu_band, |(lo, hi), (l, h)| (lo.min(l), hi.max(h)));
        for pbx in &world.pbxes {
            for rec in pbx.cdr.records() {
                if rec.start >= warmup {
                    steady_attempts += 1;
                    if rec.disposition == pbx_sim::Disposition::Blocked {
                        steady_blocked += 1;
                    }
                }
            }
        }
        let series = world.answers_per_second();
        if series.len() > answers.len() {
            answers.resize(series.len(), 0);
        }
        for (slot, v) in answers.iter_mut().zip(series) {
            *slot += v;
        }
        reports.push(world.monitor.report());
        phases.absorb(&world.phase_breakdown(0.0));
    }

    // Wall-clock attribution: handler buckets summed across shards, the
    // executor's barrier wait on top, and the remainder of the workers'
    // combined wall time booked to the scheduler.
    if phases.enabled {
        phases.sync_barrier_s += stats.sync_barrier_s;
        phases.scheduler_s = (wall_clock_s * stats.workers as f64
            - phases.handler_total_s()
            - phases.sync_barrier_s)
            .max(0.0);
    }

    let attempted = journal.attempted;
    let blocked = journal.outcome_count(CallOutcome::Blocked);
    let completed = journal.outcome_count(CallOutcome::Completed);
    let failed = journal.outcome_count(CallOutcome::Failed);
    let abandoned = journal.outcome_count(CallOutcome::Abandoned);
    let shed_then_ok = journal.outcome_count(CallOutcome::ShedThenOk);
    let steady_pb = if steady_attempts == 0 {
        0.0
    } else {
        steady_blocked as f64 / steady_attempts as f64
    };

    RunResult {
        erlangs: config.erlangs,
        attempted,
        completed,
        blocked,
        failed,
        abandoned,
        observed_pb: journal.blocking_probability(),
        steady_pb,
        steady_attempts,
        analytic_pb: teletraffic::blocking_probability(Erlangs(config.erlangs), config.channels),
        peak_channels: per_server_peaks.iter().copied().max().unwrap_or(0),
        per_server_peaks,
        carried_erlangs,
        cpu_mean: cpu_sum / shards as f64,
        cpu_band,
        monitor: MonitorReport::merge_all(&reports),
        sim_seconds: end.as_secs_f64(),
        events_processed,
        wall_clock_s,
        events_per_sec: if wall_clock_s > 0.0 {
            events_processed as f64 / wall_clock_s
        } else {
            0.0
        },
        phases,
        shed,
        retries: journal.retries,
        shed_then_ok,
        goodput: completed + shed_then_ok,
        per_server_peak_in_use,
        recoveries: compute_recoveries(&config.faults, &answers, end.as_secs_f64()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::SimDuration;

    fn farm_smoke(servers: u32, seed: u64) -> EmpiricalConfig {
        let mut cfg = EmpiricalConfig::smoke(seed);
        cfg.servers = servers;
        cfg.erlangs = 8.0;
        cfg.channels = 6;
        cfg.user_pool = 30;
        cfg
    }

    #[test]
    fn partitioned_run_places_and_completes_calls() {
        let r = run_partitioned(
            farm_smoke(3, 7),
            SimOptions::default(),
            ExecMode::Sequential,
        );
        assert!(r.attempted > 0);
        assert!(r.completed > 0);
        assert_eq!(
            r.attempted,
            r.completed + r.blocked + r.failed + r.abandoned,
            "outcome conservation"
        );
        assert_eq!(r.per_server_peaks.len(), 3);
        assert!(r.monitor.rtp_packets > 0, "media flowed");
        assert!(r.monitor.mos_mean > 4.0, "clean LAN scores high MOS");
    }

    #[test]
    fn fault_remap_routes_by_owner() {
        let schedule = FaultSchedule::new()
            .at(
                5.0,
                FaultKind::PbxCrash {
                    pbx: 1,
                    restart_after: SimDuration::from_secs(2),
                },
            )
            .at(
                6.0,
                FaultKind::LinkPartition {
                    a: netsim::topology::nodes::SWITCH,
                    b: pbx_node(2),
                },
            )
            .at(
                7.0,
                FaultKind::FlashCrowd {
                    rate_multiplier: 3.0,
                    duration: SimDuration::from_secs(4),
                },
            )
            .at(
                8.0,
                FaultKind::LinkDegrade {
                    a: netsim::topology::nodes::SWITCH,
                    b: netsim::topology::nodes::SIPP_CLIENT,
                    params: netsim::LinkParams::fast_ethernet(),
                },
            );
        let s0 = remap_faults(&schedule, 0);
        let s1 = remap_faults(&schedule, 1);
        let s2 = remap_faults(&schedule, 2);
        // Shard 0: flash crowd (driver) + infra link degrade.
        assert_eq!(s0.events().len(), 2);
        assert!(matches!(s0.events()[0].kind, FaultKind::FlashCrowd { .. }));
        // Shard 1: its crash (renumbered) + infra degrade.
        assert_eq!(s1.events().len(), 2);
        assert!(
            matches!(s1.events()[0].kind, FaultKind::PbxCrash { pbx: 0, .. }),
            "{:?}",
            s1.events()
        );
        // Shard 2: its partition (endpoint renumbered) + infra degrade.
        assert_eq!(s2.events().len(), 2);
        assert!(
            matches!(s2.events()[0].kind, FaultKind::LinkPartition { b, .. } if b == pbx_node(0)),
            "{:?}",
            s2.events()
        );
    }

    /// A finite-source population spread across a small farm: each shard
    /// homes a contiguous block, the driver owns the aggregated engine.
    fn pop_farm_smoke(servers: u32, seed: u64) -> EmpiricalConfig {
        let mut cfg = farm_smoke(servers, seed);
        cfg.media = crate::experiment::MediaMode::Off;
        let mut pop = PopulationConfig::for_offered_load(240, cfg.erlangs, cfg.holding.mean());
        pop.reg_expiry_s = 30.0;
        pop.churn_buckets = 8;
        cfg.population = Some(pop);
        cfg
    }

    #[test]
    fn partitioned_population_run_places_and_completes_calls() {
        let r = run_partitioned(
            pop_farm_smoke(3, 11),
            SimOptions::default(),
            ExecMode::Sequential,
        );
        assert!(r.attempted > 0, "population orders reached the shards");
        assert!(r.completed > 0, "population calls completed: {r:?}");
        assert_eq!(
            r.attempted,
            r.completed + r.blocked + r.failed + r.abandoned,
            "outcome conservation"
        );
    }

    #[test]
    fn sequential_and_sharded_agree_on_population_farm() {
        let base = run_partitioned(
            pop_farm_smoke(4, 23),
            SimOptions::default(),
            ExecMode::Sequential,
        );
        assert!(base.attempted > 0);
        for threads in [1u32, 2, 4] {
            let r = run_partitioned(
                pop_farm_smoke(4, 23),
                SimOptions::default(),
                ExecMode::Sharded { threads },
            );
            assert_eq!(
                r.digest(),
                base.digest(),
                "population threads={threads} diverged from sequential"
            );
        }
    }

    #[test]
    fn sequential_and_sharded_agree_on_smoke_farm() {
        let base = run_partitioned(
            farm_smoke(4, 99),
            SimOptions::default(),
            ExecMode::Sequential,
        );
        for threads in [1u32, 2, 4] {
            let r = run_partitioned(
                farm_smoke(4, 99),
                SimOptions::default(),
                ExecMode::Sharded { threads },
            );
            assert_eq!(
                r.digest(),
                base.digest(),
                "threads={threads} diverged from sequential"
            );
        }
    }
}
