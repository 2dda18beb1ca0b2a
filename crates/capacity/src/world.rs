//! The event-driven world: generator hosts, switch, PBX farm and monitor
//! glued to the DES engine.
//!
//! The paper's testbed has exactly one Asterisk server; the world also
//! supports a farm of `servers` PBX nodes, each call dispatched to a
//! uniformly random server (Bernoulli splitting, see `place_call`) — the
//! §IV "increasing the number of servers" alternative, measurable against
//! the pooled single server (see `capacity::farm`).

mod media;

use crate::experiment::{EmpiricalConfig, MediaMode};
use des::{EventHandler, GenTag, Scheduler, SimDuration, SimTime, Slab, StreamRng};
use faults::FaultKind;
use loadgen::{ArrivalProcess, ChurnWheel, PopulationArrivals, Uac, UacEvent, Uas, UasEvent};
use media::{DownRoute, MediaPlane, UpRoute, FRAME_PERIOD};
use netsim::topology::{nodes, StarTopology};
use netsim::{LinkId, LinkParams, Network, NodeId, SendOutcome};
use overload::ControlLaw;
use pbx_sim::cdr::CdrLog;
use pbx_sim::{Directory, Pbx, PbxAction, PbxConfig};
use rtpcore::packet::{RtpDatagram, RtpHeader, RTP_HEADER_LEN};
use rtpcore::packetizer::SAMPLES_PER_FRAME;
use sipcore::message::Decimal;
use sipcore::SipMessage;
use std::fmt::Write as _;
use std::ops::Range;
use vmon::{FlowId, Monitor};

/// Simulated on-wire size of every RTP frame: header, one 20 ms G.711
/// payload, and the UDP/IP/Ethernet overhead every frame carries.
const RTP_WIRE_LEN: usize = RTP_HEADER_LEN + SAMPLES_PER_FRAME + 46;

/// First uid of the finite-source population, unless the classic callees
/// reach it: the population then starts past the last callee.
pub const POP_UID_BASE: u64 = 1_000_000;

/// Who the run's users are, decided once from the configuration: three
/// disjoint uid ranges, read by everything that names a user. Classic
/// caller `i` is `callers.start + i` and dials `callees.start + i`;
/// population rank `u` is `population.start + u`.
struct SubscriberPlan {
    /// The classic callers, `1000 .. 1000 + user_pool`.
    callers: Range<u64>,
    /// The classic callees: from 1500 for pools of up to 500 users (the
    /// campus numbering), past the last caller for larger ones.
    callees: Range<u64>,
    /// The finite-source population: from [`POP_UID_BASE`], or past the
    /// last callee if the callees reach it; empty without a population.
    population: Range<u64>,
}

impl SubscriberPlan {
    fn new(config: &EmpiricalConfig) -> Self {
        let pool = u64::from(config.user_pool);
        let first_callee = 1000 + pool.max(500);
        let callees = first_callee..first_callee + pool;
        let pop_base = POP_UID_BASE.max(callees.end);
        let subscribers = config.population.as_ref().map_or(0, |p| p.subscribers);
        SubscriberPlan {
            callers: 1000..1000 + pool,
            callees,
            population: pop_base..pop_base + subscribers,
        }
    }

    /// The population rank of the user `uid`, if the population holds it.
    fn population_rank(&self, uid: &str) -> Option<u64> {
        let uid: u64 = uid.parse().ok()?;
        let rank = uid.checked_sub(self.population.start)?;
        (uid < self.population.end).then_some(rank)
    }
}

/// How long after a population call ends before its per-call monitor
/// state is folded and freed — long enough for every tail packet of the
/// call to land and be scored first.
const RETIRE_DELAY: SimDuration = SimDuration::from_secs(1);

/// Users re-REGISTERed per churn slice event: bounds the wheel's live
/// frame state to O(slice) no matter how large the population bucket.
const CHURN_SLICE: u64 = 64;

/// Offer one RTP frame to each of `links` in turn, starting at `at`: when
/// it comes off the last one, or `None` if a link dropped it (later links
/// then never see it — no counter, no loss draw).
#[inline]
fn chase_rtp_frame(
    net: &mut Network,
    links: [LinkId; 2],
    mut at: SimTime,
    rng: &mut StreamRng,
) -> Option<SimTime> {
    for link in links {
        let SendOutcome::Delivered { at: next } = net.enqueue_on(link, at, RTP_WIRE_LEN, rng)
        else {
            return None;
        };
        at = next;
    }
    Some(at)
}

/// Node number of PBX `k` in the farm.
#[must_use]
pub fn pbx_node(k: u32) -> NodeId {
    NodeId(3 + k as u16)
}

/// The hosts the switch links to in a farm of `servers` PBXes.
pub(crate) fn star_hosts(servers: u32) -> impl Iterator<Item = NodeId> {
    [nodes::SIPP_CLIENT, nodes::SIPP_SERVER]
        .into_iter()
        .chain((0..servers).map(pbx_node))
}

/// What travels inside a network frame.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A SIP message (wire length precomputed), inline: it travels in its
    /// frame's slab slot and costs no allocation of its own.
    Sip(SipMessage),
    /// An RTP datagram.
    Rtp {
        /// The datagram; its payload is shared, so relaying it through the
        /// PBX clones a refcount, never the media bytes.
        datagram: RtpDatagram,
        /// When the originating endpoint emitted it (for one-way delay).
        sent_at: SimTime,
    },
}

/// A frame in flight between nodes. It waits in the world's frame slab
/// while it travels and events carry its slot (see [`Ev`]): no
/// allocation where it is emitted, a `u32` at every hop after.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Origin node.
    pub src: NodeId,
    /// Final destination node.
    pub dst: NodeId,
    /// Destination UDP port (5060 for SIP, the media port for RTP).
    pub dst_port: u16,
    /// Simulated on-wire size (payload + UDP/IP/Ethernet overhead).
    pub wire_len: usize,
    /// Contents.
    pub payload: Payload,
}

/// Package a SIP message for the network: the typed message rides the
/// frame as-is and its on-wire size comes from the analytic `wire_len` —
/// exactly the serialized length, with no serialization (debug builds
/// serialize once to check that).
fn sip_frame(src: NodeId, to: NodeId, msg: SipMessage) -> Frame {
    let wire_len = msg.wire_len() + 46;
    debug_assert_eq!(wire_len, msg.to_wire().len() + 46, "analytic length exact");
    Frame {
        src,
        dst: to,
        dst_port: 5060,
        wire_len,
        payload: Payload::Sip(msg),
    }
}

/// The frames a REGISTER builder's `events` put on the wire at `src`, for
/// callers that pace them instead of sending at once.
fn register_frames(src: NodeId, events: Vec<UacEvent>) -> impl Iterator<Item = Frame> {
    events.into_iter().filter_map(move |ev| match ev {
        UacEvent::SendSip { to, msg } => Some(sip_frame(src, to, msg)),
        _ => None,
    })
}

/// World events. An event is a handle: every slot of the event wheel is
/// as wide as the widest variant and each pop copies one, so an event
/// names what it acts on and carries nothing wider than 32 bytes — a
/// frame rides as its slot in the world's frame slab.
#[derive(Debug, Clone)]
pub enum Ev {
    /// Place the next call.
    PlaceCall,
    /// A frame is at a node (per hop): delivered if the node is its
    /// destination, forwarded otherwise. A locally originated frame paced
    /// onto the wire later (the registration storm, churn) is one waiting
    /// at its own source.
    HopArrive {
        /// Node the frame just reached.
        at: NodeId,
        /// The frame's slot in the world's frame slab.
        frame: u32,
    },
    /// Emit the due frame for every session in one phase sub-slot: recurs
    /// every 20 ms while the slot is occupied.
    MediaFrame {
        /// Phase sub-slot index.
        slot: usize,
    },
    /// The caller's holding time elapsed: hang up.
    Hangup {
        /// UAC-side call id.
        call_id: String,
        /// UAC index within the farm (`u32`, so `Ev` stays 32 bytes).
        uac: u32,
    },
    /// The UAS's pickup delay elapsed: answer.
    UasAnswer {
        /// UAS-side call id.
        call_id: String,
    },
    /// Fire fault `idx` of the configured [`faults::FaultSchedule`].
    Fault(usize),
    /// The timed effect of fault `idx` ends: a crashed PBX's supervisor
    /// restart completes (endpoints re-REGISTER), a flash crowd's arrival
    /// rate divides back down. What ends is read from the schedule.
    FaultEnd(usize),
    /// A shed call's backoff elapsed: re-INVITE it.
    UacRetry {
        /// The shed attempt's Call-ID.
        call_id: String,
        /// UAC index within the farm (`u32`, so `Ev` stays 32 bytes).
        uac: u32,
    },
    /// A UAC pacer's next-allowed instant arrived: release one deferred
    /// INVITE (armed only when a rate-mode [`loadgen::Pacer`] defers).
    PacerWake {
        /// UAC index within the farm (`u32`, so `Ev` stays 32 bytes).
        uac: u32,
    },
    /// Periodic link-quality sampling feeding MOS-aware admission: folds
    /// the monitor's per-stream stats into (loss, jitter, delay) and hands
    /// them to every PBX. Armed only when the configured overload law is
    /// [`overload::ControlLaw::MosCac`], so every other configuration keeps
    /// a byte-identical event stream (and digest).
    QualityTick,
    /// A finite-source population arrival surfaced. The stamp decides
    /// liveness: state changes since the draw leave it stale, and a stale
    /// arrival is a logically cancelled timer — discarded on claim.
    PopArrival {
        /// Generation stamp from [`loadgen::PopulationArrivals`].
        tag: GenTag,
    },
    /// One expiry-wheel tick: the bucket's contiguous rank range of the
    /// population re-REGISTERs (digest handshake), paced within the tick.
    ChurnTick {
        /// Monotone tick counter from t = 0.
        tick: u64,
    },
    /// One bounded chunk of a churn tick's due range: at most
    /// `CHURN_SLICE` (64) users re-REGISTER per slice event, so live frame
    /// state stays O(slice) instead of O(population / buckets).
    ChurnSlice {
        /// The tick whose due range is being walked.
        tick: u64,
        /// First not-yet-registered rank of that range.
        start: u64,
        /// Per-user pacing gap, fixed at tick start.
        spacing_ns: u64,
    },
    /// Fold and free a finished population call's monitor state — the
    /// O(active calls) memory discipline for scoring at 10⁶ subscribers.
    RetireCall {
        /// UAC-side call id.
        call_id: String,
    },
}

const _: () = assert!(std::mem::size_of::<Ev>() <= 32);

/// Live state of the finite-source population workload: the aggregated
/// arrival engine and the churn wheel. A call's end finds its user
/// through the caller uid ([`SubscriberPlan::population_rank`]).
struct PopState {
    engine: PopulationArrivals,
    churn: ChurnWheel,
}

/// The complete experiment world.
pub struct World {
    /// Configuration.
    pub config: EmpiricalConfig,
    /// The network.
    pub topo: StarTopology,
    /// The systems under test (one per configured server).
    pub pbxes: Vec<Pbx>,
    /// Call generator engines, one per PBX (all on the client host).
    pub uacs: Vec<Uac>,
    /// Call generator server (UAS scenario).
    pub uas: Uas,
    /// Passive monitor.
    pub monitor: Monitor,
    /// Optional wire capture (enabled by `capture_traffic`); every
    /// *delivered* frame is recorded, exactly what a span port at the
    /// destination host would see.
    pub capture: Option<vmon::pcap::PcapWriter>,
    arrivals: ArrivalProcess,
    rng_arrivals: StreamRng,
    rng_holding: StreamRng,
    rng_network: StreamRng,
    rng_dispatch: StreamRng,
    rng_retry: StreamRng,
    placement_start: SimTime,
    placement_end: SimTime,
    /// Media sessions and their frame cadence.
    media: MediaPlane,
    calls_placed: u64,
    /// Healthy parameters every star link started with — what
    /// [`FaultKind::LinkHeal`] restores.
    baseline_link: LinkParams,
    /// Crashed-and-not-yet-restarted PBXes; frames to a down server are
    /// dropped at delivery (the host is dark).
    pbx_down: Vec<bool>,
    /// Answered-call count per simulated second — the recovery signal
    /// time-to-recover analysis reads.
    answers_per_sec: Vec<u64>,
    /// Finite-source population workload (None = classic open loop).
    population: Option<PopState>,
    /// The uid ranges of the run's users.
    plan: SubscriberPlan,
    /// Frames in flight, by slot: `Ev::HopArrive` names one. A slot is
    /// taken where a frame is emitted and freed where it stops travelling
    /// — delivered, dropped by a link, or dark at a crashed PBX — so a run
    /// holds O(frames in flight) of them and a hop allocates nothing.
    frames: Slab<Frame>,
}

impl World {
    /// Build a world from an experiment configuration.
    ///
    /// # Panics
    /// With the [`ConfigError`](crate::experiment::ConfigError)'s text, if
    /// [`EmpiricalConfig::validate`] refuses the configuration.
    #[must_use]
    pub fn new(config: EmpiricalConfig) -> Self {
        if let Err(refused) = config.validate() {
            panic!("{refused}");
        }
        let servers = config.servers;
        let streams = des::RngStream::new(config.seed);
        let mut link = LinkParams::fast_ethernet();
        link.loss_probability = config.link_loss_probability;
        let hosts: Vec<NodeId> = star_hosts(servers).collect();
        let topo = StarTopology::new(nodes::SWITCH, &hosts, link);

        let plan = SubscriberPlan::new(&config);
        // Every PBX holds exactly the plan's users, secret `pw-<uid>` each.
        let mut directory = Directory::new();
        for uids in [&plan.callers, &plan.callees, &plan.population] {
            directory.set_synthetic_range(uids.start, uids.end - uids.start);
        }
        // The CDRs' steady window discards attempts placed before the
        // pools could have filled: placement start + one mean holding time.
        let warmup = SimTime::from_secs_f64(1.0 + config.holding.mean());
        let mut pbxes = Vec::with_capacity(servers as usize);
        let mut uacs = Vec::with_capacity(servers as usize);
        for k in 0..servers {
            let hostname = if servers == 1 {
                "pbx.unb.br".to_owned()
            } else {
                format!("pbx{k}.unb.br")
            };
            let mut pbx_cfg = PbxConfig::evaluation_default(pbx_node(k));
            pbx_cfg.channels = config.channels;
            pbx_cfg.max_calls_per_user = config.max_calls_per_user;
            pbx_cfg.overload_law = config.overload_law;
            pbx_cfg.hostname.clone_from(&hostname);
            let mut pbx = Pbx::new(pbx_cfg, directory.clone());
            pbx.cdr = CdrLog::since(warmup);
            pbxes.push(pbx);
            let mut uac = Uac::with_tag(nodes::SIPP_CLIENT, pbx_node(k), &hostname, k);
            uac.retry_policy = config.retry;
            uac.pacer = config.pacer();
            uacs.push(uac);
        }

        let uas = Uas::new(nodes::SIPP_SERVER, config.pickup_delay);
        let population = config.population.as_ref().map(|pop| PopState {
            // The second argument is unused (a frozen call shape).
            engine: PopulationArrivals::new(pop, 0),
            churn: ChurnWheel::new(
                pop.subscribers,
                SimDuration::from_secs_f64(pop.reg_expiry_s),
                pop.churn_buckets,
            ),
        });
        let rate = config.erlangs / config.holding.mean();
        World {
            topo,
            pbxes,
            uacs,
            uas,
            monitor: Monitor::new(),
            capture: config.capture_traffic.then(vmon::pcap::PcapWriter::new),
            arrivals: ArrivalProcess::poisson(rate),
            rng_arrivals: streams.stream("arrivals"),
            rng_holding: streams.stream("holding"),
            rng_network: streams.stream("network"),
            rng_dispatch: streams.stream("dispatch"),
            rng_retry: streams.stream("retry"),
            placement_start: SimTime::from_secs(1),
            placement_end: SimTime::from_secs(1)
                + SimDuration::from_secs_f64(config.placement_window_s),
            media: MediaPlane::new(&config, streams.stream("media")),
            calls_placed: 0,
            baseline_link: link,
            pbx_down: vec![false; servers as usize],
            answers_per_sec: Vec::new(),
            population,
            plan,
            frames: Slab::new(),
            config,
        }
    }

    /// End of the placement window.
    #[must_use]
    pub fn placement_end(&self) -> SimTime {
        self.placement_end
    }

    /// Seed the initial events: registrations at t≈0, first arrival after
    /// the placement start.
    pub fn prime(&mut self, sched: &mut Scheduler<Ev>) {
        self.registration_storm(SimTime::ZERO, sched, 0..self.pbxes.len());
        // Population mode: install the subscriber bindings in bulk (the
        // steady state is the expiry wheel's churn, not a prime storm),
        // start the wheel, and seed the finite-source arrival chain. The
        // classic pools above still prime — they provide the callee
        // extensions population callers dial.
        if let Some(pop) = self.population.as_ref() {
            let uids = &self.plan.population;
            let tick_period = pop.churn.tick_period();
            for pbx in &mut self.pbxes {
                pbx.registrar.bulk_install(
                    SimTime::ZERO,
                    uids.start,
                    uids.end - uids.start,
                    nodes::SIPP_CLIENT,
                );
            }
            // Tick 0 would re-REGISTER rank 0 at t = 0, racing the bulk
            // install it refreshes; start the wheel at tick 1.
            sched.schedule(SimTime::ZERO + tick_period, Ev::ChurnTick { tick: 1 });
            self.pop_draw_next(self.placement_start, sched);
        } else {
            let first = self
                .arrivals
                .next_after(self.placement_start, &mut self.rng_arrivals);
            sched.schedule(first, Ev::PlaceCall);
        }
        // Scheduled faults.
        for (idx, event) in self.config.faults.events().iter().enumerate() {
            sched.schedule(event.at, Ev::Fault(idx));
        }
        // MOS-aware admission needs a live link-quality estimate; sample
        // the monitor once a second. Armed only for the MosCac law so all
        // other configurations keep their event stream (and digest) intact.
        if matches!(self.config.overload_law, Some(ControlLaw::MosCac { .. })) {
            sched.schedule(self.placement_start, Ev::QualityTick);
        }
    }

    // -- fault injection ----------------------------------------------------

    /// Answered calls per simulated second (index = second). Seconds after
    /// the last answer are absent, not zero.
    #[must_use]
    pub fn answers_per_second(&self) -> &[u64] {
        &self.answers_per_sec
    }

    /// Is PBX `k` currently crashed (dark)?
    #[must_use]
    pub fn pbx_is_down(&self, k: usize) -> bool {
        self.pbx_down.get(k).copied().unwrap_or(false)
    }

    fn apply_fault(&mut self, now: SimTime, sched: &mut Scheduler<Ev>, idx: usize) {
        // `validate` checked that every fault aims inside the farm.
        match self.config.faults.events()[idx].kind.clone() {
            FaultKind::LinkDegrade { a, b, params } => {
                self.topo.network.set_duplex_link_params(a, b, params);
            }
            FaultKind::LinkPartition { a, b } => {
                let mut cut = self.baseline_link;
                cut.loss_probability = 1.0;
                self.topo.network.set_duplex_link_params(a, b, cut);
            }
            FaultKind::LinkHeal { a, b } => {
                let healed = self.baseline_link;
                self.topo.network.set_duplex_link_params(a, b, healed);
            }
            FaultKind::PbxCrash { pbx, restart_after } => {
                let k = pbx as usize;
                if !self.pbx_down[k] {
                    self.pbxes[k].crash(now);
                    self.pbx_down[k] = true;
                    sched.schedule(now + restart_after, Ev::FaultEnd(idx));
                }
            }
            FaultKind::CpuThrottle { pbx, factor } => {
                self.pbxes[pbx as usize].cpu.set_throttle(factor);
            }
            FaultKind::FlashCrowd {
                rate_multiplier,
                duration,
            } => {
                self.arrivals.scale_rate(rate_multiplier);
                sched.schedule(now + duration, Ev::FaultEnd(idx));
            }
        }
    }

    /// The timed effect of fault `idx` is over (armed by [`Self::apply_fault`]).
    fn end_fault(&mut self, now: SimTime, sched: &mut Scheduler<Ev>, idx: usize) {
        match self.config.faults.events()[idx].kind {
            // The supervisor brought the PBX back: mark it reachable and
            // replay the registration storm (bindings died with the
            // process) — endpoints notice the outage quickly and
            // re-REGISTER within about a second.
            FaultKind::PbxCrash { pbx, .. } => {
                let k = pbx as usize;
                self.pbx_down[k] = false;
                self.registration_storm(now, sched, k..k + 1);
            }
            FaultKind::FlashCrowd {
                rate_multiplier, ..
            } => self.arrivals.scale_rate(1.0 / rate_multiplier),
            _ => {}
        }
    }

    /// REGISTER the classic caller and callee pools at each of `pbxes`
    /// through real REGISTER messages, paced from `start`: real endpoints
    /// register over seconds, not in one wire-melting burst; pacing also
    /// keeps the access-link queues (5 ms budget) from tail-dropping
    /// REGISTERs for the later servers of a farm.
    fn registration_storm(
        &mut self,
        start: SimTime,
        sched: &mut Scheduler<Ev>,
        pbxes: Range<usize>,
    ) {
        let pairs = self.plan.callers.clone().zip(self.plan.callees.clone());
        let mut frames = Vec::new();
        for k in pbxes {
            // Callee registrations originate from the server node; reuse
            // the UAC message builder via a scratch instance.
            let (node, host) = (pbx_node(k as u32), self.uacs[k].pbx_host());
            let mut callee_side = Uac::with_tag(nodes::SIPP_SERVER, node, host, 9000 + k as u32);
            for (caller, callee) in pairs.clone() {
                let caller = self.uacs[k].register(&format!("{caller}"));
                frames.extend(register_frames(nodes::SIPP_CLIENT, caller));
                let callee = callee_side.register(&format!("{callee}"));
                frames.extend(register_frames(nodes::SIPP_SERVER, callee));
            }
        }
        let spacing_ns = (900_000_000u64 / (frames.len() as u64).max(1)).min(1_000_000);
        // The storm puts every frame in flight at once (200 at prime, the
        // most any run holds): size the slab for them in one allocation,
        // instead of doubling through a chain of blocks freed mid-prime
        // that later allocations of the pass would be carved from.
        self.frames.reserve(frames.len());
        for (i, frame) in frames.into_iter().enumerate() {
            let at = start + SimDuration::from_nanos(spacing_ns * i as u64);
            self.depart(sched, at, frame);
        }
    }

    // -- plumbing -----------------------------------------------------------

    /// `frame` waiting at its own source, put on the wire at `at`.
    fn depart(&mut self, sched: &mut Scheduler<Ev>, at: SimTime, frame: Frame) {
        let src = frame.src;
        let slot = self.frames.insert(frame);
        sched.schedule(
            at,
            Ev::HopArrive {
                at: src,
                frame: slot,
            },
        );
    }

    /// Put the frame in `slot`, now at node `via` (its source, or a hop on
    /// the way), onto the link towards its destination. Dropped anywhere,
    /// it simply never arrives (its slot is freed); receivers observe the
    /// gap.
    fn forward_frame(&mut self, now: SimTime, sched: &mut Scheduler<Ev>, via: NodeId, slot: u32) {
        let Frame { dst, wire_len, .. } = self.frames[slot];
        let hop = self.topo.next_hop(via, dst);
        match self
            .topo
            .network
            .enqueue(now, via, hop, wire_len, &mut self.rng_network)
        {
            SendOutcome::Delivered { at } => sched.schedule(
                at,
                Ev::HopArrive {
                    at: hop,
                    frame: slot,
                },
            ),
            _ => {
                self.frames.remove(slot);
            }
        }
    }

    /// Put a SIP message from `src` on the wire towards `to`.
    fn send_sip(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
        src: NodeId,
        to: NodeId,
        msg: SipMessage,
    ) {
        let slot = self.frames.insert(sip_frame(src, to, msg));
        self.forward_frame(now, sched, src, slot);
    }

    fn process_uac_events(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
        uac: u32,
        events: Vec<UacEvent>,
    ) {
        for ev in events {
            match ev {
                UacEvent::SendSip { to, msg } => {
                    self.send_sip(now, sched, nodes::SIPP_CLIENT, to, msg);
                }
                UacEvent::Answered {
                    call_id,
                    local_rtp_port,
                    remote_node,
                    remote_rtp_port,
                    hangup_after,
                } => {
                    let second = now.as_secs_f64() as usize;
                    if self.answers_per_sec.len() <= second {
                        self.answers_per_sec.resize(second + 1, 0);
                    }
                    self.answers_per_sec[second] += 1;
                    // A media session (and the monitor's flow for it) needs
                    // a second copy of the Call-ID; the hangup timer takes
                    // the first. With media off no RTP can reach the
                    // monitor, so there is no flow to account.
                    if self.config.media != MediaMode::Off {
                        // The caller hears the flow delivered to its own port.
                        self.monitor.register_flow(
                            FlowId::from_node_port(nodes::SIPP_CLIENT.0, local_rtp_port),
                            &call_id,
                        );
                        let route = (nodes::SIPP_CLIENT, remote_node, remote_rtp_port);
                        self.start_media(now, sched, call_id.clone(), route);
                    }
                    sched.schedule(now + hangup_after, Ev::Hangup { call_id, uac });
                }
                UacEvent::Ended {
                    call_id, caller, ..
                } => {
                    self.media.stop(&call_id);
                    // The caller, not the Call-ID, names a population user:
                    // a shed call's retries and a paced call keep it.
                    if let Some(rank) = self.plan.population_rank(&caller) {
                        self.pop_call_over(now, sched, call_id, rank);
                    }
                }
                UacEvent::RetryAfter { call_id, delay } => {
                    // Honour the backoff plus up to 10% jitter so a shed
                    // burst does not re-arrive as a synchronised thundering
                    // herd.
                    use des::rng::Distributions;
                    let jitter = SimDuration::from_secs_f64(
                        delay.as_secs_f64() * 0.1 * self.rng_retry.unit_f64(),
                    );
                    sched.schedule(now + delay + jitter, Ev::UacRetry { call_id, uac });
                }
                UacEvent::PacerWake { at } => {
                    sched.schedule(at, Ev::PacerWake { uac });
                }
            }
        }
    }

    fn process_uas_events(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
        events: Vec<UasEvent>,
    ) {
        for ev in events {
            match ev {
                UasEvent::SendSip { to, msg } => {
                    self.send_sip(now, sched, nodes::SIPP_SERVER, to, msg);
                }
                UasEvent::AnswerDue { call_id, at } => {
                    sched.schedule(at, Ev::UasAnswer { call_id });
                }
                UasEvent::MediaReady {
                    call_id,
                    local_rtp_port,
                    remote_node,
                    remote_rtp_port,
                } if self.config.media != MediaMode::Off => {
                    // Account this leg's received flow to the bridged call,
                    // which the PBX that placed this leg knows.
                    let owner = self
                        .pbx_index_of(remote_node)
                        .and_then(|k| self.pbxes[k].peer_call_id(&call_id))
                        .unwrap_or(call_id.as_str());
                    self.monitor.register_flow(
                        FlowId::from_node_port(nodes::SIPP_SERVER.0, local_rtp_port),
                        owner,
                    );
                    let route = (nodes::SIPP_SERVER, remote_node, remote_rtp_port);
                    self.start_media(now, sched, call_id, route);
                }
                // With media off no RTP can reach the monitor: no flow.
                UasEvent::MediaReady { .. } => {}
                UasEvent::Ended { call_id } => self.media.stop(&call_id),
            }
        }
    }

    fn process_pbx_actions(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
        src: NodeId,
        actions: Vec<PbxAction>,
    ) {
        for act in actions {
            match act {
                PbxAction::SendSip { to, msg } => self.send_sip(now, sched, src, to, msg),
                // The world relays RTP via the allocation-free
                // `Pbx::relay_rtp` fast path in `deliver`; this arm only
                // exists for completeness of the action protocol.
                PbxAction::SendRtp {
                    to,
                    to_port,
                    datagram,
                } => self.emit_media(now, sched, (src, to, to_port), datagram),
            }
        }
    }

    /// Open the media stream of `call` along `route` (local node, remote
    /// node, remote port) and send its first packet right away; follow-up
    /// frames fire on the cadence [`MediaPlane`] keeps.
    fn start_media(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
        call: String,
        route: (NodeId, NodeId, u16),
    ) {
        let up = self.pbx_index_of(route.1).and_then(|pbx| {
            let links = self.topo.two_hop_route(route.0, route.1)?;
            Some(UpRoute { links, pbx })
        });
        let (first_packet, arm) = self.media.start(now, call, route, up);
        self.emit_media(now, sched, route, first_packet);
        if let Some((at, slot)) = arm {
            sched.schedule(at, Ev::MediaFrame { slot });
        }
    }

    /// Cut-through emission for runs without a span port: chase the
    /// packet across all four link legs at emission time, resolve the PBX
    /// relay inline and tap the monitor with the computed arrival instant
    /// — no per-packet events at all. Every link still serializes the
    /// frame (busy-until, queueing, loss draws), so delays, drops and
    /// link stats match per-hop emission to within emission-order
    /// serialization ties; a captured run (`emit_media`, one event per
    /// hop) is where every frame really visits every node.
    ///
    /// What a packet looks up is what can change under it: whether its
    /// PBX is up, and what [`Pbx::relay_rtp`] answers (which also accrues
    /// the relay's CPU and counts). Links and the monitor stream are
    /// reached through the handles session `idx` carries. `None` where
    /// the packet dies: a dark PBX, a link drop, no relay target yet.
    fn emit_media_express(&mut self, now: SimTime, idx: u32, header: &RtpHeader) -> Option<()> {
        let session = self.media.session_mut(idx);
        let (_, remote_node, remote_port) = session.route;
        let up = session.up?;
        if self.pbx_down[up.pbx] {
            return None;
        }
        let (net, rng) = (&mut self.topo.network, &mut self.rng_network);
        let at_pbx = chase_rtp_frame(net, up.links, now, rng)?;
        let (to, port) = self.pbxes[up.pbx].relay_rtp(now, remote_port)?;
        if session.down.is_none_or(|d| (d.to, d.port) != (to, port)) {
            // First relayed packet, or the far leg moved (early-media
            // race, re-INVITE, crash and restart).
            let links = self.topo.two_hop_route(remote_node, to)?;
            session.down = Some(DownRoute {
                to,
                port,
                links,
                stream: None,
            });
        }
        let down = session.down.as_mut()?;
        let (net, rng) = (&mut self.topo.network, &mut self.rng_network);
        let arrival = chase_rtp_frame(net, down.links, at_pbx, rng)?;
        let (arrival_s, delay_s) = (arrival.as_secs_f64(), arrival.since(now).as_secs_f64());
        match down.stream {
            Some(stream) => self.monitor.tap_rtp_on(stream, arrival_s, delay_s, header),
            None => {
                let flow = FlowId::from_node_port(down.to.0, down.port);
                down.stream = Some(self.monitor.tap_rtp(flow, arrival_s, delay_s, header));
            }
        }
        Some(())
    }

    /// Per-hop emission of one RTP packet along `(src, dst, dst port)`.
    fn emit_media(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
        (src, dst, dst_port): (NodeId, NodeId, u16),
        datagram: RtpDatagram,
    ) {
        let wire_len = datagram.wire_len() + 46;
        let slot = self.frames.insert(Frame {
            src,
            dst,
            dst_port,
            wire_len,
            payload: Payload::Rtp {
                datagram,
                sent_at: now,
            },
        });
        self.forward_frame(now, sched, src, slot);
    }

    /// One frame event of `slot`: every session due there emits its packet,
    /// and the event recurs one period on while the slot holds sessions.
    fn on_media_frame(&mut self, now: SimTime, sched: &mut Scheduler<Ev>, slot: usize) {
        while let Some((idx, header)) = self.media.next_due(now, slot) {
            // Only a span port reads payload bytes or needs per-hop frames.
            if self.capture.is_some() {
                let session = self.media.session_mut(idx);
                let (route, datagram) = (session.route, session.datagram(header));
                self.emit_media(now, sched, route, datagram);
            } else {
                // Cut straight through the network model, which reads
                // the header, never the payload.
                self.emit_media_express(now, idx, &header);
            }
        }
        if self.media.armed(slot) {
            sched.schedule(now + FRAME_PERIOD, Ev::MediaFrame { slot });
        }
    }

    fn pbx_index_of(&self, node: NodeId) -> Option<usize> {
        let idx = node.0.checked_sub(3)? as usize;
        (idx < self.pbxes.len()).then_some(idx)
    }

    /// Route a delivered SIP message to the engine living at `dst`.
    fn handle_sip_delivery(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
        src: NodeId,
        dst: NodeId,
        msg: SipMessage,
    ) {
        self.monitor.tap_sip(&msg);
        if let Some(k) = self.pbx_index_of(dst) {
            let actions = self.pbxes[k].handle_sip(now, src, msg);
            self.process_pbx_actions(now, sched, dst, actions);
        } else if dst == nodes::SIPP_CLIENT {
            // UAC k talks only to PBX k.
            let k = self
                .pbx_index_of(src)
                .expect("only a PBX signals the client host");
            let events = self.uacs[k].on_sip(now, msg);
            self.process_uac_events(now, sched, k as u32, events);
        } else if dst == nodes::SIPP_SERVER {
            let events = self.uas.on_sip(now, src, msg);
            self.process_uas_events(now, sched, events);
        }
    }

    /// The frame in `slot` reached its destination: hand it to the node
    /// there and free its slot, unless a PBX relays it onward in it.
    fn deliver(&mut self, now: SimTime, sched: &mut Scheduler<Ev>, slot: u32) {
        let Frame {
            src, dst, dst_port, ..
        } = self.frames[slot];
        // A crashed PBX is dark: frames reach its NIC and die there.
        let pbx = self.pbx_index_of(dst);
        if pbx.is_some_and(|k| self.pbx_down[k]) {
            self.frames.remove(slot);
            return;
        }
        if let Some(cap) = &mut self.capture {
            // The only place RTP wire bytes are materialised: a span port
            // needs real octets; the relay path never does.
            let payload = match &self.frames[slot].payload {
                Payload::Sip(msg) => msg.to_wire(),
                Payload::Rtp { datagram, .. } => datagram.encode(),
            };
            cap.capture(vmon::pcap::CapturedPacket {
                timestamp_us: now.as_nanos() / 1_000,
                src_node: src.0,
                dst_node: dst.0,
                src_port: dst_port, // symmetric port model
                dst_port,
                payload,
            });
        }
        if let Payload::Rtp { datagram, sent_at } = &self.frames[slot].payload {
            match pbx {
                // Route-only relay: the frame goes back out of its slot
                // readdressed, keeping the original emission time so
                // endpoints see true mouth-to-ear delay. No action Vec, no
                // byte copy, no re-parse, no new frame.
                Some(k) => match self.pbxes[k].relay_rtp(now, dst_port) {
                    Some((to, to_port)) => {
                        let frame = &mut self.frames[slot];
                        (frame.src, frame.dst, frame.dst_port) = (dst, to, to_port);
                        self.forward_frame(now, sched, dst, slot);
                    }
                    None => {
                        self.frames.remove(slot);
                    }
                },
                // Delivered to an endpoint: the monitor scores it off the
                // decoded header riding with the datagram.
                None => {
                    self.monitor.tap_rtp(
                        FlowId::from_node_port(dst.0, dst_port),
                        now.as_secs_f64(),
                        now.since(*sent_at).as_secs_f64(),
                        &datagram.header,
                    );
                    self.frames.remove(slot);
                }
            }
            return;
        }
        if let Some(Payload::Sip(msg)) = self.frames.remove(slot).map(|f| f.payload) {
            self.handle_sip_delivery(now, sched, src, dst, msg);
        }
    }

    /// Place one call from uid `caller` to extension `callee`.
    fn start_call(&mut self, now: SimTime, sched: &mut Scheduler<Ev>, caller: u64, callee: u64) {
        let hold = self.config.holding.sample(&mut self.rng_holding);
        // Uniform random dispatch across the farm — the discipline a
        // DNS SRV pool gives you. (Random, not round-robin: Bernoulli
        // splitting keeps each substream Poisson, so the per-server
        // Erlang-B comparison in `farm` is exact; round-robin would
        // smooth the substreams and flatter the split layouts.)
        let k = if self.uacs.len() == 1 {
            0
        } else {
            use des::rng::Distributions;
            self.rng_dispatch.below(self.uacs.len() as u64) as usize
        };
        let (caller, callee) = (Decimal::new(caller), Decimal::new(callee));
        let (_, events) = self.uacs[k].start_call(now, &caller, &callee, hold);
        self.calls_placed += 1;
        self.process_uac_events(now, sched, k as u32, events);
    }

    fn place_call(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        if now <= self.placement_end {
            let i = self.calls_placed % u64::from(self.config.user_pool);
            let (caller, callee) = (self.plan.callers.start + i, self.plan.callees.start + i);
            self.start_call(now, sched, caller, callee);
            let next = self.arrivals.next_after(now, &mut self.rng_arrivals);
            if next <= self.placement_end {
                sched.schedule(next, Ev::PlaceCall);
            }
        }
    }

    // -- finite-source population workload ----------------------------------

    /// Draw the next finite-source arrival and arm it. No-op when the
    /// placement window is over or when every subscriber is mid-call (the
    /// next hangup re-draws).
    fn pop_draw_next(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        if now > self.placement_end {
            return;
        }
        let Some(pop) = self.population.as_mut() else {
            return;
        };
        if let Some(a) = pop.engine.next_arrival(now, &mut self.rng_arrivals) {
            if a.at <= self.placement_end {
                sched.schedule(a.at, Ev::PopArrival { tag: a.tag });
            }
        }
    }

    /// A population arrival surfaced: claim it (stale stamps are
    /// logically cancelled timers — discard), place the call, re-draw.
    fn pop_arrival(&mut self, now: SimTime, sched: &mut Scheduler<Ev>, tag: GenTag) {
        if now > self.placement_end {
            return;
        }
        let Some(pop) = self.population.as_mut() else {
            return;
        };
        let Some(rank) = pop.engine.claim(tag) else {
            return;
        };
        self.pop_place(now, sched, rank);
        self.pop_draw_next(now, sched);
    }

    /// Place one population call for the user of rank `rank`.
    fn pop_place(&mut self, now: SimTime, sched: &mut Scheduler<Ev>, rank: u64) {
        let callee = self.plan.callees.start + rank % u64::from(self.config.user_pool);
        self.start_call(now, sched, self.plan.population.start + rank, callee);
    }

    /// The call of population rank `rank` reached a terminal outcome: the
    /// user rejoins the idle set (which stales any outstanding arrival
    /// draw — re-draw), and the call's monitor state is retired after the
    /// media tail.
    fn pop_call_over(&mut self, now: SimTime, sched: &mut Scheduler<Ev>, call: String, rank: u64) {
        if let Some(pop) = self.population.as_mut() {
            pop.engine.call_ended(rank);
        }
        sched.schedule(now + RETIRE_DELAY, Ev::RetireCall { call_id: call });
        self.pop_draw_next(now, sched);
    }

    /// One expiry-wheel tick: the due bucket's contiguous rank range
    /// re-REGISTERs through the digest handshake, paced across the first
    /// half of the tick so it cannot melt the access link. The range is
    /// walked in [`CHURN_SLICE`]-sized chunks so a million-user wheel
    /// never holds more than a slice of REGISTER frames live at once.
    fn pop_churn(&mut self, now: SimTime, sched: &mut Scheduler<Ev>, tick: u64) {
        let Some(pop) = self.population.as_ref() else {
            return;
        };
        let period = pop.churn.tick_period();
        // Churn is the steady state for the whole placement window; after
        // that the wheel stops so the run can drain and terminate.
        let next = now + period;
        if next <= self.placement_end {
            sched.schedule(next, Ev::ChurnTick { tick: tick + 1 });
        }
        let due = pop.churn.due_range(tick);
        if due.start == due.end {
            return;
        }
        let spacing_ns = (period.as_nanos() / 2 / (due.end - due.start)).clamp(1, 1_000_000);
        self.pop_churn_slice(now, sched, tick, due.start, spacing_ns);
    }

    /// Re-REGISTER up to [`CHURN_SLICE`] users of `tick`'s due range
    /// starting at `start`, each at its pacing offset, then hand off to
    /// the next slice event timed at the following user's send instant.
    fn pop_churn_slice(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
        tick: u64,
        start: u64,
        spacing_ns: u64,
    ) {
        let Some(pop) = self.population.as_ref() else {
            return;
        };
        let due = pop.churn.due_range(tick);
        let servers = self.uacs.len() as u64;
        let end = (start + CHURN_SLICE).min(due.end);
        let base = self.plan.population.start;
        let mut uid = String::with_capacity(20);
        for rank in start..end {
            uid.clear();
            let _ = write!(uid, "{}", base + rank);
            // Round-robin the auth load across the farm's client engines.
            let k = (rank % servers) as usize;
            let at = now + SimDuration::from_nanos(spacing_ns * (rank - start));
            let events = self.uacs[k].register_digest(&uid);
            for frame in register_frames(nodes::SIPP_CLIENT, events) {
                self.depart(sched, at, frame);
            }
        }
        if end < due.end {
            sched.schedule(
                now + SimDuration::from_nanos(spacing_ns * (end - start)),
                Ev::ChurnSlice {
                    tick,
                    start: end,
                    spacing_ns,
                },
            );
        }
    }
}

impl EventHandler<Ev> for World {
    fn handle(&mut self, at: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::PlaceCall => self.place_call(at, sched),
            Ev::HopArrive { at: node, frame } => {
                if node == self.frames[frame].dst {
                    self.deliver(at, sched, frame);
                } else {
                    self.forward_frame(at, sched, node, frame);
                }
            }
            Ev::MediaFrame { slot } => self.on_media_frame(at, sched, slot),
            Ev::Hangup { call_id, uac } => {
                self.media.stop(&call_id);
                let events = self.uacs[uac as usize].hangup(at, &call_id);
                self.process_uac_events(at, sched, uac, events);
            }
            Ev::UasAnswer { call_id } => {
                let events = self.uas.answer(at, &call_id);
                self.process_uas_events(at, sched, events);
            }
            Ev::Fault(idx) => self.apply_fault(at, sched, idx),
            Ev::FaultEnd(idx) => self.end_fault(at, sched, idx),
            Ev::UacRetry { call_id, uac } => {
                let events = self.uacs[uac as usize].retry_call(at, &call_id);
                self.process_uac_events(at, sched, uac, events);
            }
            Ev::PacerWake { uac } => {
                let events = self.uacs[uac as usize].pacer_wake(at);
                self.process_uac_events(at, sched, uac, events);
            }
            Ev::PopArrival { tag } => self.pop_arrival(at, sched, tag),
            Ev::ChurnTick { tick } => self.pop_churn(at, sched, tick),
            Ev::ChurnSlice {
                tick,
                start,
                spacing_ns,
            } => self.pop_churn_slice(at, sched, tick, start, spacing_ns),
            Ev::RetireCall { call_id } => {
                self.monitor.retire_call(&call_id);
            }
            Ev::QualityTick => {
                let (loss, jitter_ms, delay_ms) = self.monitor.link_quality();
                for pbx in &mut self.pbxes {
                    pbx.observe_link_quality(loss, jitter_ms, delay_ms);
                }
                // Keep sampling while calls can still arrive or drain;
                // stop re-arming once the world has gone quiet so runs
                // bounded by queue exhaustion still terminate naturally.
                let busy =
                    at <= self.placement_end || self.pbxes.iter().any(|p| p.active_calls() > 0);
                if busy {
                    sched.schedule(at + SimDuration::from_secs(1), Ev::QualityTick);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_world;
    use faults::FaultSchedule;
    use loadgen::{CallOutcome, HoldingDist};
    use pbx_sim::Disposition;
    use std::collections::HashSet;

    /// Run `config` until no event is left and hand back the world.
    fn drained(config: EmpiricalConfig) -> World {
        let sim = run_world(config, SimTime::from_secs(100_000));
        assert!(sim.sched.is_empty(), "the run drains");
        sim.world
    }

    /// A signalling-only cell small enough for a debug build.
    fn short_cell(seed: u64) -> EmpiricalConfig {
        EmpiricalConfig {
            holding: HoldingDist::Fixed(10.0),
            placement_window_s: 40.0,
            channels: 8,
            user_pool: 20,
            ..EmpiricalConfig::signalling_only(6.0, seed)
        }
    }

    /// `(lost to errors, tail-dropped)` over every link of the star.
    fn link_drops(world: &World) -> (u64, u64) {
        let network = &world.topo.network;
        let hosts = star_hosts(world.pbxes.len() as u32);
        let directions = hosts.flat_map(|h| [(h, nodes::SWITCH), (nodes::SWITCH, h)]);
        directions
            .filter_map(|(a, b)| network.stats(a, b))
            .fold((0, 0), |(error, queue), s| {
                (error + s.dropped_error, queue + s.dropped_queue)
            })
    }

    #[test]
    fn the_plan_keeps_its_three_ranges_apart() {
        for pool in [1, 100, 500, 501, 8_000, 499_500, 499_501] {
            let mut config = EmpiricalConfig::population_scale(1_000_000, 60.0, 7);
            config.user_pool = pool;
            assert_eq!(config.validate(), Ok(()));
            let plan = SubscriberPlan::new(&config);
            let ranges = [&plan.callers, &plan.callees, &plan.population];
            for (i, a) in ranges.iter().enumerate() {
                assert_eq!(
                    a.end - a.start,
                    [u64::from(pool), u64::from(pool), 1_000_000][i]
                );
                for b in &ranges[i + 1..] {
                    assert!(a.end <= b.start, "pool {pool}: {a:?} overlaps {b:?}");
                }
            }
            assert_eq!(plan.callers.start, 1000, "pool {pool}");
            if pool <= 500 {
                assert_eq!(plan.callees.start, 1500, "pool {pool}: campus numbering");
            }
            if plan.callees.end <= POP_UID_BASE {
                assert_eq!(plan.population.start, POP_UID_BASE, "pool {pool}");
            }
        }
    }

    /// A population cell whose PBX sheds with 503 and whose callers retry.
    fn shedding_population() -> EmpiricalConfig {
        EmpiricalConfig {
            channels: 20,
            overload_law: Some(ControlLaw::hysteresis_default()),
            retry: Some(loadgen::RetryPolicy::default()),
            ..EmpiricalConfig::population_scale(2_000, 60.0, 7)
        }
    }

    /// Users still marked busy in a drained population run.
    fn busy_users(world: &World) -> u64 {
        world
            .population
            .as_ref()
            .map(|pop| pop.engine.active())
            .unwrap()
    }

    /// The CDR conservation laws. Every new INVITE the PBXes saw files
    /// exactly one CDR, and every call the PBXes closed as answered is a
    /// call the callers completed, first time or after a shed. The cell
    /// is loss-free and fault-free, sheds with 503 and retries, and is
    /// cut mid-run with calls open at both ends (so `finish` files them)
    /// at an instant with no frame on the wire (so no INVITE, BYE or 200
    /// is counted at one end only).
    #[test]
    fn cdrs_conserve_invites_and_answers() {
        let config = EmpiricalConfig {
            erlangs: 16.0,
            overload_law: Some(ControlLaw::hysteresis_default()),
            retry: Some(loadgen::RetryPolicy::default()),
            ..short_cell(17)
        };
        let mut sim = run_world(config, SimTime::ZERO);
        let mut cut = sim.world.placement_end();
        loop {
            sim.run_until(cut);
            if sim.world.frames.is_empty() {
                break;
            }
            cut += SimDuration::from_millis(1);
        }
        let world = &mut sim.world;
        let mut journal = loadgen::Journal::new();
        for uac in &mut world.uacs {
            uac.finish();
            journal.merge(&uac.journal);
        }
        let sum = |pbxes: &[Pbx], f: fn(&Pbx) -> usize| pbxes.iter().map(f).sum::<usize>() as u64;
        let open = sum(&world.pbxes, Pbx::active_calls);
        for pbx in &mut world.pbxes {
            pbx.finish(cut);
        }
        // Only a 503 makes a caller retry.
        assert!(
            open > 0 && journal.retries > 0,
            "{open} calls open, {} retried",
            journal.retries
        );
        assert_eq!(
            sum(&world.pbxes, |p| p.cdr.total()),
            journal.attempted + journal.retries,
            "one CDR per new INVITE"
        );
        let outcome = |o| journal.outcome_count(o);
        assert_eq!(
            sum(&world.pbxes, |p| p.cdr.count(Disposition::Answered)),
            outcome(CallOutcome::Completed) + outcome(CallOutcome::ShedThenOk),
            "answered CDRs are completed calls"
        );
    }

    #[test]
    fn population_users_idle_after_shed_calls_are_retried() {
        let world = drained(shedding_population());
        let shed = world.pbxes[0].stats().calls_shed;
        let retries = world.uacs[0].journal.retries;
        assert!(shed > 0 && retries > 0, "{shed} shed, {retries} retried");
        assert_eq!(busy_users(&world), 0, "a retried call's user stayed busy");
    }

    #[test]
    fn a_paced_population_idles_every_user() {
        let config = EmpiricalConfig {
            overload_law: Some(ControlLaw::rate_based_for(0.2)),
            ..shedding_population()
        };
        // Arrivals stop with the window, so INVITEs after it that are not
        // retries are intents the pacer deferred. Every new INVITE files
        // one CDR when it is refused or its call closes, so the INVITEs
        // seen so far are the filed CDRs plus the live calls.
        let seen = |pbx: &Pbx| pbx.cdr.total() + pbx.active_calls();
        let mut sim = run_world(config, SimTime::ZERO);
        let end = sim.world.placement_end();
        sim.run_until(end);
        let in_window = seen(&sim.world.pbxes[0]);
        sim.run_until(SimTime::from_secs(100_000));
        assert!(sim.sched.is_empty(), "the run drains");
        let world = sim.world;
        let late = (seen(&world.pbxes[0]) - in_window) as u64;
        let retries = world.uacs[0].journal.retries;
        assert!(
            late > retries,
            "{late} INVITEs after the window, {retries} retries"
        );
        assert_eq!(busy_users(&world), 0, "a paced call's user stayed busy");
    }

    #[test]
    fn a_campus_sized_pool_keeps_callers_and_callees_apart() {
        // The paper's 8 000-user campus at 100 E: 165 channels block
        // almost nothing, so every call should complete.
        // The span port shows which uids the calls drew.
        let config = EmpiricalConfig {
            user_pool: 8000,
            placement_window_s: 120.0,
            capture_traffic: true,
            ..EmpiricalConfig::signalling_only(100.0, 2015)
        };
        let mut world = drained(config);
        let until = world.placement_end();
        let pcap = world.capture.as_ref().expect("capture is on").to_bytes();
        let (mut callers, mut callees) = (HashSet::new(), HashSet::new());
        for packet in vmon::pcap::read_pcap(&pcap).expect("valid pcap") {
            let parsed = sipcore::parse_message(&packet.payload);
            let Ok(SipMessage::Request(invite)) = parsed else {
                continue;
            };
            if packet.src_node != nodes::SIPP_CLIENT.0 || invite.method != sipcore::Method::Invite {
                continue;
            }
            let from = invite.headers.get(&sipcore::HeaderName::From);
            let caller = from.and_then(|f| f.split_once("sip:")?.1.split_once('@'));
            let uid = |user: &str| user.parse::<u64>().expect("a numeric uid");
            callers.insert(uid(caller.expect("From names the caller").0));
            callees.insert(uid(&invite.uri.user));
        }
        let pbx = &mut world.pbxes[0];
        assert_eq!(
            pbx.active_calls(),
            0,
            "every call ended and freed its channel"
        );
        assert!(
            callers.len() > 50 && callees.len() > 50,
            "{} calls",
            pbx.cdr.total()
        );
        let plan = &world.plan;
        assert!(
            plan.callers.end <= plan.callees.start,
            "a uid is both caller and callee"
        );
        assert!(callers.iter().all(|uid| plan.callers.contains(uid)));
        assert!(callees.iter().all(|uid| plan.callees.contains(uid)));
        // Every uid a call can name, not only those the calls drew.
        for (uids, home) in [
            (plan.callers.clone(), nodes::SIPP_CLIENT),
            (plan.callees.clone(), nodes::SIPP_SERVER),
        ] {
            for uid in uids {
                let bound = pbx.registrar.lookup(until, &uid.to_string());
                assert_eq!(
                    bound.map(|b| b.node),
                    Some(home),
                    "{uid} is registered where it lives"
                );
            }
        }
        let uac = &mut world.uacs[0];
        uac.finish();
        let journal = &uac.journal;
        let completed = journal.outcome_count(loadgen::CallOutcome::Completed);
        assert!(
            completed * 100 >= journal.attempted * 99,
            "{completed} of {} calls completed",
            journal.attempted
        );
    }

    #[test]
    fn frames_dropped_by_links_give_their_slots_back() {
        let mut config = short_cell(3);
        config.link_loss_probability = 0.02;
        // A 64 kb/s callee link holds one SIP message at a time in its
        // 5 ms queue: the rest of a burst is tail-dropped.
        let mut slow = LinkParams::fast_ethernet();
        slow.bandwidth_bps = 64e3;
        let (a, b) = (nodes::SWITCH, nodes::SIPP_SERVER);
        config.faults = FaultSchedule::new().at(5.0, FaultKind::LinkDegrade { a, b, params: slow });
        let world = drained(config);
        let (lost, tail_dropped) = link_drops(&world);
        assert!(
            lost > 0 && tail_dropped > 0,
            "{lost} lost, {tail_dropped} tail-dropped"
        );
        assert_eq!(world.frames.len(), 0, "a dropped frame kept its slot");
    }

    #[test]
    fn frames_at_a_dark_pbx_give_their_slots_back() {
        let mut config = short_cell(5);
        let crash = FaultKind::PbxCrash {
            pbx: 0,
            restart_after: SimDuration::from_secs(8),
        };
        config.faults = FaultSchedule::new().at(12.0, crash);
        let world = drained(config);
        assert_eq!(world.pbxes[0].stats().crashes, 1);
        // INVITEs sent during the outage died at the PBX's NIC: their
        // calls are still open at the client.
        assert!(world.uacs[0].open_calls() > 0);
        assert_eq!(world.frames.len(), 0, "a frame died at a dark PBX");
    }

    #[test]
    fn captured_frames_give_their_slots_back() {
        let mut config = EmpiricalConfig::smoke(7);
        config.capture_traffic = true;
        let world = drained(config);
        let captured = world
            .capture
            .as_ref()
            .map_or(0, vmon::pcap::PcapWriter::len);
        assert!(captured > 0 && world.monitor.rtp_packets() > 0);
        assert_eq!(world.frames.len(), 0, "a captured frame kept its slot");
    }
}
