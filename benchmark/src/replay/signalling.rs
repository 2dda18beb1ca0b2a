//! Micro-drivers for the signalling plane: the caller, the PBX and the
//! callee wired back to back with no network in between, so each
//! endpoint's share of a call ladder, a rejection, a retry or a digest
//! registration can be timed on its own. The messages one ladder puts on
//! the wire also feed `vmon.tap_sip` and the off-default-path `sipcore`
//! measurements (parse, serialize, wire view, transaction manager).

use super::{ops, UnitCosts, BATCHES};
use crate::trace::{allocs_now, count_allocs, Tracer};
use capacity::world::POP_UID_BASE;
use des::{SimDuration, SimTime};
use loadgen::{RetryPolicy, Uac, UacEvent, Uas, UasEvent};
use netsim::topology::nodes;
use netsim::NodeId;
use pbx_sim::{Directory, Pbx, PbxAction, PbxConfig};
use sipcore::transaction::TimerConfig;
use sipcore::txmgr::TransactionManager;
use sipcore::{BufferPool, HeaderName, SipMessage, WireMessage};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Caller/callee identities, as the world's classic pool names them.
const POOL: u64 = 100;

/// Host time and allocations one endpoint has spent.
#[derive(Debug, Clone, Copy, Default)]
struct Spent {
    ns: u64,
    allocs: u64,
}

impl Spent {
    fn charge<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (allocs, started) = (allocs_now(), Instant::now());
        let out = f();
        self.ns += started.elapsed().as_nanos() as u64;
        self.allocs += allocs_now() - allocs;
        out
    }
}

/// UAC ↔ PBX ↔ UAS with messages handed over directly.
struct Ladder {
    uac: Uac,
    uas: Uas,
    pbx: Pbx,
    now: SimTime,
    in_flight: VecDeque<(NodeId, NodeId, SipMessage)>,
    uac_spent: Spent,
    uas_spent: Spent,
    pbx_spent: Spent,
    /// Messages delivered so far.
    delivered: u64,
    /// INVITEs the PBX has handled.
    pbx_invites: u64,
    /// Every delivered message, when recording.
    log: Option<Vec<SipMessage>>,
    /// Answered calls not yet hung up: `(Call-ID, PBX media port)`.
    answered: Vec<(String, u16)>,
    /// Shed calls waiting to be retried.
    retry_due: Vec<String>,
    callers: Vec<String>,
    callees: Vec<String>,
}

impl Ladder {
    fn new(config: PbxConfig) -> Ladder {
        let host = config.hostname.clone();
        let pbx_node = config.node;
        let mut ladder = Ladder {
            uac: Uac::with_tag(nodes::SIPP_CLIENT, pbx_node, &host, 0),
            uas: Uas::new(nodes::SIPP_SERVER, SimDuration::ZERO),
            pbx: Pbx::new(config, Directory::shared_subscribers(1000, 1000)),
            now: SimTime::ZERO,
            in_flight: VecDeque::new(),
            uac_spent: Spent::default(),
            uas_spent: Spent::default(),
            pbx_spent: Spent::default(),
            delivered: 0,
            pbx_invites: 0,
            log: None,
            answered: Vec::new(),
            retry_due: Vec::new(),
            callers: (0..POOL).map(|i| (1000 + i).to_string()).collect(),
            callees: (0..POOL).map(|i| (1500 + i).to_string()).collect(),
        };
        // Register both pools the way `World::prime` does: callers from
        // the client host, callees from the server host.
        let mut callee_side = Uac::with_tag(nodes::SIPP_SERVER, pbx_node, &host, 9000);
        for i in 0..POOL as usize {
            let evs = ladder.uac.register(&ladder.callers[i]);
            ladder.absorb_uac(evs);
            for ev in callee_side.register(&ladder.callees[i]) {
                if let UacEvent::SendSip { to, msg } = ev {
                    ladder.in_flight.push_back((nodes::SIPP_SERVER, to, msg));
                }
            }
            ladder.run();
        }
        ladder.reset();
        ladder
    }

    fn reset(&mut self) {
        self.uac_spent = Spent::default();
        self.uas_spent = Spent::default();
        self.pbx_spent = Spent::default();
        self.delivered = 0;
        self.pbx_invites = 0;
    }

    fn absorb_uac(&mut self, events: Vec<UacEvent>) {
        for ev in events {
            match ev {
                UacEvent::SendSip { to, msg } => {
                    self.in_flight.push_back((nodes::SIPP_CLIENT, to, msg));
                }
                UacEvent::Answered {
                    call_id,
                    remote_rtp_port,
                    ..
                } => self.answered.push((call_id, remote_rtp_port)),
                UacEvent::RetryAfter { call_id, .. } => self.retry_due.push(call_id),
                UacEvent::Ended { .. } | UacEvent::PacerWake { .. } => {}
            }
        }
    }

    /// Deliver until nothing is in flight.
    fn run(&mut self) {
        while let Some((from, to, msg)) = self.in_flight.pop_front() {
            self.delivered += 1;
            if let Some(log) = &mut self.log {
                log.push(msg.clone());
            }
            let now = self.now;
            if to == nodes::SIPP_CLIENT {
                let events = self.uac_spent.charge(|| self.uac.on_sip(now, msg));
                self.absorb_uac(events);
            } else if to == nodes::SIPP_SERVER {
                let events = self.uas_spent.charge(|| self.uas.on_sip(now, from, msg));
                for ev in events {
                    if let UasEvent::SendSip { to, msg } = ev {
                        self.in_flight.push_back((nodes::SIPP_SERVER, to, msg));
                    }
                }
            } else {
                if matches!(&msg, SipMessage::Request(r) if r.method.is_invite()) {
                    self.pbx_invites += 1;
                }
                let actions = self
                    .pbx_spent
                    .charge(|| self.pbx.handle_sip(now, from, msg));
                for action in actions {
                    if let PbxAction::SendSip { to, msg } = action {
                        self.in_flight.push_back((self.pbx.config.node, to, msg));
                    }
                }
            }
        }
    }

    /// INVITE call `i` and deliver everything that follows from it.
    fn place(&mut self, i: u64) {
        self.now += SimDuration::from_millis(10);
        let slot = (i % POOL) as usize;
        let (now, hold) = (self.now, SimDuration::from_secs(120));
        let (_, events) = self.uac_spent.charge(|| {
            self.uac
                .start_call(now, &self.callers[slot], &self.callees[slot], hold)
        });
        self.absorb_uac(events);
        self.run();
    }

    /// BYE the oldest answered call and deliver the teardown.
    fn hang_up(&mut self) {
        let (call_id, _) = self.answered.remove(0);
        let now = self.now;
        let events = self.uac_spent.charge(|| self.uac.hangup(now, &call_id));
        self.absorb_uac(events);
        self.run();
    }

    /// Re-INVITE every shed call until the UAC gives up on it.
    fn retry_until_blocked(&mut self) {
        while let Some(call_id) = self.retry_due.pop() {
            self.now += SimDuration::from_secs(2);
            let now = self.now;
            let events = self.uac_spent.charge(|| self.uac.retry_call(now, &call_id));
            self.absorb_uac(events);
            self.run();
        }
    }
}

pub(super) fn replay(tracer: &mut Tracer, costs: &mut UnitCosts) {
    let wire = call_ladder(tracer, costs);
    rejects_and_retries(tracer, costs);
    digest_registrations(tracer, costs);
    ladder_messages(tracer, costs, &wire);
}

/// Record `samples[k]` (per-batch) under `names[k]`.
fn record_columns<const K: usize>(
    costs: &mut UnitCosts,
    names: [&'static str; K],
    samples: &[[f64; K]],
) {
    for (k, name) in names.into_iter().enumerate() {
        let column: Vec<f64> = samples.iter().map(|row| row[k]).collect();
        costs.record(name, &column);
    }
}

/// Admitted calls: the full 13-message ladder, set-up to teardown, and
/// the PBX's RTP relay lookup for a call held open. Returns one ladder's
/// messages.
fn call_ladder(tracer: &mut Tracer, costs: &mut UnitCosts) -> Vec<SipMessage> {
    let mut ladder = Ladder::new(PbxConfig::evaluation_default(nodes::PBX));
    ladder.log = Some(Vec::new());
    ladder.place(0);
    ladder.hang_up();
    let wire = ladder.log.take().expect("recording was on");
    assert_eq!(
        wire.len(),
        13,
        "one call is the 13-message ladder of Fig. 2"
    );

    // A PBX hands out four media ports per call and never reuses them
    // (`alloc_port` panics once the u16 range is spent, ~13.8 k calls),
    // so every batch starts from a fresh ladder, warmed by a few calls.
    let calls = ops(2_000);
    let batch = || {
        let mut ladder = Ladder::new(PbxConfig::evaluation_default(nodes::PBX));
        for i in 0..calls + 50 {
            if i == 50 {
                ladder.reset();
            }
            ladder.place(i);
            ladder.hang_up();
        }
        assert_eq!(ladder.delivered, 13 * calls);
        ladder
    };
    let samples: Vec<[f64; 3]> = (0..BATCHES)
        .map(|_| {
            let ladder = tracer.span("replay.call_ladder", |_| batch());
            [ladder.pbx_spent, ladder.uac_spent, ladder.uas_spent]
                .map(|spent| spent.ns as f64 / calls as f64)
        })
        .collect();
    record_columns(
        costs,
        [
            "pbxsim.call_ns",
            "loadgen.uac_call_ns",
            "loadgen.uas_call_ns",
        ],
        &samples,
    );
    let (mut ladder, _) = count_allocs(batch);
    costs.record_exact(
        "pbxsim.call_allocs",
        ladder.pbx_spent.allocs as f64 / calls as f64,
    );
    costs.record_exact(
        "loadgen.uac_call_allocs",
        ladder.uac_spent.allocs as f64 / calls as f64,
    );

    // Media relay: hold one call open and route packets arriving on the
    // PBX port facing the caller.
    ladder.place(0);
    let (_, pbx_port) = ladder.answered[0];
    let (pbx, now) = (&mut ladder.pbx, ladder.now);
    let pkts = ops(200_000);
    costs.time(tracer, "pbxsim.relay_ns_per_pkt", pkts, || {
        for _ in 0..pkts {
            black_box(pbx.relay_rtp(now, black_box(pbx_port))).expect("the call is bridged");
        }
    });

    let mut pool = pbx_sim::ChannelPool::new(165);
    let cycles = ops(200_000);
    costs.time(tracer, "pbxsim.channel_ns_per_cycle", cycles, || {
        for _ in 0..cycles {
            let id = pool.allocate(now).expect("the pool is empty");
            pool.release(now, black_box(id));
        }
    });
    wire
}

/// The rejection side: a PBX armed with the hysteresis shedding law and
/// every channel taken answers each INVITE with 503 + Retry-After; the
/// UAC parses it, backs off and re-INVITEs until its retries run out.
fn rejects_and_retries(tracer: &mut Tracer, costs: &mut UnitCosts) {
    let mut config = PbxConfig::evaluation_default(nodes::PBX);
    config.channels = 8;
    config.overload_law = Some(overload::ControlLaw::hysteresis_default());
    let mut ladder = Ladder::new(config);
    ladder.uac.retry_policy = Some(RetryPolicy {
        max_retries: 4,
        base_backoff: SimDuration::from_secs(2),
        max_backoff: SimDuration::from_secs(16),
    });
    for i in 0..8 {
        ladder.place(i);
    }
    assert_eq!(ladder.answered.len(), 8, "the pool is full of held calls");

    let calls = ops(400);
    let mut next = 8;
    let mut batch = |ladder: &mut Ladder| {
        ladder.reset();
        let shed_before = ladder.pbx.stats().calls_shed;
        for _ in 0..calls {
            ladder.place(next);
            ladder.retry_until_blocked();
            next += 1;
        }
        // First attempt plus four retries, all shed.
        assert_eq!(ladder.pbx_invites, 5 * calls);
        assert_eq!(
            ladder.pbx.stats().calls_shed - shed_before,
            ladder.pbx_invites
        );
        let per_reject = |spent: Spent| spent.ns as f64 / ladder.pbx_invites as f64;
        [per_reject(ladder.pbx_spent), per_reject(ladder.uac_spent)]
    };
    batch(&mut ladder);
    let samples: Vec<[f64; 2]> = (0..BATCHES)
        .map(|_| tracer.span("replay.rejects", |_| batch(&mut ladder)))
        .collect();
    record_columns(costs, ["pbxsim.reject_ns", "loadgen.retry_ns"], &samples);
}

/// Population churn: REGISTER → 401 → REGISTER with digest → 200 for
/// subscribers of the synthetic 10⁶ range.
fn digest_registrations(tracer: &mut Tracer, costs: &mut UnitCosts) {
    const SUBSCRIBERS: u64 = 1_000_000;
    let mut ladder = Ladder::new(PbxConfig::evaluation_default(nodes::PBX));
    ladder
        .pbx
        .directory
        .set_synthetic_range(POP_UID_BASE, SUBSCRIBERS);
    ladder
        .pbx
        .registrar
        .bulk_install(SimTime::ZERO, POP_UID_BASE, SUBSCRIBERS, nodes::SIPP_CLIENT);
    let registrations = ops(2_000);
    let uids: Vec<String> = (0..registrations)
        .map(|r| (POP_UID_BASE + r * 499).to_string())
        .collect();
    let batch = |ladder: &mut Ladder| {
        ladder.reset();
        let confirmed = ladder.uac.registrations_confirmed;
        for uid in &uids {
            let events = ladder.uac_spent.charge(|| ladder.uac.register_digest(uid));
            ladder.absorb_uac(events);
            ladder.run();
        }
        assert_eq!(
            ladder.uac.registrations_confirmed - confirmed,
            registrations
        );
        assert_eq!(ladder.delivered, 4 * registrations);
        let each = |spent: Spent| spent.ns as f64 / registrations as f64;
        [each(ladder.pbx_spent), each(ladder.uac_spent)]
    };
    batch(&mut ladder);
    let samples: Vec<[f64; 2]> = (0..BATCHES)
        .map(|_| tracer.span("replay.digest_registrations", |_| batch(&mut ladder)))
        .collect();
    record_columns(
        costs,
        ["pbxsim.register_ns", "loadgen.register_ns"],
        &samples,
    );
}

/// Work done per ladder message: the monitor's SIP tap (default path),
/// and the four wire-format operations no default-path run performs.
fn ladder_messages(tracer: &mut Tracer, costs: &mut UnitCosts, messages: &[SipMessage]) {
    let per_ladder = messages.len() as u64;
    let ladders = ops(2_000);
    let msgs = ladders * per_ladder;

    let mut monitor = vmon::Monitor::new();
    costs.time(tracer, "vmon.tap_sip_ns_per_msg", msgs, || {
        for _ in 0..ladders {
            for msg in messages {
                monitor.tap_sip(msg);
            }
        }
    });

    let wires: Vec<Vec<u8>> = messages.iter().map(SipMessage::to_wire).collect();
    costs.time(tracer, "sipcore.parse_ns_per_msg", msgs, || {
        for _ in 0..ladders {
            for wire in &wires {
                black_box(sipcore::parse_message(wire).expect("own bytes parse"));
            }
        }
    });

    let mut pool = BufferPool::default();
    costs.time(tracer, "sipcore.serialize_ns_per_msg", msgs, || {
        for _ in 0..ladders {
            for msg in messages {
                let buf = pool.wire_of(msg);
                pool.release(black_box(buf));
            }
        }
    });

    costs.time(tracer, "sipcore.wire_view_ns_per_msg", msgs, || {
        for _ in 0..ladders {
            for wire in &wires {
                let view = WireMessage::parse(wire).expect("own bytes frame");
                black_box((
                    view.call_id(),
                    view.cseq(),
                    view.top_via_branch(),
                    view.from_tag(),
                    view.to_tag(),
                    view.header(&HeaderName::ContentType),
                ));
            }
        }
    });

    // A fresh manager per ladder, so every request opens a server
    // transaction (a reused manager would absorb the bytes as
    // retransmissions); construction is part of the cost reported.
    costs.time(tracer, "sipcore.txmgr_ns_per_msg", msgs, || {
        for _ in 0..ladders {
            let mut manager = TransactionManager::new(TimerConfig::default());
            for wire in &wires {
                black_box(manager.on_wire(wire).expect("own bytes parse"));
            }
        }
    });
}
