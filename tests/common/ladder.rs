//! A real `Uac`, `Pbx` and `Uas` wired back to back with no network in
//! between: messages are handed over directly, in FIFO order. Shared by
//! `tests/ladder_wire_golden.rs` (which records the wire bytes),
//! `tests/call_alloc_gate.rs` and `tests/signalling_alloc_budget.rs`
//! (which count allocations). Pulled in with
//! `#[path = "common/ladder.rs"] mod ladder;`.

#![allow(dead_code)] // each including test uses a different subset

use des::{SimDuration, SimTime};
use loadgen::{Uac, UacEvent, Uas, UasEvent};
use netsim::NodeId;
use pbx_sim::{Directory, Pbx, PbxAction, PbxConfig};
use sipcore::sdp::wire::{SdpBody, SdpView};
use sipcore::{parse_message, Body, SipMessage};
use std::collections::VecDeque;

pub const CLIENT: NodeId = NodeId(1);
pub const SERVER: NodeId = NodeId(2);
pub const PBX_NODE: NodeId = NodeId(3);

/// The one caller/callee pair every scenario uses (the world's classic
/// pools start at these uids).
pub const CALLER: &str = "1000";
pub const CALLEE: &str = "1500";

/// What a stack doing real UDP I/O would hand its engine: `msg`
/// serialized and parsed back, its SDP body rebuilt as an [`SdpBody`]
/// from the fields an [`SdpView`] reads off the bytes.
fn over_the_wire(msg: &SipMessage) -> SipMessage {
    let mut msg = parse_message(&msg.to_wire()).expect("engines emit parseable SIP");
    let body = msg.body_mut();
    let sdp = body.as_bytes().and_then(SdpView::parse).and_then(|v| {
        let (codec, port) = v.codec().zip(v.audio_port())?;
        let (origin, conn) = (v.origin_user().unwrap_or(""), v.connection().unwrap_or(""));
        Some(SdpBody::new(origin, conn, port, codec))
    });
    if let Some(sdp) = sdp {
        *body = Body::Bytes(Body::from(sdp).to_vec());
    }
    msg
}

/// UAC ↔ PBX ↔ UAS with messages handed over directly.
pub struct Ladder {
    pub uac: Uac,
    pub uas: Uas,
    pub pbx: Pbx,
    pub now: SimTime,
    /// Hand each engine [`over_the_wire`] of a message instead of the
    /// message: the engines must behave the same on what a parser gives
    /// them as on what a builder gave their peer.
    pub reparse: bool,
    in_flight: VecDeque<(NodeId, NodeId, SipMessage)>,
    /// Messages delivered so far.
    pub delivered: u64,
    /// `to_wire()` of every delivered message, concatenated in delivery
    /// order, while recording (see [`Ladder::record`]).
    pub wire: Option<Vec<u8>>,
    /// Answered calls not yet hung up, oldest first.
    pub answered: VecDeque<String>,
    /// Shed calls waiting to be retried.
    pub retry_due: Vec<String>,
}

impl Ladder {
    /// The three engines around a PBX built from `config`, with
    /// [`CALLER`] registered from the client host and [`CALLEE`] from the
    /// server host the way `World::prime` does it.
    pub fn new(config: PbxConfig) -> Ladder {
        let host = config.hostname.clone();
        let mut ladder = Ladder {
            uac: Uac::with_tag(CLIENT, PBX_NODE, &host, 0),
            uas: Uas::new(SERVER, SimDuration::ZERO),
            pbx: Pbx::new(config, Directory::with_subscribers(1000, 1000)),
            now: SimTime::ZERO,
            reparse: false,
            in_flight: VecDeque::new(),
            delivered: 0,
            wire: None,
            answered: VecDeque::new(),
            retry_due: Vec::new(),
        };
        let events = ladder.uac.register(CALLER);
        ladder.absorb_uac(events);
        for ev in Uac::with_tag(SERVER, PBX_NODE, &host, 9000).register(CALLEE) {
            if let UacEvent::SendSip { to, msg } = ev {
                ladder.in_flight.push_back((SERVER, to, msg));
            }
        }
        ladder.run();
        ladder.delivered = 0;
        ladder
    }

    /// Start recording the wire bytes of every message delivered from now.
    pub fn record(&mut self) {
        self.wire = Some(Vec::new());
    }

    /// Queue what the UAC asked for and remember what it reported.
    pub fn absorb_uac(&mut self, events: Vec<UacEvent>) {
        for ev in events {
            match ev {
                UacEvent::SendSip { to, msg } => self.in_flight.push_back((CLIENT, to, msg)),
                UacEvent::Answered { call_id, .. } => self.answered.push_back(call_id),
                UacEvent::RetryAfter { call_id, .. } => self.retry_due.push(call_id),
                UacEvent::Ended { .. } | UacEvent::PacerWake { .. } => {}
            }
        }
    }

    /// Deliver until nothing is in flight.
    pub fn run(&mut self) {
        while let Some((from, to, msg)) = self.in_flight.pop_front() {
            self.delivered += 1;
            let msg = if self.reparse {
                over_the_wire(&msg)
            } else {
                msg
            };
            if let Some(wire) = &mut self.wire {
                wire.extend_from_slice(&msg.to_wire());
            }
            if to == CLIENT {
                let events = self.uac.on_sip(self.now, msg);
                self.absorb_uac(events);
            } else if to == SERVER {
                for ev in self.uas.on_sip(self.now, from, msg) {
                    if let UasEvent::SendSip { to, msg } = ev {
                        self.in_flight.push_back((SERVER, to, msg));
                    }
                }
            } else {
                for action in self.pbx.handle_sip(self.now, from, msg) {
                    if let PbxAction::SendSip { to, msg } = action {
                        self.in_flight.push_back((PBX_NODE, to, msg));
                    }
                }
            }
        }
    }

    /// One second later, INVITE [`CALLEE`] and deliver everything that
    /// follows from it.
    pub fn place(&mut self) {
        self.now += SimDuration::from_secs(1);
        let hold = SimDuration::from_secs(120);
        let (_, events) = self.uac.start_call(self.now, CALLER, CALLEE, hold);
        self.absorb_uac(events);
        self.run();
    }

    /// BYE the oldest answered call and deliver the teardown.
    pub fn hang_up(&mut self) {
        let call_id = self.answered.pop_front().expect("an answered call");
        let events = self.uac.hangup(self.now, &call_id);
        self.absorb_uac(events);
        self.run();
    }

    /// Two seconds later, re-INVITE the most recently shed call.
    pub fn retry(&mut self) {
        self.now += SimDuration::from_secs(2);
        let call_id = self.retry_due.pop().expect("a shed call");
        let events = self.uac.retry_call(self.now, &call_id);
        self.absorb_uac(events);
        self.run();
    }
}
