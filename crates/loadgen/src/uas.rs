//! The UAS (callee) scenario engine — SIPp's server side.
//!
//! Scenario: on INVITE answer 180 Ringing immediately, then 200 OK with an
//! SDP answer (after an optional pickup delay), absorb the ACK, stream
//! media, and answer the BYE with 200.

use des::{FastMap, SimDuration, SimTime};
use netsim::NodeId;
use sipcore::message::{Decimal, Request, Response, SipMessage};
use sipcore::sdp::wire::SdpBody;
use sipcore::sdp::SdpCodec;
use sipcore::{Method, StatusCode};
use std::sync::Arc;

/// Something the UAS asks the world to do or reports.
#[derive(Debug, Clone, PartialEq)]
pub enum UasEvent {
    /// Transmit a SIP message.
    SendSip {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: SipMessage,
    },
    /// The 200 OK should be sent at `at` (pickup delay pending); the world
    /// schedules a timer and then calls [`Uas::answer`].
    AnswerDue {
        /// The call to answer.
        call_id: String,
        /// When to answer.
        at: SimTime,
    },
    /// ACK received — media may flow on these coordinates.
    MediaReady {
        /// The call's Call-ID (callee-leg).
        call_id: String,
        /// Local media port this UAS listens on.
        local_rtp_port: u16,
        /// Peer node (the PBX relay).
        remote_node: NodeId,
        /// Peer media port (from the INVITE's SDP offer).
        remote_rtp_port: u16,
    },
    /// The far end hung up; media for this call should stop.
    Ended {
        /// The call's Call-ID.
        call_id: String,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UasState {
    Ringing,
    AnswerSent,
    Confirmed,
}

#[derive(Debug, Clone)]
struct UasCall {
    state: UasState,
    invite: Request,
    peer: NodeId,
    local_rtp_port: u16,
    remote_rtp_port: u16,
    /// Codec offered in the INVITE's SDP, echoed back in the answer.
    codec: SdpCodec,
    to_tag: String,
}

/// The UAS engine.
pub struct Uas {
    /// This receiver's node.
    pub node: NodeId,
    /// Time between 180 and 200 (0 = answer immediately, the SIPp default).
    pub pickup_delay: SimDuration,
    calls: FastMap<String, UasCall>,
    next_port: u16,
    next_tag: u64,
    /// Shared `o=`/`c=` endpoint string for answer bodies — built once,
    /// refcount-bumped per answer.
    sdp_host: Arc<str>,
}

impl Uas {
    /// A UAS on `node` answering after `pickup_delay`.
    #[must_use]
    pub fn new(node: NodeId, pickup_delay: SimDuration) -> Self {
        Uas {
            node,
            pickup_delay,
            calls: FastMap::default(),
            next_port: 30_000,
            next_tag: 0,
            sdp_host: Arc::from("sipp-server"),
        }
    }

    /// Calls currently ringing or in progress.
    #[must_use]
    pub fn open_calls(&self) -> usize {
        self.calls.len()
    }

    /// Handle an inbound SIP message from `from`.
    pub fn on_sip(&mut self, now: SimTime, from: NodeId, msg: SipMessage) -> Vec<UasEvent> {
        let SipMessage::Request(req) = msg else {
            return vec![]; // (200-to-BYE when we hang up is not modelled here)
        };
        match req.method {
            Method::Invite => self.on_invite(now, from, req),
            Method::Ack => self.on_ack(&req),
            Method::Bye | Method::Cancel => self.on_teardown(&req),
            _ => vec![],
        }
    }

    fn on_invite(&mut self, now: SimTime, from: NodeId, req: Request) -> Vec<UasEvent> {
        let Some(call_id) = req.call_id() else {
            return vec![];
        };
        if self.calls.contains_key(call_id) {
            return vec![]; // retransmission: absorb
        }
        let call_id = call_id.to_owned();
        // Lazy view over the offer: port and codec straight off the wire,
        // no owned parse (and direct field reads on a structured body).
        let remote_rtp_port = req.body.sdp_audio_port().unwrap_or(0);
        let codec = req.body.sdp_codec().unwrap_or(SdpCodec::Pcmu);
        let local_rtp_port = self.next_port;
        self.next_port = self.next_port.wrapping_add(2).max(30_000);
        let to_tag = ["uas", &Decimal::new(self.next_tag)].concat();
        self.next_tag += 1;

        let ringing = req.make_response_tagged(StatusCode::RINGING, &to_tag);
        let mut call = UasCall {
            state: UasState::Ringing,
            invite: req,
            peer: from,
            local_rtp_port,
            remote_rtp_port,
            codec,
            to_tag,
        };
        let mut events = vec![send(from, ringing)];
        if self.pickup_delay == SimDuration::ZERO {
            let ok = Self::answer_ok(&self.sdp_host, &mut call);
            events.push(send(from, ok));
            self.calls.insert(call_id, call);
        } else {
            self.calls.insert(call_id.clone(), call);
            events.push(UasEvent::AnswerDue {
                call_id,
                at: now + self.pickup_delay,
            });
        }
        events
    }

    /// Emit the 200 OK for a ringing call when the world's pickup timer
    /// fires (with no pickup delay [`Uas::on_sip`] has already sent it).
    pub fn answer(&mut self, _now: SimTime, call_id: &str) -> Vec<UasEvent> {
        let Some(call) = self.calls.get_mut(call_id) else {
            return vec![];
        };
        if call.state != UasState::Ringing {
            return vec![];
        }
        let ok = Self::answer_ok(&self.sdp_host, call);
        vec![send(call.peer, ok)]
    }

    /// Answer a ringing call: its 200 OK with the SDP answer.
    fn answer_ok(sdp_host: &Arc<str>, call: &mut UasCall) -> Response {
        call.state = UasState::AnswerSent;
        // Echo the offered codec in the answer; the body stays structured
        // (two refcount bumps), serialized only if the path needs wire.
        let sdp = SdpBody::new(
            Arc::clone(sdp_host),
            Arc::clone(sdp_host),
            call.local_rtp_port,
            call.codec,
        );
        call.invite
            .make_response_tagged(StatusCode::OK, &call.to_tag)
            .with_sdp(sdp)
    }

    fn on_ack(&mut self, req: &Request) -> Vec<UasEvent> {
        let Some(call_id) = req.call_id() else {
            return vec![];
        };
        let Some(call) = self.calls.get_mut(call_id) else {
            return vec![];
        };
        if call.state != UasState::AnswerSent {
            return vec![];
        }
        call.state = UasState::Confirmed;
        vec![UasEvent::MediaReady {
            call_id: call_id.to_owned(),
            local_rtp_port: call.local_rtp_port,
            remote_node: call.peer,
            remote_rtp_port: call.remote_rtp_port,
        }]
    }

    /// A BYE, or a CANCEL before the answer: either way the call is over.
    /// Remove it, answer 200 to its peer and report it ended.
    fn on_teardown(&mut self, req: &Request) -> Vec<UasEvent> {
        // Unknown call: nothing to answer to (no peer).
        let Some((call_id, call)) = req.call_id().and_then(|c| self.calls.remove_entry(c)) else {
            return vec![];
        };
        let ok = req.make_response(StatusCode::OK);
        vec![send(call.peer, ok), UasEvent::Ended { call_id }]
    }
}

/// Hand `msg` to the world for transmission to `to`.
fn send(to: NodeId, msg: impl Into<SipMessage>) -> UasEvent {
    UasEvent::SendSip {
        to,
        msg: msg.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sipcore::headers::HeaderName;
    use sipcore::message::format_via;
    use sipcore::sdp::wire::SdpBody;
    use sipcore::{Body, SipUri};

    /// The wire bytes of an offer from the PBX.
    fn offer(codec: SdpCodec) -> Vec<u8> {
        Body::from(SdpBody::new("asterisk", "pbx", 10_002, codec)).to_vec()
    }

    const UAS_NODE: NodeId = NodeId(2);
    const PBX_NODE: NodeId = NodeId(3);

    fn invite(call_id: &str) -> Request {
        Request::new(Method::Invite, SipUri::new("2001", "pbx.unb.br"))
            .header(HeaderName::Via, format_via("pbx", 5060, "z9hG4bKx"))
            .header(HeaderName::From, "<sip:1001@pbx.unb.br>;tag=pbx")
            .header(HeaderName::To, "<sip:2001@pbx.unb.br>")
            .header(HeaderName::CallId, call_id)
            .header(HeaderName::CSeq, "1 INVITE")
            .with_body("application/sdp", offer(SdpCodec::Pcmu))
    }

    fn sip_of(ev: &UasEvent) -> &SipMessage {
        match ev {
            UasEvent::SendSip { msg, .. } => msg,
            other => panic!("expected SendSip, got {other:?}"),
        }
    }

    #[test]
    fn immediate_answer_sends_180_then_200() {
        let mut u = Uas::new(UAS_NODE, SimDuration::ZERO);
        let evs = u.on_sip(SimTime::ZERO, PBX_NODE, invite("c1").into());
        assert_eq!(evs.len(), 2);
        let ringing = sip_of(&evs[0]).as_response().unwrap();
        assert_eq!(ringing.status, StatusCode::RINGING);
        assert!(
            sipcore::headers::tag_of(ringing.headers.get(&HeaderName::To).unwrap()).is_some(),
            "UAS adds a To tag"
        );
        let ok = sip_of(&evs[1]).as_response().unwrap();
        assert_eq!(ok.status, StatusCode::OK);
        assert_eq!(ok.body.sdp_audio_port(), Some(30_000));
        // The structured answer serializes to the expected text — and the
        // Content-Length header already reflects it.
        let expected: &[u8] = b"v=0\r\no=sipp-server 0 0 IN IP4 sipp-server\r\ns=call\r\n\
            c=IN IP4 sipp-server\r\nt=0 0\r\nm=audio 30000 RTP/AVP 0\r\n\
            a=rtpmap:0 PCMU/8000\r\na=ptime:20\r\n";
        assert_eq!(ok.body.to_vec(), expected);
        assert_eq!(
            ok.headers.get(&HeaderName::ContentLength),
            Some(expected.len().to_string().as_str())
        );
        assert_eq!(u.open_calls(), 1);
    }

    #[test]
    fn answer_echoes_offered_codec() {
        let mut u = Uas::new(UAS_NODE, SimDuration::ZERO);
        let inv = Request::new(Method::Invite, SipUri::new("2001", "pbx.unb.br"))
            .header(HeaderName::Via, format_via("pbx", 5060, "z9hG4bKa"))
            .header(HeaderName::From, "<sip:1001@pbx.unb.br>;tag=pbx")
            .header(HeaderName::To, "<sip:2001@pbx.unb.br>")
            .header(HeaderName::CallId, "alaw-1")
            .header(HeaderName::CSeq, "1 INVITE")
            .with_body("application/sdp", offer(SdpCodec::Pcma));
        let evs = u.on_sip(SimTime::ZERO, PBX_NODE, inv.into());
        let ok = sip_of(&evs[1]).as_response().unwrap();
        assert_eq!(
            ok.body.sdp_codec(),
            Some(SdpCodec::Pcma),
            "answer carries the offered codec, not a hardcoded PCMU"
        );
    }

    #[test]
    fn delayed_answer_emits_answer_due() {
        let mut u = Uas::new(UAS_NODE, SimDuration::from_secs(2));
        let evs = u.on_sip(SimTime::from_secs(10), PBX_NODE, invite("c2").into());
        assert_eq!(evs.len(), 2);
        assert_eq!(
            evs[1],
            UasEvent::AnswerDue {
                call_id: "c2".to_owned(),
                at: SimTime::from_secs(12)
            }
        );
        // World fires the timer.
        let evs = u.answer(SimTime::from_secs(12), "c2");
        assert_eq!(evs.len(), 1);
        assert_eq!(
            sip_of(&evs[0]).as_response().unwrap().status,
            StatusCode::OK
        );
        // Double answer is absorbed.
        assert!(u.answer(SimTime::from_secs(12), "c2").is_empty());
        assert!(u.answer(SimTime::from_secs(12), "nope").is_empty());
    }

    #[test]
    fn ack_triggers_media_ready() {
        let mut u = Uas::new(UAS_NODE, SimDuration::ZERO);
        u.on_sip(SimTime::ZERO, PBX_NODE, invite("c3").into());
        let ack = Request::new(Method::Ack, SipUri::new("2001", "pbx.unb.br"))
            .header(HeaderName::CallId, "c3")
            .header(HeaderName::CSeq, "1 ACK");
        let evs = u.on_sip(SimTime::ZERO, PBX_NODE, ack.clone().into());
        assert_eq!(
            evs,
            vec![UasEvent::MediaReady {
                call_id: "c3".to_owned(),
                local_rtp_port: 30_000,
                remote_node: PBX_NODE,
                remote_rtp_port: 10_002,
            }]
        );
        // Duplicate ACK absorbed.
        assert!(u.on_sip(SimTime::ZERO, PBX_NODE, ack.into()).is_empty());
    }

    #[test]
    fn bye_gets_200_and_ends_call() {
        let mut u = Uas::new(UAS_NODE, SimDuration::ZERO);
        u.on_sip(SimTime::ZERO, PBX_NODE, invite("c4").into());
        let bye = Request::new(Method::Bye, SipUri::new("2001", "pbx.unb.br"))
            .header(HeaderName::CallId, "c4")
            .header(HeaderName::CSeq, "2 BYE");
        let evs = u.on_sip(SimTime::from_secs(100), PBX_NODE, bye.into());
        assert_eq!(evs.len(), 2);
        assert_eq!(
            sip_of(&evs[0]).as_response().unwrap().status,
            StatusCode::OK
        );
        assert_eq!(
            evs[1],
            UasEvent::Ended {
                call_id: "c4".to_owned()
            }
        );
        assert_eq!(u.open_calls(), 0);
        // BYE for unknown call produces nothing.
        let bye2 = Request::new(Method::Bye, SipUri::new("2001", "pbx.unb.br"))
            .header(HeaderName::CallId, "ghost")
            .header(HeaderName::CSeq, "2 BYE");
        assert!(u.on_sip(SimTime::ZERO, PBX_NODE, bye2.into()).is_empty());
    }

    #[test]
    fn cancel_ends_ringing_call() {
        let mut u = Uas::new(UAS_NODE, SimDuration::from_secs(30));
        u.on_sip(SimTime::ZERO, PBX_NODE, invite("c5").into());
        let cancel = Request::new(Method::Cancel, SipUri::new("2001", "pbx.unb.br"))
            .header(HeaderName::CallId, "c5")
            .header(HeaderName::CSeq, "1 CANCEL");
        let evs = u.on_sip(SimTime::from_secs(1), PBX_NODE, cancel.into());
        assert_eq!(evs.len(), 2);
        assert_eq!(u.open_calls(), 0);
    }

    #[test]
    fn retransmitted_invite_absorbed() {
        let mut u = Uas::new(UAS_NODE, SimDuration::ZERO);
        let first = u.on_sip(SimTime::ZERO, PBX_NODE, invite("c6").into());
        assert_eq!(first.len(), 2);
        let second = u.on_sip(SimTime::ZERO, PBX_NODE, invite("c6").into());
        assert!(second.is_empty());
        assert_eq!(u.open_calls(), 1);
    }

    #[test]
    fn distinct_calls_get_distinct_ports() {
        let mut u = Uas::new(UAS_NODE, SimDuration::ZERO);
        let e1 = u.on_sip(SimTime::ZERO, PBX_NODE, invite("p1").into());
        let e2 = u.on_sip(SimTime::ZERO, PBX_NODE, invite("p2").into());
        let p1 = sip_of(&e1[1])
            .as_response()
            .unwrap()
            .body
            .sdp_audio_port()
            .unwrap();
        let p2 = sip_of(&e2[1])
            .as_response()
            .unwrap()
            .body
            .sdp_audio_port()
            .unwrap();
        assert_ne!(p1, p2);
    }
}
