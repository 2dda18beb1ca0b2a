//! Integration: the full Fig. 2 SIP ladder through the real stack —
//! generator, network, PBX, receiver — with wire-format round-trips.

use asterisk_capacity::prelude::*;
use capacity::experiment::MediaMode;
use loadgen::HoldingDist;
use sipcore::headers::HeaderName;
use sipcore::message::format_via;
use sipcore::sdp::SdpCodec;
use sipcore::{
    parse_message, Body, Method, Request, SdpBody, SdpView, SipMessage, SipUri, StatusCode,
};

/// One call, media off: exactly 13 SIP messages cross the wire
/// (9 to establish + 4 to tear down), as the paper counts.
#[test]
fn one_call_is_thirteen_messages() {
    let cfg = EmpiricalConfig {
        erlangs: 0.1, // essentially one call in the window
        servers: 1,
        holding: HoldingDist::Fixed(5.0),
        placement_window_s: 10.0,
        channels: 10,
        media: MediaMode::Off,
        pickup_delay: des::SimDuration::ZERO,
        link_loss_probability: 0.0,
        silence_suppression: false,
        capture_traffic: false,
        user_pool: 4,
        max_calls_per_user: None,
        faults: faults::FaultSchedule::new(),
        overload_law: None,
        retry: None,
        population: None,
        seed: 11,
    };
    // Try seeds until a window contains exactly one call (Poisson luck).
    let mut chosen = None;
    for seed in 0..40u64 {
        let r = EmpiricalRunner::run(EmpiricalConfig {
            seed,
            ..cfg.clone()
        });
        if r.attempted == 1 && r.completed == 1 {
            chosen = Some(r);
            break;
        }
    }
    let r = chosen.expect("some seed yields exactly one completed call");
    let reg_msgs = 2 * 2 * 4; // REGISTER + 200 for each of 2×4 users
    assert_eq!(r.monitor.sip_total - reg_msgs, 13, "the Fig. 2 ladder");
    assert_eq!(
        r.monitor.sip_request_count("INVITE"),
        2,
        "caller->PBX, PBX->callee"
    );
    assert_eq!(r.monitor.sip_response_count(100), 1);
    assert_eq!(r.monitor.sip_response_count(180), 2);
    // 200s: INVITE (2 legs) + BYE (2 legs) + registrations.
    assert_eq!(r.monitor.sip_response_count(200) - reg_msgs / 2, 4);
    assert_eq!(r.monitor.sip_request_count("ACK"), 2);
    assert_eq!(r.monitor.sip_request_count("BYE"), 2);
    assert_eq!(r.monitor.sip_error_count(), 0);
}

/// Every message the components emit survives a wire round-trip intact —
/// the parser and serializer agree end to end.
#[test]
fn emitted_messages_round_trip_the_wire_format() {
    let sdp = SdpBody::new("1001", "10.0.0.2", 6000, SdpCodec::Pcmu);
    let invite = Request::new(Method::Invite, SipUri::new("1002", "pbx.unb.br"))
        .header(HeaderName::Via, format_via("10.0.0.2", 5060, "z9hG4bKit"))
        .header(HeaderName::From, "<sip:1001@pbx.unb.br>;tag=f1")
        .header(HeaderName::To, "<sip:1002@pbx.unb.br>")
        .header(HeaderName::CallId, "it-call-1")
        .header(HeaderName::CSeq, "1 INVITE")
        .with_body("application/sdp", Body::from(sdp).to_vec());
    let wire = invite.to_wire();
    let parsed = parse_message(&wire).expect("valid SIP");
    assert_eq!(parsed.as_request().unwrap(), &invite);
    assert_eq!(parsed.to_wire(), wire, "byte-stable");

    let ok = invite.make_response(StatusCode::OK);
    let wire = ok.to_wire();
    let parsed = parse_message(&wire).expect("valid SIP");
    assert_eq!(parsed.as_response().unwrap(), &ok);

    // And the SDP body is recoverable from the parsed message.
    let body = &parsed_body(&SipMessage::Request(invite.clone()));
    let sdp_back = SdpView::parse(body).expect("SDP");
    assert_eq!(sdp_back.audio_port(), Some(6000));
    assert_eq!(sdp_back.codec(), Some(SdpCodec::Pcmu));
}

fn parsed_body(msg: &SipMessage) -> Vec<u8> {
    match msg {
        SipMessage::Request(r) => r.body.to_vec(),
        SipMessage::Response(r) => r.body.to_vec(),
    }
}

/// Call-ID correlation: the PBX's two legs carry different Call-IDs (it is
/// a B2BUA, not a proxy), and the CDR joins them.
#[test]
fn b2bua_uses_distinct_call_ids_per_leg() {
    use netsim::NodeId;
    use pbx_sim::{Directory, Pbx, PbxAction, PbxConfig};

    let mut pbx = Pbx::new(
        PbxConfig::evaluation_default(NodeId(3)),
        Directory::with_subscribers(1000, 10),
    );
    // Register the callee directly through a REGISTER message.
    let reg = Request::new(Method::Register, SipUri::server("pbx.unb.br"))
        .header(HeaderName::From, "<sip:1002@pbx.unb.br>;tag=r")
        .header(HeaderName::To, "<sip:1002@pbx.unb.br>")
        .header(HeaderName::CallId, "reg-1002")
        .header(HeaderName::CSeq, "1 REGISTER")
        .header(HeaderName::Authorization, "Simple 1002 pw-1002");
    pbx.handle_sip(des::SimTime::ZERO, NodeId(2), reg.into());

    let sdp = SdpBody::new("1001", "c", 6000, SdpCodec::Pcmu);
    let invite = Request::new(Method::Invite, SipUri::new("1002", "pbx.unb.br"))
        .header(HeaderName::Via, format_via("c", 5060, "z9hG4bKleg"))
        .header(HeaderName::From, "<sip:1001@pbx.unb.br>;tag=x")
        .header(HeaderName::To, "<sip:1002@pbx.unb.br>")
        .header(HeaderName::CallId, "caller-leg-id")
        .header(HeaderName::CSeq, "1 INVITE")
        .with_body("application/sdp", Body::from(sdp).to_vec());
    let actions = pbx.handle_sip(des::SimTime::from_secs(1), NodeId(1), invite.into());
    let forwarded = actions
        .iter()
        .find_map(|a| match a {
            PbxAction::SendSip {
                msg: SipMessage::Request(r),
                ..
            } if r.method == Method::Invite => Some(r.clone()),
            _ => None,
        })
        .expect("INVITE forwarded");
    let callee_leg_id = forwarded.call_id().unwrap().to_owned();
    assert_ne!(callee_leg_id, "caller-leg-id");
    assert_eq!(pbx.peer_call_id(&callee_leg_id), Some("caller-leg-id"));
}
