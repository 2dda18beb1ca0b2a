//! Integration: the RFC 2617 digest registration handshake —
//! REGISTER → 401 challenge → authenticated REGISTER → 200 — between the
//! UAC and the PBX registrar, exactly as the LDAP-backed UnB deployment
//! authenticates its users.

use des::SimTime;
use loadgen::{Uac, UacEvent};
use netsim::NodeId;
use pbx_sim::{Directory, Pbx, PbxAction, PbxConfig};
use sipcore::headers::HeaderName;
use sipcore::{SipMessage, StatusCode};

const CLIENT: NodeId = NodeId(1);
const PBX_NODE: NodeId = NodeId(3);

fn digest_pbx() -> Pbx {
    Pbx::new(
        PbxConfig::evaluation_default(PBX_NODE),
        Directory::with_subscribers(1000, 10),
    )
}

/// Pump messages between the UAC and PBX until quiescent; returns the
/// sequence of (direction, status/method) for inspection.
fn pump(uac: &mut Uac, pbx: &mut Pbx, initial: Vec<UacEvent>) -> Vec<String> {
    let now = SimTime::ZERO;
    let mut trace = Vec::new();
    let mut to_pbx: Vec<SipMessage> = initial
        .into_iter()
        .filter_map(|e| match e {
            UacEvent::SendSip { msg, .. } => Some(msg),
            _ => None,
        })
        .collect();
    let mut guard = 0;
    while !to_pbx.is_empty() && guard < 10 {
        guard += 1;
        let mut to_uac = Vec::new();
        for msg in to_pbx.drain(..) {
            trace.push(format!("->pbx {}", describe(&msg)));
            for act in pbx.handle_sip(now, CLIENT, msg) {
                if let PbxAction::SendSip { msg, .. } = act {
                    trace.push(format!("->uac {}", describe(&msg)));
                    to_uac.push(msg);
                }
            }
        }
        for msg in to_uac {
            for ev in uac.on_sip(now, msg) {
                if let UacEvent::SendSip { msg, .. } = ev {
                    to_pbx.push(msg);
                }
            }
        }
    }
    trace
}

fn describe(msg: &SipMessage) -> String {
    match msg {
        SipMessage::Request(r) => r.method.to_string(),
        SipMessage::Response(r) => r.status.0.to_string(),
    }
}

/// The status of the single response the PBX sent.
fn status_of(acts: &[PbxAction]) -> StatusCode {
    match acts {
        [PbxAction::SendSip {
            msg: SipMessage::Response(r),
            ..
        }] => r.status,
        other => panic!("{other:?}"),
    }
}

#[test]
fn digest_handshake_registers_the_user() {
    let mut pbx = digest_pbx();
    let mut uac = Uac::new(CLIENT, PBX_NODE, "pbx.unb.br");
    let initial = uac.register_digest("1004");
    let trace = pump(&mut uac, &mut pbx, initial);
    assert_eq!(
        trace,
        vec!["->pbx REGISTER", "->uac 401", "->pbx REGISTER", "->uac 200"],
        "the canonical challenge round-trip"
    );
    assert_eq!(uac.registrations_confirmed, 1);
    let binding = pbx.registrar.lookup(SimTime::from_secs(1), "1004");
    assert!(binding.is_some(), "binding stored");
    assert_eq!(binding.unwrap().node, CLIENT);
}

#[test]
fn wrong_password_fails_digest() {
    let mut pbx = digest_pbx();
    // Hand-craft the flow with a bad password: challenge, then a bogus
    // answer.
    let reg = sipcore::Request::new(
        sipcore::Method::Register,
        sipcore::SipUri::server("pbx.unb.br"),
    )
    .header(HeaderName::From, "<sip:1004@pbx.unb.br>;tag=r")
    .header(HeaderName::To, "<sip:1004@pbx.unb.br>")
    .header(HeaderName::CallId, "bad-digest")
    .header(HeaderName::CSeq, "1 REGISTER");
    let acts = pbx.handle_sip(SimTime::ZERO, CLIENT, reg.clone().into());
    let challenge_resp = match &acts[0] {
        PbxAction::SendSip {
            msg: SipMessage::Response(r),
            ..
        } => r.clone(),
        other => panic!("{other:?}"),
    };
    assert_eq!(challenge_resp.status, StatusCode::UNAUTHORIZED);
    let www = challenge_resp
        .headers
        .get(&HeaderName::WwwAuthenticate)
        .expect("challenge present");
    let challenge = sipcore::auth::DigestChallenge::parse(www).unwrap();
    let creds = sipcore::auth::DigestCredentials::answer(
        &challenge,
        "1004",
        "WRONG-password",
        "REGISTER",
        "sip:pbx.unb.br",
    );
    let retry = reg
        .clone()
        .header(HeaderName::Authorization, creds.to_header_value());
    let acts = pbx.handle_sip(SimTime::ZERO, CLIENT, retry.into());
    assert_eq!(status_of(&acts), StatusCode::FORBIDDEN);
    assert!(pbx.registrar.is_empty());
}

#[test]
fn digest_replay_against_other_realm_fails() {
    // Credentials computed for one realm must not authenticate against a
    // PBX with a different hostname/realm (nonce and realm both differ).
    let mut cfg = PbxConfig::evaluation_default(PBX_NODE);
    cfg.hostname = "other.example.org".to_owned();
    let mut other_pbx = Pbx::new(cfg, Directory::with_subscribers(1000, 10));

    let challenge = sipcore::auth::DigestChallenge {
        realm: "pbx.unb.br".to_owned(),
        nonce: "stolen-nonce".to_owned(),
    };
    let creds = sipcore::auth::DigestCredentials::answer(
        &challenge,
        "1004",
        "pw-1004",
        "REGISTER",
        "sip:pbx.unb.br",
    );
    let reg = sipcore::Request::new(
        sipcore::Method::Register,
        sipcore::SipUri::server("other.example.org"),
    )
    .header(HeaderName::From, "<sip:1004@other>;tag=r")
    .header(HeaderName::To, "<sip:1004@other>")
    .header(HeaderName::CallId, "replay")
    .header(HeaderName::CSeq, "1 REGISTER")
    .header(HeaderName::Authorization, creds.to_header_value());
    let acts = other_pbx.handle_sip(SimTime::ZERO, CLIENT, reg.into());
    assert_eq!(status_of(&acts), StatusCode::FORBIDDEN);
}

#[test]
fn digest_uri_must_match_the_request_uri() {
    // RFC 2617 §3.2.2.5: a digest computed over one URI must not
    // authorize a request for another, even with the right password.
    let mut pbx = digest_pbx();
    let register = |request_uri: sipcore::SipUri, digest_uri: &str, call_id: &str| {
        let challenge = sipcore::auth::DigestChallenge {
            realm: "pbx.unb.br".to_owned(),
            nonce: format!("nonce-{}", sipcore::auth::md5_hex(b"pbx.unb.br")),
        };
        let creds = sipcore::auth::DigestCredentials::answer(
            &challenge, "1004", "pw-1004", "REGISTER", digest_uri,
        );
        sipcore::Request::new(sipcore::Method::Register, request_uri)
            .header(HeaderName::From, "<sip:1004@pbx.unb.br>;tag=r")
            .header(HeaderName::To, "<sip:1004@pbx.unb.br>")
            .header(HeaderName::CallId, call_id)
            .header(HeaderName::CSeq, "2 REGISTER")
            .header(HeaderName::Authorization, creds.to_header_value())
    };
    let registrar = || sipcore::SipUri::server("pbx.unb.br");

    // Digest over another URI, request to the registrar: refused.
    let req = register(registrar(), "sip:elsewhere.example.org", "uri-1");
    let acts = pbx.handle_sip(SimTime::ZERO, CLIENT, req.into());
    assert_eq!(status_of(&acts), StatusCode::FORBIDDEN);
    // Digest over the registrar's URI, request to another URI: refused
    // (the cached HA2 must not vouch for a request it does not cover).
    let req = register(registrar().with_port(5070), "sip:pbx.unb.br", "uri-2");
    let acts = pbx.handle_sip(SimTime::ZERO, CLIENT, req.into());
    assert_eq!(status_of(&acts), StatusCode::FORBIDDEN);
    assert!(pbx.registrar.is_empty());

    // Matching URIs authenticate: the registrar's own (cached HA2) and
    // any other spelling the request itself uses (HA2 computed).
    let req = register(registrar().with_port(5070), "sip:pbx.unb.br:5070", "uri-3");
    let acts = pbx.handle_sip(SimTime::ZERO, CLIENT, req.into());
    assert_eq!(status_of(&acts), StatusCode::OK);
    let req = register(registrar(), "sip:pbx.unb.br", "uri-4");
    let acts = pbx.handle_sip(SimTime::ZERO, CLIENT, req.into());
    assert_eq!(status_of(&acts), StatusCode::OK);
    assert_eq!(pbx.registrar.stats(), (2, 0));
}
