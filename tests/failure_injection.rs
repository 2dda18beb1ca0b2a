//! Integration: failure paths — exhausted pools, unknown users, bad
//! credentials, lossy wires — degrade gracefully and visibly.

use asterisk_capacity::prelude::*;
use capacity::experiment::MediaMode;
use des::{SimDuration, SimTime};
use loadgen::HoldingDist;
use netsim::NodeId;
use pbx_sim::{Directory, Pbx, PbxAction, PbxConfig};
use sipcore::headers::HeaderName;
use sipcore::message::format_via;
use sipcore::{Method, Request, SipMessage, SipUri, StatusCode};

fn sip_of(a: &PbxAction) -> &SipMessage {
    match a {
        PbxAction::SendSip { msg, .. } => msg,
        other => panic!("expected SIP action, got {other:?}"),
    }
}

#[test]
fn zero_channel_pbx_blocks_every_call() {
    let cfg = EmpiricalConfig {
        erlangs: 2.0,
        servers: 1,
        holding: HoldingDist::Fixed(10.0),
        placement_window_s: 60.0,
        channels: 0,
        media: MediaMode::Off,
        pickup_delay: SimDuration::ZERO,
        link_loss_probability: 0.0,
        silence_suppression: false,
        capture_traffic: false,
        user_pool: 10,
        max_calls_per_user: None,
        faults: faults::FaultSchedule::new(),
        overload_law: None,
        retry: None,
        population: None,
        seed: 5,
    };
    let r = EmpiricalRunner::run(cfg);
    assert!(r.attempted > 0);
    assert_eq!(r.blocked, r.attempted, "every call refused");
    assert_eq!(r.observed_pb, 1.0);
    assert_eq!(r.completed, 0);
    assert_eq!(r.monitor.rtp_packets, 0);
    assert!(r.monitor.sip_error_count() >= r.attempted);
}

#[test]
fn heavy_wire_loss_degrades_mos_but_not_blocking() {
    let base = EmpiricalConfig {
        erlangs: 3.0,
        servers: 1,
        holding: HoldingDist::Fixed(15.0),
        placement_window_s: 40.0,
        channels: 20,
        media: MediaMode::PerPacket,
        pickup_delay: SimDuration::ZERO,
        link_loss_probability: 0.0,
        silence_suppression: false,
        capture_traffic: false,
        user_pool: 10,
        max_calls_per_user: None,
        faults: faults::FaultSchedule::new(),
        overload_law: None,
        retry: None,
        population: None,
        seed: 21,
    };
    let clean = EmpiricalRunner::run(base.clone());
    let lossy = EmpiricalRunner::run(EmpiricalConfig {
        link_loss_probability: 0.02, // 2% per hop, two hops per direction
        ..base
    });
    assert!(
        clean.monitor.mos_mean > 4.3,
        "clean MOS {}",
        clean.monitor.mos_mean
    );
    assert!(
        lossy.monitor.mos_mean < clean.monitor.mos_mean - 0.2,
        "lossy {} vs clean {}",
        lossy.monitor.mos_mean,
        clean.monitor.mos_mean
    );
    assert!(
        lossy.monitor.mean_loss > 0.02,
        "loss visible: {}",
        lossy.monitor.mean_loss
    );
    // Admission control is a signalling property; a lossy media plane
    // doesn't inflate blocking (some SIP may be lost, producing abandoned
    // attempts rather than blocks).
    assert_eq!(lossy.blocked, 0);
}

#[test]
fn unregistered_callee_fails_cleanly() {
    let mut pbx = Pbx::new(
        PbxConfig::evaluation_default(NodeId(3)),
        Directory::with_subscribers(1000, 10),
    );
    let invite = Request::new(Method::Invite, SipUri::new("1005", "pbx.unb.br"))
        .header(HeaderName::Via, format_via("c", 5060, "z9hG4bKf1"))
        .header(HeaderName::From, "<sip:1001@pbx.unb.br>;tag=t")
        .header(HeaderName::To, "<sip:1005@pbx.unb.br>")
        .header(HeaderName::CallId, "fail-1")
        .header(HeaderName::CSeq, "1 INVITE");
    let acts = pbx.handle_sip(SimTime::ZERO, NodeId(1), invite.into());
    assert_eq!(acts.len(), 1);
    assert_eq!(
        sip_of(&acts[0]).as_response().unwrap().status,
        StatusCode::NOT_FOUND
    );
    assert_eq!(pbx.pool.in_use(), 0, "no channel leaked on failure");
    assert_eq!(pbx.cdr.count(pbx_sim::Disposition::Failed), 1);
}

#[test]
fn bad_credentials_never_register() {
    let mut pbx = Pbx::new(
        PbxConfig::evaluation_default(NodeId(3)),
        Directory::with_subscribers(1000, 10),
    );
    for (uid, pw, want) in [
        ("1001", "pw-1001", StatusCode::OK),
        ("1001", "stolen", StatusCode::FORBIDDEN),
        ("9999", "pw-9999", StatusCode::FORBIDDEN),
    ] {
        let reg = Request::new(Method::Register, SipUri::server("pbx.unb.br"))
            .header(HeaderName::From, format!("<sip:{uid}@pbx.unb.br>;tag=r"))
            .header(HeaderName::To, format!("<sip:{uid}@pbx.unb.br>"))
            .header(HeaderName::CallId, format!("reg-{uid}-{pw}"))
            .header(HeaderName::CSeq, "1 REGISTER")
            .header(HeaderName::Authorization, format!("Simple {uid} {pw}"));
        let acts = pbx.handle_sip(SimTime::ZERO, NodeId(1), reg.into());
        assert_eq!(
            sip_of(&acts[0]).as_response().unwrap().status,
            want,
            "{uid}/{pw}"
        );
    }
    let (ok, failed) = pbx.registrar.stats();
    assert_eq!((ok, failed), (1, 2));
}

#[test]
fn malformed_sip_is_rejected_not_crashed() {
    // The parser refuses garbage without panicking; the stack never sees it.
    for garbage in [
        &b"\x00\x01\x02\x03"[..],
        b"INVITE",
        b"INVITE sip:x@h SIP/3.0\r\n\r\n",
        b"SIP/2.0 whatever\r\n\r\n",
    ] {
        assert!(sipcore::parse_message(garbage).is_err());
    }
}

#[test]
fn pool_saturation_recovers_after_load_drops() {
    // Burst overload then quiet: the pool drains and later calls succeed.
    let mut pool = pbx_sim::ChannelPool::new(3);
    let t0 = SimTime::ZERO;
    let ids: Vec<_> = (0..3).map(|_| pool.allocate(t0).unwrap()).collect();
    assert!(pool.allocate(t0).is_none());
    for (k, id) in ids.into_iter().enumerate() {
        pool.release(SimTime::from_secs(k as u64 + 1), id);
    }
    assert_eq!(pool.in_use(), 0);
    assert!(pool.allocate(SimTime::from_secs(10)).is_some());
    assert_eq!(pool.refused_total(), 1);
}
