//! Integration: allocation regression for digest registration.
//!
//! Calls have `tests/sip_zero_alloc.rs`; this is the same kind of gate
//! for the REGISTER → 401 → REGISTER+digest → 200 handshake that makes
//! up ~95 % of the 10⁶-subscriber busy hour. A handshake builds four
//! structured messages, each two allocations of headers (the value arena
//! and its spans) and, for the two REGISTERs, two of Request-URI; on top
//! of that come the Call-ID key, the parsed challenge's realm and nonce
//! and the event `Vec`s. MD5, hex, HA1/HA2, parameter parsing and the
//! directory's secret allocate nothing — all of it is bounded here.

use des::SimTime;
use loadgen::{Uac, UacEvent};
use netsim::NodeId;
use pbx_sim::{Pbx, PbxAction, PbxConfig};
use sipcore::auth::{DigestChallenge, DigestCredentials};
use sipcore::SipMessage;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{start_counting, stop_counting};

const CLIENT: NodeId = NodeId(1);
const PBX_NODE: NodeId = NodeId(3);
const POP_BASE: u64 = 1_000_000;
const SUBSCRIBERS: u64 = 1_000_000;

/// One full handshake for `uid`: messages go back and forth until
/// neither side has anything left to send. Returns messages delivered.
fn handshake(uac: &mut Uac, pbx: &mut Pbx, uid: &str) -> u32 {
    let now = SimTime::ZERO;
    let mut delivered = 0;
    let mut to_pbx: Vec<SipMessage> = Vec::new();
    let absorb = |events: Vec<UacEvent>, to_pbx: &mut Vec<SipMessage>| {
        for ev in events {
            if let UacEvent::SendSip { msg, .. } = ev {
                to_pbx.push(msg);
            }
        }
    };
    absorb(uac.register_digest(uid), &mut to_pbx);
    while let Some(msg) = to_pbx.pop() {
        delivered += 1;
        for act in pbx.handle_sip(now, CLIENT, msg) {
            if let PbxAction::SendSip { msg, .. } = act {
                delivered += 1;
                absorb(uac.on_sip(now, msg), &mut to_pbx);
            }
        }
    }
    delivered
}

/// All checks live in one test function so no sibling test's setup can
/// interleave with the counted regions' warm state.
#[test]
fn digest_registration_allocations_are_bounded() {
    let mut pbx = Pbx::new(
        PbxConfig::evaluation_default(PBX_NODE),
        pbx_sim::Directory::new(),
    );
    pbx.directory.set_synthetic_range(POP_BASE, SUBSCRIBERS);
    pbx.registrar
        .bulk_install(SimTime::ZERO, POP_BASE, SUBSCRIBERS, CLIENT);
    let hostname = pbx.config.hostname.clone();
    let mut uac = Uac::new(CLIENT, PBX_NODE, &hostname);

    let uids: Vec<String> = (0..1100u64)
        .map(|r| (POP_BASE + r * 499).to_string())
        .collect();
    let (warmup, counted) = uids.split_at(100);
    for uid in warmup {
        assert_eq!(handshake(&mut uac, &mut pbx, uid), 4);
    }
    let confirmed = uac.registrations_confirmed;

    start_counting(&[]);
    for uid in counted {
        handshake(&mut uac, &mut pbx, uid);
    }
    let total = stop_counting().total;

    assert_eq!(uac.registrations_confirmed - confirmed, 1000);
    assert_eq!(pbx.registrar.stats(), (1100, 0));
    let per_handshake = total as f64 / 1000.0;
    eprintln!("digest registration: {per_handshake} allocations per handshake");
    assert!(
        per_handshake <= 24.0,
        "a digest registration handshake allocates {per_handshake} times \
         (budget 24; 18 measured, 54 with one `String` per header, 240 \
         before the digest path was rebuilt) — an allocation crept back \
         into the REGISTER path"
    );

    // Outside message building: answering a challenge allocates exactly
    // the returned credential's five owned fields, and checking it
    // allocates nothing.
    let challenge = DigestChallenge {
        realm: hostname.clone(),
        nonce: "nonce-0123456789abcdef0123456789abcdef".to_owned(),
    };
    let uri = format!("sip:{hostname}");
    start_counting(&[]);
    let creds = DigestCredentials::answer(&challenge, "1000042", "pw-1000042", "REGISTER", &uri);
    let answer_allocs = stop_counting().total;
    start_counting(&[]);
    let ok = creds.verify("pw-1000042", "REGISTER", &challenge.nonce);
    let verify_allocs = stop_counting().total;
    assert!(ok);
    assert_eq!(answer_allocs, 5, "username, realm, nonce, uri, response");
    assert_eq!(verify_allocs, 0);
}
