//! Integration: the allocation budget of a signalling-only call, at the
//! three scales that see different parts of it.
//!
//! `tests/call_alloc_gate.rs` and `tests/register_alloc_gate.rs` keep
//! their looser floors; this file holds the budgets measured once
//! Request-URIs became shared text, every in-flight frame a slot in the
//! world's slab, and media-off runs stopped registering monitor flows:
//!
//! * the admitted 13-message ladder through the real `Uac`, `Pbx` and
//!   `Uas` — 51 measured (53 while the PBX kept a record per call, 71
//!   before that), budget +7;
//! * the digest REGISTER handshake — 16 measured (18 before), budget +6;
//! * a whole short `EmpiricalConfig::signalling_only` cell through the
//!   world, per attempted call. Only this gate sees the frames on the
//!   wire and the monitor, so it is kept tight: one allocation per call
//!   over the measurement. A boxed frame per message (13 per admitted
//!   call) or a monitor flow per leg (two keys per call) fails it.

use capacity::experiment::{EmpiricalConfig, EmpiricalRunner};
use des::SimTime;
use loadgen::{HoldingDist, Uac, UacEvent};
use netsim::NodeId;
use pbx_sim::{Disposition, Pbx, PbxAction, PbxConfig};
use sipcore::SipMessage;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{start_counting, stop_counting};

#[path = "common/ladder.rs"]
mod ladder;
use ladder::{Ladder, PBX_NODE};

/// Allocations per admitted ladder across the three engines (51 measured).
const LADDER_BUDGET: f64 = 58.0;

/// Allocations per digest registration handshake (16 measured).
const REGISTER_BUDGET: f64 = 22.0;

/// Allocations per attempted call of [`cell`], whole run included (54.32
/// measured; 66.83 while the event wheel pre-seeded 4 096 buckets, 68.10
/// while the registrar keyed campus bindings by `String` and the PBX
/// counted every caller's live calls, 70.15 while it kept a record per
/// call; see the module doc).
const CELL_BUDGET: f64 = 68.2;

#[test]
fn admitted_ladder_allocations_are_bounded() {
    let mut l = Ladder::new(PbxConfig::evaluation_default(PBX_NODE));
    for _ in 0..50 {
        l.place();
        l.hang_up();
    }
    start_counting(&[]);
    for _ in 0..1000 {
        l.place();
        l.hang_up();
    }
    let total = stop_counting().total;
    assert_eq!(l.pbx.cdr.count(Disposition::Answered), 1050);
    let per_call = total as f64 / 1000.0;
    eprintln!("admitted call: {per_call} allocations per 13-message ladder");
    assert!(
        per_call <= LADDER_BUDGET,
        "an admitted call allocates {per_call} times (budget {LADDER_BUDGET}, 51 measured)"
    );
}

#[test]
fn digest_registration_allocations_are_bounded() {
    const CLIENT: NodeId = NodeId(1);
    const POP_BASE: u64 = 1_000_000;
    let mut pbx = Pbx::new(
        PbxConfig::evaluation_default(PBX_NODE),
        pbx_sim::Directory::new(),
    );
    pbx.directory.set_synthetic_range(POP_BASE, 1_000_000);
    pbx.registrar
        .bulk_install(SimTime::ZERO, POP_BASE, 1_000_000, CLIENT);
    let hostname = pbx.config.hostname.clone();
    let mut uac = Uac::new(CLIENT, PBX_NODE, &hostname);
    let mut handshake = |uid: &str| {
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
            for act in pbx.handle_sip(SimTime::ZERO, CLIENT, msg) {
                if let PbxAction::SendSip { msg, .. } = act {
                    absorb(uac.on_sip(SimTime::ZERO, msg), &mut to_pbx);
                }
            }
        }
    };
    let uids: Vec<String> = (0..1100u64)
        .map(|r| (POP_BASE + r * 499).to_string())
        .collect();
    let (warmup, counted) = uids.split_at(100);
    warmup.iter().for_each(|uid| handshake(uid));
    start_counting(&[]);
    counted.iter().for_each(|uid| handshake(uid));
    let total = stop_counting().total;
    assert_eq!(uac.registrations_confirmed, 1100);
    let per_handshake = total as f64 / 1000.0;
    eprintln!("digest registration: {per_handshake} allocations per handshake");
    assert!(
        per_handshake <= REGISTER_BUDGET,
        "a digest registration allocates {per_handshake} times (budget {REGISTER_BUDGET}, \
         16 measured)"
    );
}

/// A signalling-only cell near the paper's operating point, short enough
/// for a debug build: 160 E on 165 channels for 120 s.
fn cell() -> EmpiricalConfig {
    EmpiricalConfig {
        holding: HoldingDist::Fixed(60.0),
        placement_window_s: 120.0,
        ..EmpiricalConfig::signalling_only(160.0, 2015)
    }
}

#[test]
fn signalling_only_cell_allocations_are_bounded() {
    // The first run fills the process-wide memos (subscriber table, user
    // interners, Erlang-B curve); the second is the one counted.
    let warm = EmpiricalRunner::run(cell());
    start_counting(&[]);
    let run = EmpiricalRunner::run(cell());
    let total = stop_counting().total;
    assert_eq!(run.attempted, warm.attempted);
    assert_eq!(run.failed + run.abandoned, 0);
    // A debug build also serializes every message once, to check its
    // analytic length: one allocation per message sent, all of them
    // delivered on this loss-free star.
    let checks = if cfg!(debug_assertions) {
        run.monitor.sip_total
    } else {
        0
    };
    let per_call = (total - checks) as f64 / run.attempted as f64;
    eprintln!(
        "signalling-only cell: {per_call:.3} allocations per attempted call ({} calls)",
        run.attempted
    );
    assert!(
        per_call <= CELL_BUDGET,
        "a signalling-only call allocates {per_call} times (budget {CELL_BUDGET}) — a \
         per-frame or per-call allocation crept back into the world"
    );
}
