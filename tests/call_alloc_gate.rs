//! Integration: allocation budget of one admitted call.
//!
//! `tests/sip_zero_alloc.rs` gates the off-path wire pipeline and
//! `tests/register_alloc_gate.rs` the REGISTER handshake; this is the
//! gate for what the sweeps spend their time on — the 13-message ladder
//! of one admitted call through the real `Uac`, `Pbx` and `Uas`
//! (`Uac::start_call` … the BYE's 200). With one heap `String` per header
//! it cost 215 allocations here (≈ 103 PBX + 64 UAC + 35 UAS by the
//! benchmark's split); with arena headers and in-place builders it cost
//! 71: two per message's headers, two per Request-URI, the event `Vec`s,
//! and the per-call keys, tags and records the engines must own. It costs
//! 51 now that Request-URIs are shared and the PBX tallies its CDRs; the
//! tight budget is `tests/signalling_alloc_budget.rs`'s, this the floor.

use pbx_sim::{Disposition, PbxConfig};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{start_counting, stop_counting};

#[path = "common/ladder.rs"]
mod ladder;
use ladder::{Ladder, PBX_NODE};

/// Allocations per admitted ladder across the three engines (51 measured).
const BUDGET: f64 = 76.0;

#[test]
fn admitted_call_allocations_are_bounded() {
    let mut l = Ladder::new(PbxConfig::evaluation_default(PBX_NODE));
    for _ in 0..50 {
        l.place();
        l.hang_up();
    }
    let delivered = l.delivered;

    start_counting(&[]);
    for _ in 0..1000 {
        l.place();
        l.hang_up();
    }
    let total = stop_counting().total;

    assert_eq!(l.delivered - delivered, 13_000, "1 000 full ladders");
    assert_eq!(l.pbx.cdr.count(Disposition::Answered), 1050);
    let per_call = total as f64 / 1000.0;
    eprintln!("admitted call: {per_call} allocations per 13-message ladder");
    assert!(
        per_call <= BUDGET,
        "an admitted call allocates {per_call} times (budget {BUDGET}, 215 \
         before headers moved into one arena) — a per-header or per-message \
         allocation crept back into a ladder builder"
    );
}
