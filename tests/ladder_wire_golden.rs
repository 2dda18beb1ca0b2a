//! Integration: the exact bytes the three engines put on the wire.
//!
//! `RunResult::digest` folds call and message *counts* and frame
//! *lengths*; a builder that swaps two characters, or drops a `;` while
//! keeping every length, moves none of them. This test pins the text
//! itself: FNV-1a over the concatenated `to_wire()` bytes of every message
//! of six small scenarios, driven through a real `Uac` ↔ `Pbx` ↔ `Uas`
//! wired back to back. The literals were printed at the commit *before*
//! the header arena and the in-place builders landed (PR 17), so they are
//! what `format!` used to produce.
//!
//! Every scenario runs twice: once handing each engine the message its
//! peer built, once handing it `parse_message(to_wire())` of that message
//! (SDP body rebuilt as an `SdpBody`). Both must record the
//! same bytes and leave the same PBX counters — the engines cannot tell a
//! parsed message from a built one, and a message survives the wire
//! byte for byte.
//!
//! The hysteresis law advertises no feedback, so `X-Overload-Control` (on
//! the 100 Trying and on the 503) is pinned by a sixth scenario under the
//! rate-based law.

use loadgen::{Pacer, RetryPolicy};
use overload::ControlLaw;
use pbx_sim::{PbxConfig, PbxStats};

#[path = "common/ladder.rs"]
mod ladder;
use ladder::{Ladder, CALLER, PBX_NODE};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one scenario leaves behind: `(hash, messages)` of the recorded
/// wire bytes, and the PBX's counters.
type Outcome = ((u64, u64), PbxStats);

/// The outcome of a finished scenario (and a readable dump on request).
fn recorded(ladder: &Ladder) -> Outcome {
    let wire = ladder.wire.as_deref().expect("recording");
    if std::env::var_os("LADDER_WIRE_DUMP").is_some() {
        eprintln!("{}", String::from_utf8_lossy(wire));
    }
    ((fnv1a(wire), ladder.delivered), ladder.pbx.stats())
}

/// The three engines around a PBX with `channels` channels under `law`.
fn ladder(channels: u32, law: Option<ControlLaw>, reparse: bool) -> Ladder {
    let mut config = PbxConfig::evaluation_default(PBX_NODE);
    config.channels = channels;
    config.overload_law = law;
    let mut ladder = Ladder::new(config);
    ladder.reparse = reparse;
    ladder
}

/// One call shed with 503 while another holds the only channel, then
/// retried once the channel is free: admitted ladder, INVITE/503/ACK,
/// teardown, the retry's full ladder, its teardown.
fn shed_then_retry(law: ControlLaw, pacer: Option<Pacer>, reparse: bool) -> Outcome {
    let mut l = ladder(1, Some(law), reparse);
    l.uac.retry_policy = Some(RetryPolicy::default());
    l.uac.pacer = pacer;
    l.record();
    l.place();
    l.place();
    assert_eq!(l.pbx.stats().calls_shed, 1, "the second INVITE is shed");
    assert_eq!(l.retry_due.len(), 1, "and the UAC will retry it");
    l.hang_up();
    l.retry();
    l.hang_up();
    assert_eq!(l.pbx.stats().calls_shed, 1, "the retry is admitted");
    recorded(&l)
}

/// The six scenarios, each engine handed its peer's message as built
/// (`reparse` false) or as parsed back from the wire (true).
fn scenarios(reparse: bool) -> [Outcome; 6] {
    // (a) One admitted call: the paper's 13-message Fig. 2 ladder — the
    // 124th call, so every serial the builders write has three digits.
    let mut l = ladder(165, None, reparse);
    for _ in 0..123 {
        l.place();
        l.hang_up();
    }
    l.delivered = 0;
    l.record();
    l.place();
    l.hang_up();
    let admitted = recorded(&l);

    // (b) No free channel: INVITE / 486 / ACK.
    let mut l = ladder(0, None, reparse);
    l.record();
    l.place();
    let busy = recorded(&l);

    // (c) Hysteresis shed: 503 + Retry-After, then the retry.
    let hysteresis = shed_then_retry(ControlLaw::hysteresis_default(), None, reparse);

    // (c') Rate-based shed: X-Overload-Control on the 100 Trying of the
    // admitted call and beside Retry-After on the 503, then the retry.
    let rate_based = shed_then_retry(
        ControlLaw::rate_based_for(10.0),
        Some(Pacer::rate(11.0)),
        reparse,
    );

    // (d) One `Simple` REGISTER and its 200.
    let mut l = ladder(165, None, reparse);
    l.record();
    let events = l.uac.register(CALLER);
    l.absorb_uac(events);
    l.run();
    let simple_register = recorded(&l);

    // (e) One digest REGISTER → 401 → REGISTER + Authorization → 200.
    let mut l = ladder(165, None, reparse);
    l.record();
    let events = l.uac.register_digest(CALLER);
    l.absorb_uac(events);
    l.run();
    assert_eq!(l.uac.registrations_confirmed, 1);
    let digest_register = recorded(&l);

    [
        admitted,
        busy,
        hysteresis,
        rate_based,
        simple_register,
        digest_register,
    ]
}

#[test]
fn ladder_wire_bytes_match_the_golden_hashes() {
    const NAMES: [&str; 6] = [
        "admitted",
        "busy",
        "hysteresis",
        "rate_based",
        "simple_register",
        "digest_register",
    ];
    let want: [(u64, u64); 6] = [
        (0x6bf3_a6e5_c4c0_b196, 13),
        (0xd3dc_b34e_1a76_ca20, 3),
        (0xfe4c_e451_f7b6_46b3, 29),
        (0x16fe_43ee_4cf8_c0a9, 29),
        (0xd5d5_9a2b_b161_43c0, 2),
        (0x9e66_7f6b_a1e7_2f99, 4),
    ];
    let (built, parsed) = (scenarios(false), scenarios(true));
    for (i, name) in NAMES.into_iter().enumerate() {
        let (hash, msgs) = built[i].0;
        eprintln!("{name}: ({hash:#018x}, {msgs})");
        assert_eq!(
            built[i].0, want[i],
            "{name}: wire bytes (FNV-1a, messages) moved"
        );
        assert_eq!(
            parsed[i], built[i],
            "{name}: the engines told a parsed message from a built one"
        );
    }
}
