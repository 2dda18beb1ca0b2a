//! Integration: allocation regression for the interned signalling path.
//!
//! The zero-allocation signalling design makes four claims about what an
//! established call's steady-state hop costs on the interned path: wire
//! bytes travel as `Arc<[u8]>` (refcount bump per hop), routing fields
//! are read through a borrowed [`sipcore::WireMessage`] view (no decode,
//! no `String`), keys resolve through a warm [`sipcore::AtomTable`]
//! (hash lookup, no intern), and serialization writes into pooled or
//! reused buffers (no fresh `Vec`/`String`). A counting global allocator
//! makes the combined claim falsifiable: one simulated hop of all four
//! stages, repeated a thousand times after warmup, must perform zero
//! heap allocations.

use std::fmt::Write as _;
use std::sync::Arc;

use sipcore::message::{format_via, write_via_args};
use sipcore::sdp::SdpCodec;
use sipcore::{
    AtomTable, Body, BufferPool, HeaderName, Method, Request, SdpBody, SdpSummary, SdpView,
    SipMessage, SipUri, WireMessage,
};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{start_counting, stop_counting};

/// An in-dialog BYE — the message an established call's teardown hop
/// carries; mid-call signalling is shaped identically (re-INVITE, ACK).
fn bye() -> SipMessage {
    Request::new(
        Method::Bye,
        SipUri::parse("sip:1501@pbx.example:5060").unwrap(),
    )
    .header(HeaderName::Via, format_via("10.0.0.2", 5060, "z9hG4bKhop7"))
    .header(HeaderName::From, "<sip:1001@pbx.example>;tag=ta")
    .header(HeaderName::To, "<sip:1501@pbx.example>;tag=tb")
    .header(HeaderName::CallId, "call-7@10.0.0.2")
    .header(HeaderName::CSeq, "2 BYE")
    .into()
}

/// All checks live in one test function: the counter is process-global
/// and must not see a concurrent sibling test.
#[test]
fn established_call_signalling_hop_allocates_nothing() {
    let msg = bye();
    let wire: Arc<[u8]> = msg.to_wire().into();

    // Warm state a running stack holds: the interner has seen this
    // call's keys, the pool has a released buffer of the right capacity,
    // and the Via scratch String has grown to its working size.
    let mut atoms = AtomTable::new();
    let call_atom = atoms.intern("call-7@10.0.0.2");
    let branch_atom = atoms.intern("z9hG4bKhop7");
    let mut pool = BufferPool::default();
    let warm = pool.wire_of(&msg);
    pool.release(warm);
    let mut via_scratch = String::with_capacity(64);

    // One warmup hop so lazily grown capacity (if any) exists before
    // counting starts.
    for _ in 0..3 {
        let bytes = wire.clone();
        let view = WireMessage::parse(&bytes).expect("valid wire");
        assert_eq!(atoms.lookup(view.call_id().unwrap()), Some(call_atom));
        let buf = pool.wire_of(&msg);
        pool.release(buf);
        via_scratch.clear();
        write_via_args(
            &mut via_scratch,
            "pbx.example",
            5060,
            format_args!("z9hG4bKpbx{}", 41),
        );
    }

    start_counting(&[]);
    for i in 0..1000u32 {
        // Hop stage 1: the frame arrives — shared bytes, refcount bump.
        let bytes = wire.clone();

        // Hop stage 2: route on the borrowed wire view — no decode.
        let view = WireMessage::parse(&bytes).expect("valid wire");
        assert!(view.is_request());
        assert_eq!(view.method_token(), Some("BYE"));
        assert_eq!(view.cseq(), Some((2, "BYE")));

        // Hop stage 3: resolve keys through the warm interner.
        assert_eq!(atoms.lookup(view.call_id().unwrap()), Some(call_atom));
        assert_eq!(
            atoms.lookup(view.top_via_branch().unwrap()),
            Some(branch_atom)
        );

        // Hop stage 4a: rebuild the forwarded Via in the reused scratch.
        via_scratch.clear();
        write_via_args(
            &mut via_scratch,
            "pbx.example",
            5060,
            format_args!("z9hG4bKpbx{}", i % 10),
        );
        std::hint::black_box(&via_scratch);

        // Hop stage 4b: serialize the outgoing message into the pooled
        // buffer and return it once the bytes are "on the wire".
        let buf = pool.wire_of(&msg);
        std::hint::black_box(&buf);
        pool.release(buf);
    }
    let total = stop_counting().total;

    assert_eq!(
        total, 0,
        "steady-state interned signalling hop allocated {total} times \
         in 1000 hops — an allocation crept back into the hot path"
    );

    // The pool really served every hop from its free list (1 cold + 3
    // warmup + 1000 counted acquires, all but the first reused).
    let (acquired, reused) = pool.stats();
    assert_eq!(acquired, 1004);
    assert_eq!(reused, 1003);

    // The reference behaviour the hop above replaces: an eager parse
    // plus per-message buffers allocates every time. Counted here so the
    // zero above stays meaningful — the harness demonstrably counts this
    // exact kind of work.
    start_counting(&[]);
    let parsed = sipcore::parse_message(&wire).expect("round-trip");
    let mut via = String::new();
    let _ = write!(via, "SIP/2.0/UDP pbx.example:5060;branch=z9hG4bKx");
    let rewire = parsed.to_wire();
    let eager_total = stop_counting().total;
    std::hint::black_box((parsed, via, rewire));
    assert!(
        eager_total > 0,
        "the counting harness failed to observe eager-path allocations"
    );

    // ---- SDP-bearing call setup (INVITE / 200 / ACK) -------------------
    // The same zero claim for the media-negotiation hops: offers are
    // structured bodies over shared endpoint strings (refcount bumps),
    // answers are read through a borrowed `SdpView` over wire bytes,
    // dialog state is a four-word `SdpSummary` through a warm interner,
    // and caller-facing bodies serialize into pooled buffers. Fresh pool
    // and interner: the pool-stats assertions above must stay untouched.
    let origin: Arc<str> = Arc::from("1001");
    let host: Arc<str> = Arc::from("10.0.0.1");
    let mut summary_atoms = AtomTable::new();
    let mut sdp_pool = BufferPool::default();
    // The 200's answer body as the wire delivers it on the interned path
    // after a reference-form hop: raw bytes.
    let answer_bytes =
        Body::Bytes(Body::from(SdpBody::new("1501", "10.0.0.2", 30_000, SdpCodec::Pcmu)).to_vec());
    for _ in 0..3 {
        let offer = SdpBody::new(Arc::clone(&origin), Arc::clone(&host), 6000, SdpCodec::Pcmu);
        std::hint::black_box(offer.len());
        let s = SdpSummary::of_body(&answer_bytes, &mut summary_atoms).expect("valid answer");
        let buf = s.to_body_into(&summary_atoms, &mut sdp_pool);
        sdp_pool.release(buf);
    }

    start_counting(&[]);
    for _ in 0..1000u32 {
        // INVITE leg: build the offer — structured body, shared strings.
        let offer = SdpBody::new(Arc::clone(&origin), Arc::clone(&host), 6000, SdpCodec::Pcmu);
        std::hint::black_box(offer.len());

        // 200 leg: read the answer through the borrowed view — no decode.
        let view = SdpView::parse(answer_bytes.as_bytes().unwrap()).expect("non-empty");
        assert_eq!(view.audio_port(), Some(30_000));
        assert_eq!(view.codec(), Some(SdpCodec::Pcmu));

        // Dialog bookkeeping: summarize through the warm interner.
        let s = SdpSummary::of_body(&answer_bytes, &mut summary_atoms).expect("valid answer");
        assert_eq!(s.audio_port, 30_000);

        // Relayed answer: serialize into the pooled buffer and release
        // once the bytes are "on the wire".
        let buf = s.to_body_into(&summary_atoms, &mut sdp_pool);
        std::hint::black_box(&buf);
        sdp_pool.release(buf);
    }
    let sdp_total = stop_counting().total;
    assert_eq!(
        sdp_total, 0,
        "steady-state SDP negotiation hop allocated {sdp_total} times \
         in 1000 hops — an allocation crept into the SDP fast path"
    );
}
