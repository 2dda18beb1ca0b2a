//! Micro-drivers for the remaining layers: `sipcore` on the default
//! (structured cut-through) path, `overload`, `teletraffic`, and the
//! population engine and churn wheel of `loadgen`.

use super::{ops, Shape, UnitCosts};
use crate::trace::Tracer;
use capacity::campaign::CampaignConfig;
use des::{SimDuration, SimTime, StreamRng};
use loadgen::{ChurnWheel, DiurnalProfile, PopulationArrivals, PopulationConfig};
use overload::{Feedback, LoadSignals};
use sipcore::auth::{DigestChallenge, DigestCredentials};
use sipcore::message::format_via;
use sipcore::sdp::SdpCodec;
use sipcore::{
    AtomTable, Body, HeaderName, Method, Request, SdpBody, SdpSummary, SipUri, StatusCode,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use teletraffic::Erlangs;

pub(super) fn replay(tracer: &mut Tracer, shape: &Shape, costs: &mut UnitCosts) {
    sipcore_default_path(tracer, costs);
    overload_laws(tracer, shape, costs);
    teletraffic_lookups(tracer, costs);
    population(tracer, shape, costs);
}

fn sipcore_default_path(tracer: &mut Tracer, costs: &mut UnitCosts) {
    // Build: an INVITE with the headers the UAC sets plus a structured
    // SDP offer, its 100 Trying, and both analytic wire lengths — what a
    // default-path hop does instead of serializing.
    let (origin, host): (Arc<str>, Arc<str>) = (Arc::from("1001"), Arc::from("sipp-client"));
    let pairs = ops(20_000);
    let allocs = costs.time(tracer, "sipcore.build_ns_per_msg", pairs * 2, || {
        for serial in 0..pairs {
            let sdp = SdpBody::new(
                Arc::clone(&origin),
                Arc::clone(&host),
                20_000,
                SdpCodec::Pcmu,
            );
            let invite = Request::new(Method::Invite, SipUri::new("1501", "pbx.unb.br"))
                .header(
                    HeaderName::Via,
                    format_via("sipp-client", 5060, "z9hG4bKinv7"),
                )
                .header(
                    HeaderName::From,
                    format!("<sip:1001@pbx.unb.br>;tag=uac{serial}"),
                )
                .header(HeaderName::To, "<sip:1501@pbx.unb.br>")
                .header(HeaderName::CallId, format!("uac-0-{serial}"))
                .header(HeaderName::CSeq, "1 INVITE")
                .header(HeaderName::MaxForwards, "70")
                .header(HeaderName::UserAgent, "loadgen-uac (SIPp-compatible)")
                .with_sdp(sdp);
            let trying = invite.make_response(StatusCode::TRYING);
            black_box(invite.wire_len() + trying.wire_len());
        }
    });
    costs.record_exact("sipcore.build_allocs_per_msg", allocs);

    // Digest: the client's answer to a challenge and the server's check
    // of it (six MD5s), as in REGISTER → 401 → REGISTER.
    let challenge = DigestChallenge {
        realm: "pbx.unb.br".to_owned(),
        nonce: "nonce-0123456789abcdef0123456789abcdef".to_owned(),
    };
    let auths = ops(5_000);
    costs.time(tracer, "sipcore.digest_ns_per_auth", auths, || {
        for _ in 0..auths {
            let creds = DigestCredentials::answer(
                &challenge,
                "1000042",
                "pw-1000042",
                "REGISTER",
                "sip:pbx.unb.br",
            );
            assert!(creds.verify("pw-1000042", "REGISTER", &challenge.nonce));
        }
    });

    // SDP: summarise an offer through the interner and write it back
    // out, the PBX's per-call media negotiation.
    let offer = Body::Sdp(SdpBody::new(origin, host, 20_000, SdpCodec::Pcmu));
    let mut atoms = AtomTable::new();
    let mut out = Vec::with_capacity(256);
    let bodies = ops(50_000);
    costs.time(tracer, "sipcore.sdp_ns_per_body", bodies, || {
        for _ in 0..bodies {
            let summary = SdpSummary::of_body(&offer, &mut atoms).expect("a valid offer");
            out.clear();
            summary.write_sdp(&atoms, &mut out);
            black_box(out.len());
        }
    });

    // Interner: intern, look up and release Call-ID-shaped strings.
    let names: Vec<String> = (0..1000).map(|i| format!("uac-0-{i}")).collect();
    let mut atoms = AtomTable::new();
    let rounds = ops(100_000) / names.len() as u64;
    costs.time(
        tracer,
        "sipcore.intern_ns_per_atom",
        rounds * names.len() as u64,
        || {
            for _ in 0..rounds {
                for name in &names {
                    let atom = atoms.intern(name);
                    assert_eq!(atoms.lookup(name), Some(atom));
                    atoms.release(atom);
                }
            }
        },
    );
}

fn overload_laws(tracer: &mut Tracer, shape: &Shape, costs: &mut UnitCosts) {
    // The campaign's own law table, sized as the campaign sizes it.
    let cc = CampaignConfig::evaluation_default(shape.seed);
    let mut laws: Vec<_> = cc
        .algorithms(crate::workloads::campaign_engineered_erlangs(&cc))
        .into_iter()
        .filter_map(|(_, law)| law.map(overload::ControlLaw::build))
        .collect();
    // One number for the layer: every law sees the same sweep of the
    // load up and down across its thresholds, and the batch is all five.
    let per_law = ops(10_000);
    costs.time(
        tracer,
        "overload.on_invite_ns",
        per_law * laws.len() as u64,
        || {
            for law in &mut laws {
                for i in 0..per_law {
                    let load = (i % 200) as f64 / 100.0;
                    let occupancy = if load > 1.0 { 2.0 - load } else { load };
                    let signals = LoadSignals {
                        occupancy,
                        cpu: occupancy * 0.8,
                        free_channels: ((1.0 - occupancy) * f64::from(cc.channels)) as u32,
                        link_loss: 0.001,
                        link_jitter_ms: 1.0,
                        link_delay_ms: 0.5,
                    };
                    black_box(law.on_invite(black_box(&signals)));
                }
            }
        },
    );

    let values = ops(50_000);
    costs.time(tracer, "overload.feedback_ns", values, || {
        for i in 0..values {
            let sent = Feedback::Rate(1.0 + (i % 97) as f64).to_header_value();
            black_box(Feedback::parse(&sent).expect("own header value parses"));
        }
    });
}

fn teletraffic_lookups(tracer: &mut Tracer, costs: &mut UnitCosts) {
    let n = ops(20_000);
    costs.time(tracer, "teletraffic.erlang_b_ns", n, || {
        for i in 0..n {
            let a = Erlangs(150.0 + (i % 16) as f64 * 1e-3);
            black_box(teletraffic::blocking_probability(black_box(a), 165));
        }
    });
    let n = ops(2_000);
    costs.time(tracer, "teletraffic.load_for_ns", n, || {
        for i in 0..n {
            let target = 0.01 + (i % 16) as f64 * 1e-5;
            black_box(teletraffic::load_for(165, black_box(target)).expect("a reachable target"));
        }
    });
    costs.time(tracer, "teletraffic.engset_large_ns", n, || {
        for i in 0..n {
            let a = Erlangs(150.0 + (i % 16) as f64 * 1e-3);
            black_box(
                teletraffic::engset::engset_blocking_for_load_large(1_000_000, 165, a)
                    .expect("a valid load"),
            );
        }
    });
}

/// The 10⁶-subscriber engine with about 150 calls up: draw the next
/// arrival, claim it, and end the oldest call.
fn population(tracer: &mut Tracer, shape: &Shape, costs: &mut UnitCosts) {
    let mut config = PopulationConfig::for_offered_load(1_000_000, 150.0, 120.0);
    config.profile = DiurnalProfile::campus_day_compressed(180.0);
    let mut engine = PopulationArrivals::new(&config, shape.seed);
    let mut rng = StreamRng::seed_from_u64(shape.seed);
    let mut now = SimTime::ZERO;
    let mut busy = VecDeque::new();
    let arrivals = ops(20_000);
    costs.time(tracer, "loadgen.pop_arrival_ns", arrivals, || {
        for _ in 0..arrivals {
            let arrival = engine
                .next_arrival(now, &mut rng)
                .expect("subscribers are idle");
            now = arrival.at;
            busy.push_back(engine.claim(arrival.tag).expect("the draw is live"));
            if busy.len() > 150 {
                engine.call_ended(busy.pop_front().expect("non-empty"));
            }
        }
    });

    let wheel = ChurnWheel::new(
        config.subscribers,
        SimDuration::from_secs_f64(config.reg_expiry_s),
        config.churn_buckets,
    );
    let ticks = ops(200_000);
    costs.time(tracer, "loadgen.churn_due_ns", ticks, || {
        for tick in 0..ticks {
            black_box(wheel.due_range(black_box(tick)));
        }
    });
}
