//! A busy-hour trace through the full empirical stack.
//!
//! Reproduces the paper's §IV back-of-envelope — "3000 calls in the busy
//! hour, 3-minute average duration, 165 channels ⇒ 1.8% blocking" — but
//! *empirically*: real SIP ladders through the B2BUA with Poisson arrivals
//! and exponential holding times, then compares against Erlang-B.
//!
//! (Media is off: blocking is a pure signalling/occupancy phenomenon, and
//! this keeps the hour-long trace fast. See `quickstart.rs` for a run with
//! the full per-packet media plane.)
//!
//! ```sh
//! cargo run --release --example busy_hour
//! ```

use asterisk_capacity::prelude::*;
use capacity::experiment::MediaMode;
use loadgen::HoldingDist;

fn main() {
    // 3000 calls/hour of mean 180 s = 150 Erlangs.
    let offered = Erlangs::from_calls(3000.0, 180.0);
    println!("busy hour: 3000 calls, mean 3 min -> {offered}");

    let cfg = EmpiricalConfig {
        erlangs: offered.value(),
        servers: 1,
        // The textbook Erlang-B assumption; the paper's fixed 120 s is
        // exercised by Table I. Erlang-B is insensitive to the choice
        // (`tests/empirical_vs_analytic.rs::holding_time_insensitivity`).
        holding: HoldingDist::Exponential(180.0),
        placement_window_s: 3600.0,
        channels: 165,
        media: MediaMode::Off,
        pickup_delay: des::SimDuration::ZERO,
        link_loss_probability: 0.0,
        silence_suppression: false,
        capture_traffic: false,
        user_pool: 200,
        max_calls_per_user: None,
        faults: faults::FaultSchedule::new(),
        overload_law: None,
        retry: None,
        population: None,
        seed: 60 * 60,
    };
    let r = EmpiricalRunner::run(cfg);

    println!("  attempted        : {}", r.attempted);
    println!("  completed        : {}", r.completed);
    println!("  blocked          : {}", r.blocked);
    println!("  observed blocking: {:.2}%", r.observed_pb * 100.0);
    println!(
        "  Erlang-B predicts: {:.2}%  (paper quotes 1.8%)",
        r.analytic_pb * 100.0
    );
    println!("  peak channels    : {} of 165", r.peak_channels);
    println!(
        "  carried traffic  : {:.1} E offered {:.1} E",
        r.carried_erlangs, r.erlangs
    );
    println!("  SIP messages     : {}", r.monitor.sip_total);
    println!(
        "  sim horizon      : {:.0} s, {} events",
        r.sim_seconds, r.events_processed
    );

    let agreement = (r.observed_pb - r.analytic_pb).abs();
    println!(
        "\nempirical vs analytic gap: {:.2} pp — the Erlang-B model {}",
        agreement * 100.0,
        if agreement < 0.01 {
            "characterises this PBX well"
        } else {
            "needs a second look"
        }
    );
}
