//! Quickstart: size a PBX analytically, then verify empirically.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use asterisk_capacity::prelude::*;
use capacity::experiment::MediaMode;
use loadgen::HoldingDist;

fn main() {
    // ----- Analytical side (Erlang-B, the paper's Eq. 2) ------------------
    // A campus expects a 3000-call busy hour with 3-minute calls.
    let load = Erlangs::from_calls(3000.0, 180.0);
    println!("busy-hour offered load: {load}");

    // How many channels for 2% blocking?
    let n = erlang_b::channels_for(load, 0.02).expect("solvable");
    println!("channels for 2% blocking: {n}");

    // And what does the paper's 165-channel Asterisk deliver at this load?
    let pb = erlang_b::blocking_probability(load, 165);
    println!(
        "blocking at N=165: {:.2}% (the paper quotes 1.8%)",
        pb * 100.0
    );

    // ----- Empirical side (the simulated testbed) --------------------------
    // Drive a short but real experiment through the full stack: SIPp-style
    // generators, SIP signalling, per-packet G.711 RTP relayed by the
    // B2BUA, passive MOS scoring.
    let cfg = EmpiricalConfig {
        erlangs: 30.0,
        servers: 1,
        holding: HoldingDist::Fixed(30.0),
        placement_window_s: 60.0,
        channels: 36,
        media: MediaMode::PerPacket,
        pickup_delay: des::SimDuration::ZERO,
        link_loss_probability: 0.0,
        silence_suppression: false,
        capture_traffic: false,
        user_pool: 50,
        max_calls_per_user: None,
        faults: faults::FaultSchedule::new(),
        overload_law: None,
        retry: None,
        population: None,
        seed: 2015,
    };
    let result = EmpiricalRunner::run(cfg);
    println!();
    println!("empirical run @ {} Erlangs:", result.erlangs);
    println!("  calls attempted     : {}", result.attempted);
    println!("  calls completed     : {}", result.completed);
    println!(
        "  blocked             : {} ({:.1}%)",
        result.blocked,
        result.observed_pb * 100.0
    );
    println!("  Erlang-B prediction : {:.1}%", result.analytic_pb * 100.0);
    println!("  peak channels used  : {}", result.peak_channels);
    println!("  carried traffic     : {:.1} E", result.carried_erlangs);
    println!(
        "  PBX CPU             : mean {:.1}%, band {:.1}-{:.1}%",
        result.cpu_mean * 100.0,
        result.cpu_band.0 * 100.0,
        result.cpu_band.1 * 100.0
    );
    println!("  RTP packets observed: {}", result.monitor.rtp_packets);
    println!("  mean MOS            : {:.2}", result.monitor.mos_mean);
    println!("  DES events          : {}", result.events_processed);
}
