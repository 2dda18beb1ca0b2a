//! One media stream end-to-end: microphone → G.711 → RTP → network →
//! jitter/loss measurement → E-model MOS.
//!
//! Everything the paper's media plane does, on a single stream, with the
//! intermediate numbers printed.
//!
//! ```sh
//! cargo run --release --example codec_walkthrough
//! ```

use des::rng::Distributions;
use des::StreamRng;
use rtpcore::g711::{ulaw_decode, ulaw_encode};
use rtpcore::jitter::{JitterEstimator, SequenceTracker};
use rtpcore::packet::RtpPacket;
use rtpcore::packetizer::{Law, Packetizer, VoiceSource, SAMPLES_PER_FRAME};
use voiceq::{CodecProfile, EModelInputs};

fn main() {
    // --- 1. The codec on its own ------------------------------------------
    let mut voice = VoiceSource::new(42);
    let samples = voice.next_samples(8000); // one second of "speech"
    let encoded: Vec<u8> = samples.iter().map(|&s| ulaw_encode(s)).collect();
    let decoded: Vec<i16> = encoded.iter().map(|&c| ulaw_decode(c)).collect();
    let sig: f64 = samples.iter().map(|&s| f64::from(s).powi(2)).sum();
    let err: f64 = samples
        .iter()
        .zip(&decoded)
        .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
        .sum();
    println!("G.711 mu-law on 1 s of speech-band signal:");
    println!("  rate: 8000 samples/s x 8 bits = 64 kbit/s");
    println!(
        "  SQNR: {:.1} dB (toll quality is ~35-38 dB)",
        10.0 * (sig / err).log10()
    );

    // --- 2. Packetization ---------------------------------------------------
    let mut packetizer = Packetizer::new(0xC0FFEE, Law::Mu, 100, 0);
    let mut voice = VoiceSource::new(42);
    let n_packets = 500usize; // 10 seconds
    let mut wire: Vec<Vec<u8>> = Vec::with_capacity(n_packets);
    for _ in 0..n_packets {
        let frame = voice.next_samples(SAMPLES_PER_FRAME);
        wire.push(packetizer.packetize(&frame).encode());
    }
    println!("\nRTP packetization (20 ms ptime):");
    println!(
        "  {} packets, {} bytes each (12 RTP + 160 payload)",
        wire.len(),
        wire[0].len()
    );
    println!("  => 50 packets/s/direction; ~100/s per call as the paper counts");

    // --- 3. A jittery, lossy network ----------------------------------------
    let mut rng = StreamRng::seed_from_u64(7);
    let mut tracker = SequenceTracker::new();
    let mut jitter = JitterEstimator::new(8000.0);
    let base_delay = 0.030; // 30 ms one way
    let mut received = 0u64;
    for (i, bytes) in wire.iter().enumerate() {
        if rng.coin(0.02) {
            continue; // 2% random loss
        }
        let pkt = RtpPacket::decode(bytes).expect("valid RTP");
        let jitter_ms = rng.uniform_f64(-0.004, 0.004);
        let arrival = i as f64 * 0.020 + base_delay + jitter_ms;
        tracker.record(pkt.header.sequence);
        jitter.record(arrival, pkt.header.timestamp);
        received += 1;
    }
    println!("\nafter the network (30 ms delay, ±4 ms wobble, 2% loss):");
    println!("  received : {received}/{n_packets}");
    println!("  loss     : {:.2}%", tracker.loss_fraction() * 100.0);
    println!(
        "  jitter   : {:.2} ms (RFC 3550 estimator)",
        jitter.jitter_ms()
    );

    // --- 4. What a listener would score --------------------------------------
    let inputs = EModelInputs::measured_g711(
        base_delay * 1000.0,
        jitter.jitter_ms(),
        tracker.loss_fraction(),
        1.0,
    );
    let r = voiceq::r_factor(&inputs);
    println!("\nE-model verdict:");
    println!("  R-factor : {r:.1}");
    println!("  MOS      : {:.2}", voiceq::r_to_mos(r));
    println!("  category : {:?}", voiceq::categorize(r));

    // Same impairments, no packet-loss concealment:
    let no_plc = EModelInputs {
        codec: CodecProfile::g711_no_plc(),
        ..inputs
    };
    println!(
        "  (without PLC the same stream scores {:.2})",
        voiceq::estimate_mos(&no_plc)
    );
}
