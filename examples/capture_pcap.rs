//! Write a Wireshark-openable `.pcap` of a short experiment — the paper's
//! packet-counting methodology, reproducible byte-for-byte.
//!
//! ```sh
//! cargo run --release --example capture_pcap
//! wireshark /tmp/asterisk-capacity-demo.pcap   # if you have it
//! ```

use capacity::experiment::{run_world, EmpiricalConfig};
use des::SimTime;
use loadgen::HoldingDist;
use vmon::pcap::read_pcap;

fn main() {
    let mut cfg = EmpiricalConfig::smoke(2015);
    cfg.erlangs = 1.0;
    cfg.holding = HoldingDist::Fixed(5.0);
    cfg.placement_window_s = 15.0;
    cfg.channels = 4;
    cfg.user_pool = 4;
    cfg.capture_traffic = true;

    let sim = run_world(cfg, SimTime::from_secs(30));
    let world = sim.world;
    let capture = world.capture.expect("capture was enabled");
    println!(
        "captured {} frames over 30 simulated seconds",
        capture.len()
    );

    let path = std::env::temp_dir().join("asterisk-capacity-demo.pcap");
    capture.write_to(&path).expect("writable temp dir");
    println!("wrote {}", path.display());

    // Prove the file parses: read it back and summarise.
    let bytes = std::fs::read(&path).expect("readable");
    let packets = read_pcap(&bytes).expect("valid pcap");
    let sip = packets.iter().filter(|p| p.dst_port == 5060).count();
    let rtp = packets.len() - sip;
    println!("read back {} packets: {sip} SIP, {rtp} RTP", packets.len());

    // The first SIP packet should be a REGISTER in valid wire format.
    let first_sip = packets
        .iter()
        .find(|p| p.dst_port == 5060)
        .expect("some SIP");
    let msg = sipcore::parse_message(&first_sip.payload).expect("parses as SIP");
    println!(
        "first SIP packet: {}",
        match &msg {
            sipcore::SipMessage::Request(r) => format!("{} {}", r.method, r.uri),
            sipcore::SipMessage::Response(r) => r.status.to_string(),
        }
    );
}
