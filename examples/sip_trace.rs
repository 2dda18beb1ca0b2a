//! Print the full SIP ladder of one call — the paper's Fig. 2, live.
//!
//! Wires a UAC, the PBX B2BUA and a UAS directly together (no network, no
//! clock) and relays messages until the call completes, printing each hop.
//!
//! ```sh
//! cargo run --example sip_trace
//! ```

use des::{SimDuration, SimTime};
use loadgen::{Uac, UacEvent, Uas, UasEvent};
use netsim::NodeId;
use pbx_sim::{Directory, Disposition, Pbx, PbxAction, PbxConfig};
use sipcore::SipMessage;
use std::collections::VecDeque;

const CLIENT: NodeId = NodeId(1);
const SERVER: NodeId = NodeId(2);
const PBX: NodeId = NodeId(3);

fn name(n: NodeId) -> &'static str {
    match n {
        CLIENT => "SIPp-client",
        SERVER => "SIPp-server",
        PBX => "Asterisk",
        _ => "?",
    }
}

fn describe(msg: &SipMessage) -> String {
    match msg {
        SipMessage::Request(r) => format!("{} {}", r.method, r.uri),
        SipMessage::Response(r) => r.status.to_string(),
    }
}

fn main() {
    let mut pbx = Pbx::new(
        PbxConfig::evaluation_default(PBX),
        Directory::with_subscribers(1000, 100),
    );
    let mut uac = Uac::new(CLIENT, PBX, "pbx.unb.br");
    let mut uas = Uas::new(SERVER, SimDuration::ZERO);

    // (from, to, message) queue standing in for the wire.
    let mut wire: VecDeque<(NodeId, NodeId, SipMessage)> = VecDeque::new();
    let mut ladder = 0u32;
    let now = SimTime::ZERO;

    // Register both parties (not part of the Fig. 2 ladder).
    for (agent_node, uid) in [(CLIENT, "1001"), (SERVER, "1002")] {
        let mut scratch = Uac::new(agent_node, PBX, "pbx.unb.br");
        for ev in scratch.register(uid) {
            if let UacEvent::SendSip { to, msg } = ev {
                let replies = pbx.handle_sip(now, agent_node, msg);
                for act in replies {
                    if let PbxAction::SendSip { .. } = act {
                        let _ = to; // 200 OK absorbed silently
                    }
                }
            }
        }
    }
    println!("(1001 and 1002 registered)\n");
    println!("{:<14}{:^30}{:<14}", "", "the Fig. 2 ladder", "");

    // Place the call and pump the wire until quiescent.
    let (call_id, events) = uac.start_call(now, "1001", "1002", SimDuration::from_secs(120));
    enqueue_uac(&mut wire, events);
    let mut hangup_sent = false;

    while let Some((from, to, msg)) = wire.pop_front() {
        ladder += 1;
        println!(
            "{ladder:>3}. {:<12} --> {:<12} {}",
            name(from),
            name(to),
            describe(&msg)
        );
        match to {
            PBX => {
                for act in pbx.handle_sip(now, from, msg) {
                    if let PbxAction::SendSip { to, msg } = act {
                        wire.push_back((PBX, to, msg));
                    }
                }
            }
            CLIENT => {
                for ev in uac.on_sip(now, msg) {
                    match ev {
                        UacEvent::SendSip { to, msg } => wire.push_back((CLIENT, to, msg)),
                        UacEvent::Answered { .. } => {
                            println!("      [media flows: G.711, 50 pkt/s each way, via Asterisk]");
                        }
                        UacEvent::Ended { outcome, .. } => {
                            println!("      [call ended: {outcome:?}]");
                        }
                        UacEvent::RetryAfter { delay, .. } => {
                            println!("      [shed with 503: retry after {delay:?}]");
                        }
                        UacEvent::PacerWake { at } => {
                            println!("      [pacer deferred next INVITE until {at:?}]");
                        }
                    }
                }
            }
            SERVER => {
                for ev in uas.on_sip(now, from, msg) {
                    match ev {
                        UasEvent::SendSip { to, msg } => wire.push_back((SERVER, to, msg)),
                        UasEvent::MediaReady { .. } | UasEvent::Ended { .. } => {}
                        UasEvent::AnswerDue { .. } => unreachable!("pickup delay is zero"),
                    }
                }
            }
            _ => {}
        }
        // Once the dialog is established and the wire drains, hang up.
        if wire.is_empty() && !hangup_sent {
            hangup_sent = true;
            println!("      [120 s conversation elapses]");
            enqueue_uac(&mut wire, uac.hangup(now, &call_id));
        }
    }

    println!(
        "\ntotal SIP messages on the wire: {ladder} (paper: 9 to set up + 4 to tear down = 13)"
    );
    println!(
        "CDR: {} filed, {} answered",
        pbx.cdr.total(),
        pbx.cdr.count(Disposition::Answered)
    );
}

fn enqueue_uac(wire: &mut VecDeque<(NodeId, NodeId, SipMessage)>, events: Vec<UacEvent>) {
    for ev in events {
        if let UacEvent::SendSip { to, msg } = ev {
            wire.push_back((CLIENT, to, msg));
        }
    }
}
