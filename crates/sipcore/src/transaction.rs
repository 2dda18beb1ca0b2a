//! SIP transaction state machines (RFC 3261 §17).
//!
//! Transactions pair a request with its responses, absorb retransmissions,
//! and drive retransmission timers over unreliable (UDP) transport — the
//! transport used throughout the paper's testbed. Four machines exist:
//!
//! * INVITE client (§17.1.1) — timers A (retransmit), B (timeout),
//!   D (response absorption);
//! * non-INVITE client (§17.1.2) — timers E, F, K;
//! * INVITE server (§17.2.1) — timers G, H, I;
//! * non-INVITE server (§17.2.2) — timer J.
//!
//! The machines are **pure**: inputs are messages and timer firings, outputs
//! are [`TxAction`] lists. The host (simulated endpoint or PBX) owns actual
//! timer scheduling, so the same code runs under the DES and in unit tests
//! with no clock at all.

use crate::message::{Request, Response};
use core::time::Duration;
use serde::{Deserialize, Serialize};

/// RFC 3261 timer base values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimerConfig {
    /// RTT estimate; retransmission base (default 500 ms).
    pub t1: Duration,
    /// Retransmission cap for non-INVITE (default 4 s).
    pub t2: Duration,
    /// Maximum lifetime of a message in the network (default 5 s).
    pub t4: Duration,
}

impl Default for TimerConfig {
    fn default() -> Self {
        TimerConfig {
            t1: Duration::from_millis(500),
            t2: Duration::from_secs(4),
            t4: Duration::from_secs(5),
        }
    }
}

/// Which logical timer fired (names follow RFC 3261 Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimerKind {
    /// INVITE client retransmission.
    A,
    /// INVITE client timeout.
    B,
    /// INVITE client response absorption after final.
    D,
    /// Non-INVITE client retransmission.
    E,
    /// Non-INVITE client timeout.
    F,
    /// INVITE server response retransmission.
    G,
    /// INVITE server ACK-wait timeout.
    H,
    /// INVITE server confirmed-state absorption.
    I,
    /// Non-INVITE server completed-state absorption.
    J,
    /// Non-INVITE client completed-state absorption.
    K,
}

/// Why a transaction terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxOutcome {
    /// Completed its job normally.
    Normal,
    /// No response / no ACK arrived in time.
    Timeout,
}

/// An instruction emitted by a transaction for its host to carry out.
#[derive(Debug, Clone, PartialEq)]
pub enum TxAction {
    /// Hand this request to the transport (initial send or retransmit).
    TransmitRequest(Request),
    /// Hand this response to the transport.
    TransmitResponse(Response),
    /// Deliver this response up to the transaction user.
    DeliverResponse(Response),
    /// Start (or restart) a timer of this kind after the given delay.
    SetTimer(TimerKind, Duration),
    /// The transaction is finished; the host should drop it.
    Terminated(TxOutcome),
}

// ---------------------------------------------------------------------------
// INVITE client transaction (§17.1.1)
// ---------------------------------------------------------------------------

/// INVITE client transaction states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InviteClientState {
    /// INVITE sent, nothing heard.
    Calling,
    /// Provisional received.
    Proceeding,
    /// Non-2xx final received, absorbing retransmits.
    Completed,
    /// Done.
    Terminated,
}

/// INVITE client transaction.
#[derive(Debug, Clone)]
pub struct InviteClientTx {
    /// Current state.
    pub state: InviteClientState,
    request: Request,
    ack_template: Option<Request>,
    retransmit_interval: Duration,
}

impl InviteClientTx {
    /// Create the transaction and emit the initial send + timers A and B.
    #[must_use]
    pub fn new(request: Request, cfg: TimerConfig) -> (Self, Vec<TxAction>) {
        let tx = InviteClientTx {
            state: InviteClientState::Calling,
            request: request.clone(),
            ack_template: None,
            retransmit_interval: cfg.t1,
        };
        let actions = vec![
            TxAction::TransmitRequest(request),
            TxAction::SetTimer(TimerKind::A, cfg.t1),
            TxAction::SetTimer(TimerKind::B, cfg.t1 * 64),
        ];
        (tx, actions)
    }

    /// A response matching this transaction arrived.
    pub fn on_response(
        &mut self,
        resp: Response,
        ack_builder: impl Fn(&Request, &Response) -> Request,
    ) -> Vec<TxAction> {
        match self.state {
            InviteClientState::Calling | InviteClientState::Proceeding => {
                if resp.status.is_provisional() {
                    self.state = InviteClientState::Proceeding;
                    vec![TxAction::DeliverResponse(resp)]
                } else if resp.status.is_success() {
                    // 2xx: the TU ACKs directly (three-way handshake ends the
                    // transaction immediately).
                    self.state = InviteClientState::Terminated;
                    vec![
                        TxAction::DeliverResponse(resp),
                        TxAction::Terminated(TxOutcome::Normal),
                    ]
                } else {
                    // Non-2xx final: the transaction ACKs and lingers in
                    // Completed to absorb response retransmissions.
                    let ack = ack_builder(&self.request, &resp);
                    self.ack_template = Some(ack.clone());
                    self.state = InviteClientState::Completed;
                    vec![
                        TxAction::DeliverResponse(resp),
                        TxAction::TransmitRequest(ack),
                        TxAction::SetTimer(TimerKind::D, Duration::from_secs(32)),
                    ]
                }
            }
            InviteClientState::Completed => {
                // Retransmitted final response: re-ACK, do not deliver again.
                if resp.status.is_final() {
                    match &self.ack_template {
                        Some(ack) => vec![TxAction::TransmitRequest(ack.clone())],
                        None => vec![],
                    }
                } else {
                    vec![]
                }
            }
            InviteClientState::Terminated => vec![],
        }
    }

    /// A timer fired.
    pub fn on_timer(&mut self, kind: TimerKind) -> Vec<TxAction> {
        match (self.state, kind) {
            (InviteClientState::Calling, TimerKind::A) => {
                self.retransmit_interval *= 2;
                vec![
                    TxAction::TransmitRequest(self.request.clone()),
                    TxAction::SetTimer(TimerKind::A, self.retransmit_interval),
                ]
            }
            (InviteClientState::Calling | InviteClientState::Proceeding, TimerKind::B) => {
                self.state = InviteClientState::Terminated;
                vec![TxAction::Terminated(TxOutcome::Timeout)]
            }
            (InviteClientState::Completed, TimerKind::D) => {
                self.state = InviteClientState::Terminated;
                vec![TxAction::Terminated(TxOutcome::Normal)]
            }
            _ => vec![], // stale timer for a state we've left
        }
    }
}

// ---------------------------------------------------------------------------
// Non-INVITE client transaction (§17.1.2)
// ---------------------------------------------------------------------------

/// Non-INVITE client transaction states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClientState {
    /// Request sent.
    Trying,
    /// Provisional received.
    Proceeding,
    /// Final received, absorbing retransmits.
    Completed,
    /// Done.
    Terminated,
}

/// Non-INVITE client transaction (BYE, REGISTER, OPTIONS, CANCEL).
#[derive(Debug, Clone)]
pub struct ClientTx {
    /// Current state.
    pub state: ClientState,
    cfg: TimerConfig,
    request: Request,
    retransmit_interval: Duration,
}

impl ClientTx {
    /// Create the transaction and emit the initial send + timers E and F.
    #[must_use]
    pub fn new(request: Request, cfg: TimerConfig) -> (Self, Vec<TxAction>) {
        let tx = ClientTx {
            state: ClientState::Trying,
            cfg,
            request: request.clone(),
            retransmit_interval: cfg.t1,
        };
        let actions = vec![
            TxAction::TransmitRequest(request),
            TxAction::SetTimer(TimerKind::E, cfg.t1),
            TxAction::SetTimer(TimerKind::F, cfg.t1 * 64),
        ];
        (tx, actions)
    }

    /// A response matching this transaction arrived.
    pub fn on_response(&mut self, resp: Response) -> Vec<TxAction> {
        match self.state {
            ClientState::Trying | ClientState::Proceeding => {
                if resp.status.is_provisional() {
                    self.state = ClientState::Proceeding;
                    vec![TxAction::DeliverResponse(resp)]
                } else {
                    self.state = ClientState::Completed;
                    vec![
                        TxAction::DeliverResponse(resp),
                        TxAction::SetTimer(TimerKind::K, self.cfg.t4),
                    ]
                }
            }
            ClientState::Completed | ClientState::Terminated => vec![],
        }
    }

    /// A timer fired.
    pub fn on_timer(&mut self, kind: TimerKind) -> Vec<TxAction> {
        match (self.state, kind) {
            (ClientState::Trying | ClientState::Proceeding, TimerKind::E) => {
                self.retransmit_interval = (self.retransmit_interval * 2).min(self.cfg.t2);
                vec![
                    TxAction::TransmitRequest(self.request.clone()),
                    TxAction::SetTimer(TimerKind::E, self.retransmit_interval),
                ]
            }
            (ClientState::Trying | ClientState::Proceeding, TimerKind::F) => {
                self.state = ClientState::Terminated;
                vec![TxAction::Terminated(TxOutcome::Timeout)]
            }
            (ClientState::Completed, TimerKind::K) => {
                self.state = ClientState::Terminated;
                vec![TxAction::Terminated(TxOutcome::Normal)]
            }
            _ => vec![],
        }
    }
}

// ---------------------------------------------------------------------------
// INVITE server transaction (§17.2.1)
// ---------------------------------------------------------------------------

/// INVITE server transaction states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InviteServerState {
    /// INVITE received, sending provisionals.
    Proceeding,
    /// Non-2xx final sent, waiting for ACK.
    Completed,
    /// ACK received, absorbing stray ACKs.
    Confirmed,
    /// Done.
    Terminated,
}

/// INVITE server transaction.
#[derive(Debug, Clone)]
pub struct InviteServerTx {
    /// Current state.
    pub state: InviteServerState,
    cfg: TimerConfig,
    last_response: Option<Response>,
    retransmit_interval: Duration,
}

impl InviteServerTx {
    /// Create on receipt of an INVITE. The TU is expected to respond (the
    /// PBX answers 100 Trying at once); the transaction itself emits
    /// nothing yet.
    #[must_use]
    pub fn new(cfg: TimerConfig) -> Self {
        InviteServerTx {
            state: InviteServerState::Proceeding,
            cfg,
            last_response: None,
            retransmit_interval: cfg.t1,
        }
    }

    /// A retransmitted INVITE arrived: replay the latest response, absorb.
    pub fn on_retransmit(&mut self) -> Vec<TxAction> {
        match self.state {
            InviteServerState::Proceeding | InviteServerState::Completed => {
                match &self.last_response {
                    Some(r) => vec![TxAction::TransmitResponse(r.clone())],
                    None => vec![],
                }
            }
            _ => vec![],
        }
    }

    /// The TU wants to send a response.
    pub fn send_response(&mut self, resp: Response) -> Vec<TxAction> {
        match self.state {
            InviteServerState::Proceeding => {
                self.last_response = Some(resp.clone());
                if resp.status.is_provisional() {
                    vec![TxAction::TransmitResponse(resp)]
                } else if resp.status.is_success() {
                    // 2xx: transaction terminates immediately; the TU owns
                    // 2xx retransmission until ACK (we rely on the dialog
                    // layer, as real stacks do for the common case).
                    self.state = InviteServerState::Terminated;
                    vec![
                        TxAction::TransmitResponse(resp),
                        TxAction::Terminated(TxOutcome::Normal),
                    ]
                } else {
                    self.state = InviteServerState::Completed;
                    vec![
                        TxAction::TransmitResponse(resp),
                        TxAction::SetTimer(TimerKind::G, self.cfg.t1),
                        TxAction::SetTimer(TimerKind::H, self.cfg.t1 * 64),
                    ]
                }
            }
            _ => vec![], // response after final is a TU bug; absorb
        }
    }

    /// An ACK matching this transaction arrived.
    pub fn on_ack(&mut self) -> Vec<TxAction> {
        match self.state {
            InviteServerState::Completed => {
                self.state = InviteServerState::Confirmed;
                vec![TxAction::SetTimer(TimerKind::I, self.cfg.t4)]
            }
            _ => vec![],
        }
    }

    /// A timer fired.
    pub fn on_timer(&mut self, kind: TimerKind) -> Vec<TxAction> {
        match (self.state, kind) {
            (InviteServerState::Completed, TimerKind::G) => {
                self.retransmit_interval = (self.retransmit_interval * 2).min(self.cfg.t2);
                let mut acts = Vec::with_capacity(2);
                if let Some(r) = &self.last_response {
                    acts.push(TxAction::TransmitResponse(r.clone()));
                }
                acts.push(TxAction::SetTimer(TimerKind::G, self.retransmit_interval));
                acts
            }
            (InviteServerState::Completed, TimerKind::H) => {
                self.state = InviteServerState::Terminated;
                vec![TxAction::Terminated(TxOutcome::Timeout)]
            }
            (InviteServerState::Confirmed, TimerKind::I) => {
                self.state = InviteServerState::Terminated;
                vec![TxAction::Terminated(TxOutcome::Normal)]
            }
            _ => vec![],
        }
    }
}

// ---------------------------------------------------------------------------
// Non-INVITE server transaction (§17.2.2)
// ---------------------------------------------------------------------------

/// Non-INVITE server transaction states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServerState {
    /// Request received, nothing sent.
    Trying,
    /// Provisional sent.
    Proceeding,
    /// Final sent, absorbing request retransmits.
    Completed,
    /// Done.
    Terminated,
}

/// Non-INVITE server transaction.
#[derive(Debug, Clone)]
pub struct ServerTx {
    /// Current state.
    pub state: ServerState,
    cfg: TimerConfig,
    last_response: Option<Response>,
}

impl ServerTx {
    /// Create on receipt of a non-INVITE request.
    #[must_use]
    pub fn new(cfg: TimerConfig) -> Self {
        ServerTx {
            state: ServerState::Trying,
            cfg,
            last_response: None,
        }
    }

    /// A retransmitted request arrived.
    pub fn on_retransmit(&mut self) -> Vec<TxAction> {
        match self.state {
            ServerState::Proceeding | ServerState::Completed => match &self.last_response {
                Some(r) => vec![TxAction::TransmitResponse(r.clone())],
                None => vec![],
            },
            // In Trying nothing has been sent yet: absorb silently.
            _ => vec![],
        }
    }

    /// The TU wants to send a response.
    pub fn send_response(&mut self, resp: Response) -> Vec<TxAction> {
        match self.state {
            ServerState::Trying | ServerState::Proceeding => {
                self.last_response = Some(resp.clone());
                if resp.status.is_provisional() {
                    self.state = ServerState::Proceeding;
                    vec![TxAction::TransmitResponse(resp)]
                } else {
                    self.state = ServerState::Completed;
                    vec![
                        TxAction::TransmitResponse(resp),
                        TxAction::SetTimer(TimerKind::J, self.cfg.t1 * 64),
                    ]
                }
            }
            _ => vec![],
        }
    }

    /// A timer fired.
    pub fn on_timer(&mut self, kind: TimerKind) -> Vec<TxAction> {
        match (self.state, kind) {
            (ServerState::Completed, TimerKind::J) => {
                self.state = ServerState::Terminated;
                vec![TxAction::Terminated(TxOutcome::Normal)]
            }
            _ => vec![],
        }
    }
}

/// Build the ACK for a **non-2xx** final response per RFC 3261 §17.1.1.3:
/// same Request-URI/Call-ID/From/CSeq-number as the INVITE, To copied from
/// the response (it carries the tag), single Via copied from the INVITE.
#[must_use]
pub fn build_non2xx_ack(invite: &Request, resp: &Response) -> Request {
    use crate::headers::HeaderName;
    use crate::method::Method;
    let mut ack = Request::new(Method::Ack, invite.uri.clone());
    if let Some(via) = invite.headers.get(&HeaderName::Via) {
        ack.headers.push(HeaderName::Via, via);
    }
    if let Some(from) = invite.headers.get(&HeaderName::From) {
        ack.headers.push(HeaderName::From, from);
    }
    if let Some(to) = resp.headers.get(&HeaderName::To) {
        ack.headers.push(HeaderName::To, to);
    }
    if let Some(cid) = invite.call_id() {
        ack.headers.push(HeaderName::CallId, cid);
    }
    if let Some(n) = invite.cseq_number() {
        ack.headers.push(HeaderName::CSeq, format!("{n} ACK"));
    }
    ack.headers.set(HeaderName::ContentLength, "0");
    ack
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::HeaderName;
    use crate::message::format_via;
    use crate::method::Method;
    use crate::status::StatusCode;
    use crate::uri::SipUri;

    fn cfg() -> TimerConfig {
        TimerConfig::default()
    }

    fn invite() -> Request {
        Request::new(Method::Invite, SipUri::parse("sip:bob@pbx").unwrap())
            .header(HeaderName::Via, format_via("a", 5060, "z9hG4bKtx"))
            .header(HeaderName::From, "<sip:alice@pbx>;tag=f")
            .header(HeaderName::To, "<sip:bob@pbx>")
            .header(HeaderName::CallId, "cid-tx")
            .header(HeaderName::CSeq, "1 INVITE")
    }

    fn find_timer(actions: &[TxAction], kind: TimerKind) -> Option<Duration> {
        actions.iter().find_map(|a| match a {
            TxAction::SetTimer(k, d) if *k == kind => Some(*d),
            _ => None,
        })
    }

    fn transmitted_requests(actions: &[TxAction]) -> usize {
        actions
            .iter()
            .filter(|a| matches!(a, TxAction::TransmitRequest(_)))
            .count()
    }

    // --- INVITE client ---

    #[test]
    fn invite_client_happy_path_2xx() {
        let (mut tx, acts) = InviteClientTx::new(invite(), cfg());
        assert_eq!(transmitted_requests(&acts), 1);
        assert_eq!(
            find_timer(&acts, TimerKind::A),
            Some(Duration::from_millis(500))
        );
        assert_eq!(
            find_timer(&acts, TimerKind::B),
            Some(Duration::from_secs(32))
        );

        let ringing = invite().make_response(StatusCode::RINGING);
        let acts = tx.on_response(ringing, build_non2xx_ack);
        assert_eq!(tx.state, InviteClientState::Proceeding);
        assert!(
            matches!(acts[0], TxAction::DeliverResponse(ref r) if r.status == StatusCode::RINGING)
        );

        let ok = invite().make_response(StatusCode::OK);
        let acts = tx.on_response(ok, build_non2xx_ack);
        assert_eq!(tx.state, InviteClientState::Terminated);
        assert!(acts.contains(&TxAction::Terminated(TxOutcome::Normal)));
        // 2xx ACK is the TU's job: no TransmitRequest action.
        assert_eq!(transmitted_requests(&acts), 0);
    }

    #[test]
    fn invite_client_retransmits_with_backoff() {
        let (mut tx, _) = InviteClientTx::new(invite(), cfg());
        let a1 = tx.on_timer(TimerKind::A);
        assert_eq!(transmitted_requests(&a1), 1);
        assert_eq!(find_timer(&a1, TimerKind::A), Some(Duration::from_secs(1)));
        let a2 = tx.on_timer(TimerKind::A);
        assert_eq!(find_timer(&a2, TimerKind::A), Some(Duration::from_secs(2)));
        // Once Proceeding, timer A is stale and does nothing.
        tx.on_response(invite().make_response(StatusCode::TRYING), build_non2xx_ack);
        assert!(tx.on_timer(TimerKind::A).is_empty());
    }

    #[test]
    fn invite_client_timeout() {
        let (mut tx, _) = InviteClientTx::new(invite(), cfg());
        let acts = tx.on_timer(TimerKind::B);
        assert_eq!(tx.state, InviteClientState::Terminated);
        assert_eq!(acts, vec![TxAction::Terminated(TxOutcome::Timeout)]);
    }

    #[test]
    fn invite_client_non2xx_acks_and_absorbs() {
        let (mut tx, _) = InviteClientTx::new(invite(), cfg());
        let busy = invite().make_response(StatusCode::BUSY_HERE);
        let acts = tx.on_response(busy.clone(), build_non2xx_ack);
        assert_eq!(tx.state, InviteClientState::Completed);
        // Delivered once, ACKed, timer D armed.
        assert!(matches!(acts[0], TxAction::DeliverResponse(_)));
        let ack = acts
            .iter()
            .find_map(|a| match a {
                TxAction::TransmitRequest(r) => Some(r.clone()),
                _ => None,
            })
            .expect("ACK transmitted");
        assert_eq!(ack.method, Method::Ack);
        assert_eq!(ack.headers.get(&HeaderName::CSeq), Some("1 ACK"));
        assert!(find_timer(&acts, TimerKind::D).is_some());
        // Retransmitted 486: re-ACK only, no re-delivery.
        let acts2 = tx.on_response(busy, build_non2xx_ack);
        assert_eq!(acts2.len(), 1);
        assert!(matches!(acts2[0], TxAction::TransmitRequest(ref r) if r.method == Method::Ack));
        // Timer D terminates.
        let acts3 = tx.on_timer(TimerKind::D);
        assert!(acts3.contains(&TxAction::Terminated(TxOutcome::Normal)));
    }

    // --- non-INVITE client ---

    #[test]
    fn non_invite_client_lifecycle() {
        let bye = Request::new(Method::Bye, SipUri::parse("sip:bob@pbx").unwrap())
            .header(HeaderName::Via, format_via("a", 5060, "z9hG4bKbye"))
            .header(HeaderName::CSeq, "2 BYE")
            .header(HeaderName::CallId, "cid-tx");
        let (mut tx, acts) = ClientTx::new(bye.clone(), cfg());
        assert_eq!(transmitted_requests(&acts), 1);
        assert!(find_timer(&acts, TimerKind::E).is_some());
        assert!(find_timer(&acts, TimerKind::F).is_some());

        let ok = bye.make_response(StatusCode::OK);
        let acts = tx.on_response(ok.clone());
        assert_eq!(tx.state, ClientState::Completed);
        assert!(find_timer(&acts, TimerKind::K).is_some());
        // Retransmitted response absorbed.
        assert!(tx.on_response(ok).is_empty());
        let acts = tx.on_timer(TimerKind::K);
        assert!(acts.contains(&TxAction::Terminated(TxOutcome::Normal)));
    }

    #[test]
    fn non_invite_client_backoff_caps_at_t2() {
        let bye = Request::new(Method::Bye, SipUri::parse("sip:bob@pbx").unwrap());
        let (mut tx, _) = ClientTx::new(bye, cfg());
        let mut last = Duration::ZERO;
        for _ in 0..8 {
            let acts = tx.on_timer(TimerKind::E);
            last = find_timer(&acts, TimerKind::E).unwrap();
        }
        assert_eq!(last, Duration::from_secs(4), "capped at T2");
    }

    #[test]
    fn non_invite_client_timeout_and_provisional() {
        let reg = Request::new(Method::Register, SipUri::parse("sip:pbx").unwrap());
        let (mut tx, _) = ClientTx::new(reg.clone(), cfg());
        let acts = tx.on_response(reg.make_response(StatusCode::TRYING));
        assert_eq!(tx.state, ClientState::Proceeding);
        assert!(matches!(acts[0], TxAction::DeliverResponse(_)));
        let acts = tx.on_timer(TimerKind::F);
        assert_eq!(acts, vec![TxAction::Terminated(TxOutcome::Timeout)]);
    }

    // --- INVITE server ---

    #[test]
    fn invite_server_2xx_terminates_immediately() {
        let mut tx = InviteServerTx::new(cfg());
        let acts = tx.send_response(invite().make_response(StatusCode::TRYING));
        assert_eq!(acts.len(), 1);
        assert!(
            matches!(acts[0], TxAction::TransmitResponse(ref r) if r.status == StatusCode::TRYING)
        );
        let acts = tx.send_response(invite().make_response(StatusCode::OK));
        assert_eq!(tx.state, InviteServerState::Terminated);
        assert!(acts.contains(&TxAction::Terminated(TxOutcome::Normal)));
    }

    #[test]
    fn invite_server_non2xx_waits_for_ack() {
        let mut tx = InviteServerTx::new(cfg());
        let acts = tx.send_response(invite().make_response(StatusCode::BUSY_HERE));
        assert_eq!(tx.state, InviteServerState::Completed);
        assert!(find_timer(&acts, TimerKind::G).is_some());
        assert!(find_timer(&acts, TimerKind::H).is_some());
        // Timer G retransmits the stored response with backoff.
        let g = tx.on_timer(TimerKind::G);
        assert!(
            matches!(g[0], TxAction::TransmitResponse(ref r) if r.status == StatusCode::BUSY_HERE)
        );
        assert_eq!(find_timer(&g, TimerKind::G), Some(Duration::from_secs(1)));
        // ACK confirms.
        let acts = tx.on_ack();
        assert_eq!(tx.state, InviteServerState::Confirmed);
        assert!(find_timer(&acts, TimerKind::I).is_some());
        // Stray ACK absorbed; timer I terminates.
        assert!(tx.on_ack().is_empty());
        let acts = tx.on_timer(TimerKind::I);
        assert!(acts.contains(&TxAction::Terminated(TxOutcome::Normal)));
    }

    #[test]
    fn invite_server_ack_timeout() {
        let mut tx = InviteServerTx::new(cfg());
        tx.send_response(invite().make_response(StatusCode::SERVICE_UNAVAILABLE));
        let acts = tx.on_timer(TimerKind::H);
        assert_eq!(tx.state, InviteServerState::Terminated);
        assert_eq!(acts, vec![TxAction::Terminated(TxOutcome::Timeout)]);
    }

    #[test]
    fn invite_server_retransmit_replays_last_response() {
        let mut tx = InviteServerTx::new(cfg());
        assert!(tx.on_retransmit().is_empty(), "nothing sent yet");
        tx.send_response(invite().make_response(StatusCode::TRYING));
        let acts = tx.on_retransmit();
        assert!(
            matches!(acts[0], TxAction::TransmitResponse(ref r) if r.status == StatusCode::TRYING)
        );
    }

    // --- non-INVITE server ---

    #[test]
    fn non_invite_server_lifecycle() {
        let mut tx = ServerTx::new(cfg());
        assert!(tx.on_retransmit().is_empty(), "Trying absorbs silently");
        let bye = Request::new(Method::Bye, SipUri::parse("sip:b@h").unwrap());
        let acts = tx.send_response(bye.make_response(StatusCode::OK));
        assert_eq!(tx.state, ServerState::Completed);
        assert!(find_timer(&acts, TimerKind::J).is_some());
        // Retransmitted BYE: replay the 200.
        let acts = tx.on_retransmit();
        assert!(matches!(acts[0], TxAction::TransmitResponse(ref r) if r.status == StatusCode::OK));
        // Late TU response is absorbed.
        assert!(tx
            .send_response(bye.make_response(StatusCode::OK))
            .is_empty());
        let acts = tx.on_timer(TimerKind::J);
        assert!(acts.contains(&TxAction::Terminated(TxOutcome::Normal)));
    }

    #[test]
    fn non_invite_server_provisional_path() {
        let mut tx = ServerTx::new(cfg());
        let opt = Request::new(Method::Options, SipUri::parse("sip:h").unwrap());
        tx.send_response(opt.make_response(StatusCode::TRYING));
        assert_eq!(tx.state, ServerState::Proceeding);
        let acts = tx.on_retransmit();
        assert!(
            matches!(acts[0], TxAction::TransmitResponse(ref r) if r.status == StatusCode::TRYING)
        );
        tx.send_response(opt.make_response(StatusCode::OK));
        assert_eq!(tx.state, ServerState::Completed);
    }

    #[test]
    fn ack_builder_copies_the_right_headers() {
        let inv = invite();
        let resp = inv.make_response_tagged(StatusCode::BUSY_HERE, "remote");
        let ack = build_non2xx_ack(&inv, &resp);
        assert_eq!(ack.method, Method::Ack);
        assert_eq!(ack.uri, inv.uri);
        assert_eq!(ack.call_id(), inv.call_id());
        assert_eq!(
            crate::headers::tag_of(ack.headers.get(&HeaderName::To).unwrap()),
            Some("remote"),
            "To tag comes from the response"
        );
        assert_eq!(
            ack.headers.get(&HeaderName::Via),
            inv.headers.get(&HeaderName::Via)
        );
    }
}
