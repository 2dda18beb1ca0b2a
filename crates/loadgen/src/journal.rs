//! Per-run accounting: call outcomes and SIP message counts.
//!
//! This is the ledger behind the paper's Table I rows — INVITE / 100 TRY /
//! RING / OK / ACK / BYE / error-message counts plus blocked-call
//! percentages come straight out of a [`Journal`].

use serde::{Deserialize, Serialize};
use sipcore::{Method, SipMessage, SipTally, StatusCode};

/// Final outcome of one attempted call, from the generator's standpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CallOutcome {
    /// Answered and completed with a normal BYE handshake.
    Completed,
    /// Refused with 486/503 — the "blocked call" of the capacity study.
    Blocked,
    /// Shed with 503 + Retry-After at least once, then completed on a
    /// retry — overload control deferring work rather than losing it.
    ShedThenOk,
    /// Failed with another error class (404, 500…).
    Failed,
    /// No final response before the experiment ended.
    Abandoned,
}

/// Whether a counted message was sent or received by the instrumented side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MsgDirection {
    /// Message left this agent.
    Sent,
    /// Message arrived at this agent.
    Received,
}

/// The accounting ledger.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// Calls attempted (INVITEs placed; a retried call counts once).
    pub attempted: u64,
    /// Retry INVITEs sent after a 503 + Retry-After.
    pub retries: u64,
    /// Outcome tallies, indexed by `CallOutcome as usize`.
    outcomes: [u64; CallOutcome::Abandoned as usize + 1],
    /// SIP messages by method and status code (sent + received).
    sip: SipTally,
    /// RTP packets sent by this side.
    pub rtp_sent: u64,
    /// RTP packets received by this side.
    pub rtp_received: u64,
}

impl Journal {
    /// An empty journal.
    #[must_use]
    pub fn new() -> Self {
        Journal::default()
    }

    /// Record a placed call.
    pub fn call_attempted(&mut self) {
        self.attempted += 1;
    }

    /// Record a call outcome.
    pub fn call_finished(&mut self, outcome: CallOutcome) {
        self.outcomes[outcome as usize] += 1;
    }

    /// Count of calls with the given outcome.
    #[must_use]
    pub fn outcome_count(&self, outcome: CallOutcome) -> u64 {
        self.outcomes[outcome as usize]
    }

    /// Observed blocking probability: blocked / attempted.
    #[must_use]
    pub fn blocking_probability(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.outcome_count(CallOutcome::Blocked) as f64 / self.attempted as f64
    }

    /// Record one SIP message passing this agent (either direction).
    pub fn count_sip(&mut self, msg: &SipMessage, _dir: MsgDirection) {
        self.sip.count(msg);
    }

    /// Requests counted for a method.
    #[must_use]
    pub fn request_count(&self, method: Method) -> u64 {
        self.sip.requests(method)
    }

    /// Responses counted for a status code.
    #[must_use]
    pub fn response_count(&self, status: StatusCode) -> u64 {
        self.sip.responses(status)
    }

    /// Total error-class (≥400) responses counted.
    #[must_use]
    pub fn error_responses(&self) -> u64 {
        self.sip.error_responses()
    }

    /// Total SIP messages counted.
    #[must_use]
    pub fn total_sip(&self) -> u64 {
        self.sip.total()
    }

    /// Merge another journal (e.g. UAC + UAS sides).
    pub fn merge(&mut self, other: &Journal) {
        self.attempted += other.attempted;
        self.retries += other.retries;
        for (mine, theirs) in self.outcomes.iter_mut().zip(other.outcomes) {
            *mine += theirs;
        }
        self.sip.merge(&other.sip);
        self.rtp_sent += other.rtp_sent;
        self.rtp_received += other.rtp_received;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sipcore::{Request, Response, SipUri};

    #[test]
    fn outcome_accounting() {
        let mut j = Journal::new();
        for _ in 0..10 {
            j.call_attempted();
        }
        for _ in 0..7 {
            j.call_finished(CallOutcome::Completed);
        }
        for _ in 0..2 {
            j.call_finished(CallOutcome::Blocked);
        }
        j.call_finished(CallOutcome::Failed);
        assert_eq!(j.attempted, 10);
        assert_eq!(j.outcome_count(CallOutcome::Completed), 7);
        assert_eq!(j.outcome_count(CallOutcome::Blocked), 2);
        assert_eq!(j.outcome_count(CallOutcome::Failed), 1);
        assert_eq!(j.outcome_count(CallOutcome::Abandoned), 0);
        assert!((j.blocking_probability() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_journal_blocking_zero() {
        assert_eq!(Journal::new().blocking_probability(), 0.0);
        assert_eq!(Journal::new().total_sip(), 0);
    }

    #[test]
    fn sip_message_tallies() {
        let mut j = Journal::new();
        let invite = Request::new(Method::Invite, SipUri::new("a", "h"));
        let bye = Request::new(Method::Bye, SipUri::new("a", "h"));
        j.count_sip(&invite.clone().into(), MsgDirection::Sent);
        j.count_sip(&invite.into(), MsgDirection::Received);
        j.count_sip(&bye.into(), MsgDirection::Sent);
        j.count_sip(
            &Response::new(StatusCode::TRYING).into(),
            MsgDirection::Received,
        );
        j.count_sip(
            &Response::new(StatusCode::OK).into(),
            MsgDirection::Received,
        );
        j.count_sip(
            &Response::new(StatusCode::BUSY_HERE).into(),
            MsgDirection::Received,
        );
        j.count_sip(
            &Response::new(StatusCode::SERVICE_UNAVAILABLE).into(),
            MsgDirection::Received,
        );
        assert_eq!(j.request_count(Method::Invite), 2);
        assert_eq!(j.request_count(Method::Bye), 1);
        assert_eq!(j.request_count(Method::Ack), 0);
        assert_eq!(j.response_count(StatusCode::TRYING), 1);
        assert_eq!(j.response_count(StatusCode::OK), 1);
        assert_eq!(j.error_responses(), 2);
        assert_eq!(j.total_sip(), 7);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Journal::new();
        let mut b = Journal::new();
        a.call_attempted();
        a.call_finished(CallOutcome::Completed);
        a.rtp_sent = 100;
        b.call_attempted();
        b.call_finished(CallOutcome::Blocked);
        b.rtp_received = 50;
        b.count_sip(
            &Request::new(Method::Invite, SipUri::new("a", "h")).into(),
            MsgDirection::Sent,
        );
        a.merge(&b);
        assert_eq!(a.attempted, 2);
        assert_eq!(a.outcome_count(CallOutcome::Completed), 1);
        assert_eq!(a.outcome_count(CallOutcome::Blocked), 1);
        assert_eq!(a.rtp_sent, 100);
        assert_eq!(a.rtp_received, 50);
        assert_eq!(a.request_count(Method::Invite), 1);
    }
}
