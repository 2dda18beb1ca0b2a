//! Per-run call accounting: attempts, retries and outcomes.
//!
//! This is SIPp's side of the run — how many calls were placed and how
//! each ended, the source of blocked-call percentages and goodput. It
//! counts no messages: Table I's INVITE / 100 TRY / RING / OK / ACK / BYE
//! rows come from the passive monitor (`vmon::MonitorReport`), the tap
//! the paper reads them from.

use serde::{Deserialize, Serialize};

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

/// The accounting ledger.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// Calls attempted (INVITEs placed; a retried call counts once).
    pub attempted: u64,
    /// Retry INVITEs sent after a 503 + Retry-After.
    pub retries: u64,
    /// Outcome tallies, indexed by `CallOutcome as usize`.
    outcomes: [u64; CallOutcome::Abandoned as usize + 1],
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

    /// Merge another journal (one per UAC of a farm).
    pub fn merge(&mut self, other: &Journal) {
        self.attempted += other.attempted;
        self.retries += other.retries;
        for (mine, theirs) in self.outcomes.iter_mut().zip(other.outcomes) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Journal::new();
        let mut b = Journal::new();
        a.call_attempted();
        a.call_finished(CallOutcome::Completed);
        b.call_attempted();
        b.call_finished(CallOutcome::Blocked);
        b.retries = 2;
        a.merge(&b);
        assert_eq!(a.attempted, 2);
        assert_eq!(a.outcome_count(CallOutcome::Completed), 1);
        assert_eq!(a.outcome_count(CallOutcome::Blocked), 1);
        assert_eq!(a.retries, 2);
    }
}
