//! Call detail records — Asterisk's CDR facility, which the paper lists
//! among the PBX features motivating its selection.

use des::SimTime;

/// Final disposition of a call attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Answered and completed normally.
    Answered,
    /// Refused at admission: no free channel (the "blocked call").
    Blocked,
    /// Refused by overload control: the PBX was above its shedding
    /// watermark and answered 503 + Retry-After. Kept distinct from
    /// [`Disposition::Blocked`] so Erlang-B comparisons (which model
    /// capacity, not control policy) stay honest.
    Shed,
    /// Refused by the per-user call policy (caller over its ceiling).
    PolicyRefused,
    /// Callee unknown / not registered.
    Failed,
    /// Callee never answered before the caller gave up.
    NoAnswer,
    /// Still in progress when the experiment window closed.
    InProgress,
}

/// One call's record.
#[derive(Debug, Clone, PartialEq)]
pub struct CallRecord {
    /// SIP Call-ID.
    pub call_id: String,
    /// Caller address-of-record.
    pub caller: String,
    /// Dialled destination.
    pub callee: String,
    /// INVITE arrival time.
    pub start: SimTime,
    /// 200 OK time, if answered.
    pub answered: Option<SimTime>,
    /// Teardown time, if ended.
    pub end: Option<SimTime>,
    /// Final disposition.
    pub disposition: Disposition,
}

impl CallRecord {
    /// Billable seconds (answer to end), 0 if never answered.
    #[must_use]
    pub fn billsec(&self) -> f64 {
        match (self.answered, self.end) {
            (Some(a), Some(e)) => e.since(a).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Total duration from INVITE to teardown.
    #[must_use]
    pub fn duration(&self) -> f64 {
        match self.end {
            Some(e) => e.since(self.start).as_secs_f64(),
            None => 0.0,
        }
    }
}

/// Accumulating CDR journal.
#[derive(Debug, Clone, Default)]
pub struct CdrLog {
    records: Vec<CallRecord>,
}

impl CdrLog {
    /// An empty journal.
    #[must_use]
    pub fn new() -> Self {
        CdrLog::default()
    }

    /// Append a record.
    pub fn push(&mut self, r: CallRecord) {
        self.records.push(r);
    }

    /// All records.
    #[must_use]
    pub fn records(&self) -> &[CallRecord] {
        &self.records
    }

    /// Count records with the given disposition.
    #[must_use]
    pub fn count(&self, d: Disposition) -> usize {
        self.records.iter().filter(|r| r.disposition == d).count()
    }

    /// Total attempts.
    #[must_use]
    pub fn total(&self) -> usize {
        self.records.len()
    }

    /// Blocking probability observed: blocked / total attempts.
    #[must_use]
    pub fn blocking_probability(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.count(Disposition::Blocked) as f64 / self.records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::SimDuration;

    fn answered_record(start_s: u64, bill_s: u64) -> CallRecord {
        let start = SimTime::from_secs(start_s);
        let ans = start + SimDuration::from_millis(350);
        CallRecord {
            call_id: format!("c{start_s}"),
            caller: "1001@pbx".into(),
            callee: "2001@pbx".into(),
            start,
            answered: Some(ans),
            end: Some(ans + SimDuration::from_secs(bill_s)),
            disposition: Disposition::Answered,
        }
    }

    #[test]
    fn billsec_and_duration() {
        let r = answered_record(10, 120);
        assert!((r.billsec() - 120.0).abs() < 1e-9);
        assert!((r.duration() - 120.35).abs() < 1e-9);
    }

    #[test]
    fn unanswered_has_zero_billsec() {
        let r = CallRecord {
            call_id: "x".into(),
            caller: "a".into(),
            callee: "b".into(),
            start: SimTime::from_secs(1),
            answered: None,
            end: Some(SimTime::from_secs(2)),
            disposition: Disposition::Blocked,
        };
        assert_eq!(r.billsec(), 0.0);
        assert!((r.duration() - 1.0).abs() < 1e-12);
        let r2 = CallRecord {
            end: None,
            disposition: Disposition::InProgress,
            ..r
        };
        assert_eq!(r2.duration(), 0.0);
    }

    #[test]
    fn journal_counts_and_blocking() {
        let mut log = CdrLog::new();
        for i in 0..8 {
            log.push(answered_record(i, 100));
        }
        for i in 0..2 {
            log.push(CallRecord {
                call_id: format!("b{i}"),
                caller: "c".into(),
                callee: "d".into(),
                start: SimTime::from_secs(50 + i),
                answered: None,
                end: Some(SimTime::from_secs(50 + i)),
                disposition: Disposition::Blocked,
            });
        }
        assert_eq!(log.total(), 10);
        assert_eq!(log.count(Disposition::Answered), 8);
        assert_eq!(log.count(Disposition::Blocked), 2);
        assert_eq!(log.count(Disposition::Failed), 0);
        assert!((log.blocking_probability() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_journal() {
        let log = CdrLog::new();
        assert_eq!(log.total(), 0);
        assert_eq!(log.blocking_probability(), 0.0);
        assert!(log.records().is_empty());
    }
}
