//! Call detail records — Asterisk's CDR facility, which the paper lists
//! among the PBX features motivating its selection.
//!
//! Asterisk hands each record to a backend when the call ends; the
//! simulated backend keeps what the experiments read of them: a tally per
//! [`Disposition`] and the steady-window blocking counts. Every new INVITE
//! files exactly one record, so the journal's size does not grow with the
//! attempts it has seen.

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

/// The CDR journal: records filed per disposition, plus the attempts and
/// blocked calls of the steady window — INVITEs arriving at or after an
/// instant chosen when the journal is made.
#[derive(Debug, Clone, Default)]
pub struct CdrLog {
    /// Records filed, indexed by `Disposition as usize`.
    filed: [usize; Disposition::InProgress as usize + 1],
    steady_from: SimTime,
    steady_attempts: u64,
    steady_blocked: u64,
}

impl CdrLog {
    /// An empty journal whose steady window is the whole run.
    #[must_use]
    pub fn new() -> Self {
        CdrLog::default()
    }

    /// An empty journal whose steady window opens at `from`.
    #[must_use]
    pub fn since(from: SimTime) -> Self {
        CdrLog {
            steady_from: from,
            ..CdrLog::default()
        }
    }

    /// A new INVITE arrived at `now`; it will file exactly one record.
    pub fn open(&mut self, now: SimTime) {
        if now >= self.steady_from {
            self.steady_attempts += 1;
        }
    }

    /// File one record as `disposition` at `now`. A [`Disposition::Blocked`]
    /// record is only ever filed when its INVITE arrives, so `now` is then
    /// its start and the steady-window blocked count is taken here.
    pub fn file(&mut self, now: SimTime, disposition: Disposition) {
        self.filed[disposition as usize] += 1;
        if disposition == Disposition::Blocked && now >= self.steady_from {
            self.steady_blocked += 1;
        }
    }

    /// Records filed with the given disposition.
    #[must_use]
    pub fn count(&self, d: Disposition) -> usize {
        self.filed[d as usize]
    }

    /// Records filed.
    #[must_use]
    pub fn total(&self) -> usize {
        self.filed.iter().sum()
    }

    /// `(attempts, blocked)` among the INVITEs of the steady window.
    #[must_use]
    pub fn steady(&self) -> (u64, u64) {
        (self.steady_attempts, self.steady_blocked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_counts_per_disposition() {
        let mut log = CdrLog::new();
        for i in 0..8 {
            log.file(SimTime::from_secs(100 + i), Disposition::Answered);
        }
        for i in 0..2 {
            log.file(SimTime::from_secs(50 + i), Disposition::Blocked);
        }
        assert_eq!(log.total(), 10);
        assert_eq!(log.count(Disposition::Answered), 8);
        assert_eq!(log.count(Disposition::Blocked), 2);
        assert_eq!(log.count(Disposition::Failed), 0);
    }

    #[test]
    fn steady_window_counts_arrivals_from_its_start() {
        let mut log = CdrLog::since(SimTime::from_secs(10));
        for (at, disposition) in [
            (9, Disposition::Blocked),
            (10, Disposition::Blocked),
            (11, Disposition::Shed),
            (12, Disposition::Blocked),
        ] {
            let now = SimTime::from_secs(at);
            log.open(now);
            log.file(now, disposition);
        }
        // An admitted call arriving in the window, filed after it.
        log.open(SimTime::from_secs(13));
        log.file(SimTime::from_secs(40), Disposition::Answered);
        assert_eq!(log.steady(), (4, 2));
        assert_eq!(log.total(), 5);
        assert_eq!(log.count(Disposition::Blocked), 3);
    }

    #[test]
    fn empty_journal() {
        let log = CdrLog::new();
        assert_eq!(log.total(), 0);
        assert_eq!(log.steady(), (0, 0));
    }
}
