//! Counting SIP messages by method and by status code.
//!
//! Every endpoint journal and the passive monitor keep this tally and
//! touch it once per message, so it is indexed, not keyed: requests by
//! [`Method`] discriminant, responses in a table of the handful of status
//! codes a run ever sees. Maps keyed by name are built from it only when a
//! report is.

use crate::{Method, SipMessage, StatusCode};

/// Messages seen, by request method and by response status code.
#[derive(Debug, Clone, Default)]
pub struct SipTally {
    /// Indexed by `Method as usize` (the order of [`Method::ALL`]).
    requests: [u64; Method::ALL.len()],
    /// `(status code, count)` in order of first appearance — under a dozen
    /// entries, so a scan beats a tree.
    responses: Vec<(u16, u64)>,
}

impl SipTally {
    /// Count one message.
    pub fn count(&mut self, msg: &SipMessage) {
        match msg {
            SipMessage::Request(r) => self.requests[r.method as usize] += 1,
            SipMessage::Response(r) => self.add_responses(r.status.0, 1),
        }
    }

    fn add_responses(&mut self, code: u16, n: u64) {
        match self.responses.iter_mut().find(|(c, _)| *c == code) {
            Some((_, count)) => *count += n,
            None => self.responses.push((code, n)),
        }
    }

    /// Requests counted for a method.
    #[must_use]
    pub fn requests(&self, method: Method) -> u64 {
        self.requests[method as usize]
    }

    /// Responses counted for a status code.
    #[must_use]
    pub fn responses(&self, status: StatusCode) -> u64 {
        let found = self.responses.iter().find(|(c, _)| *c == status.0);
        found.map_or(0, |&(_, n)| n)
    }

    /// Error-class (≥ 400) responses counted.
    #[must_use]
    pub fn error_responses(&self) -> u64 {
        let errors = self.responses.iter().filter(|(c, _)| *c >= 400);
        errors.map(|&(_, n)| n).sum()
    }

    /// All messages counted.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.requests.iter().sum::<u64>() + self.responses.iter().map(|&(_, n)| n).sum::<u64>()
    }

    /// Methods seen at least once, with their counts.
    pub fn by_method(&self) -> impl Iterator<Item = (Method, u64)> + '_ {
        let counts = Method::ALL.into_iter().zip(self.requests);
        counts.filter(|&(_, n)| n > 0)
    }

    /// Status codes seen, with their counts, in order of first appearance.
    pub fn by_status(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        self.responses.iter().copied()
    }

    /// Add another tally's counts to this one.
    pub fn merge(&mut self, other: &SipTally) {
        for (mine, theirs) in self.requests.iter_mut().zip(other.requests) {
            *mine += theirs;
        }
        for &(code, n) in &other.responses {
            self.add_responses(code, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Request, Response, SipUri};

    #[test]
    fn method_index_matches_all() {
        for (i, m) in Method::ALL.into_iter().enumerate() {
            assert_eq!(m as usize, i);
        }
    }

    #[test]
    fn counts_merge_and_fold() {
        let mut a = SipTally::default();
        let invite = Request::new(Method::Invite, SipUri::new("a", "h"));
        a.count(&invite.clone().into());
        a.count(&invite.into());
        a.count(&Response::new(StatusCode::OK).into());
        a.count(&Response::new(StatusCode::BUSY_HERE).into());
        let mut b = SipTally::default();
        b.count(&Request::new(Method::Bye, SipUri::new("a", "h")).into());
        b.count(&Response::new(StatusCode::BUSY_HERE).into());
        b.count(&Response::new(StatusCode(699)).into());
        a.merge(&b);
        assert_eq!(a.requests(Method::Invite), 2);
        assert_eq!(a.requests(Method::Bye), 1);
        assert_eq!(a.requests(Method::Ack), 0);
        assert_eq!(a.responses(StatusCode::BUSY_HERE), 2);
        assert_eq!(a.responses(StatusCode::TRYING), 0);
        assert_eq!(a.error_responses(), 3);
        assert_eq!(a.total(), 7);
        let methods: Vec<_> = a.by_method().collect();
        assert_eq!(methods, [(Method::Invite, 2), (Method::Bye, 1)]);
        let codes: Vec<_> = a.by_status().collect();
        assert_eq!(codes, [(200, 1), (486, 2), (699, 1)]);
    }
}
