//! Counting SIP messages by method and by status code.
//!
//! The passive monitor (`vmon::Monitor`) keeps this tally — the one SIP
//! message count of a run — and touches it once per message, so it is
//! indexed, not keyed: requests by [`Method`] discriminant, responses in a
//! table of the handful of status codes a run ever sees. Maps keyed by
//! name are built from it only when a report is.

use crate::{Method, SipMessage};

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
            SipMessage::Response(r) => {
                let code = r.status.0;
                match self.responses.iter_mut().find(|(c, _)| *c == code) {
                    Some((_, n)) => *n += 1,
                    None => self.responses.push((code, 1)),
                }
            }
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Request, Response, SipUri, StatusCode};

    #[test]
    fn method_index_matches_all() {
        for (i, m) in Method::ALL.into_iter().enumerate() {
            assert_eq!(m as usize, i);
        }
    }

    #[test]
    fn counts_and_folds() {
        let mut a = SipTally::default();
        let invite = Request::new(Method::Invite, SipUri::new("a", "h"));
        a.count(&invite.clone().into());
        a.count(&invite.into());
        a.count(&Response::new(StatusCode::OK).into());
        a.count(&Response::new(StatusCode::BUSY_HERE).into());
        a.count(&Request::new(Method::Bye, SipUri::new("a", "h")).into());
        a.count(&Response::new(StatusCode::BUSY_HERE).into());
        a.count(&Response::new(StatusCode(699)).into());
        assert_eq!(a.total(), 7);
        let methods: Vec<_> = a.by_method().collect();
        assert_eq!(methods, [(Method::Invite, 2), (Method::Bye, 1)]);
        let codes: Vec<_> = a.by_status().collect();
        assert_eq!(codes, [(200, 1), (486, 2), (699, 1)]);
    }
}
