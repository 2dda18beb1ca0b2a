//! An LDAP-like user directory, reduced to the rule it answers binds with.
//!
//! The UnB deployment authenticates SIP users and records calls against an
//! LDAP server (paper §II-A). The evaluation only needs the directory's
//! behaviour — a bind (credential check) by uid — and every subscriber it
//! holds follows one rule: a uid in a subscriber range, secret `pw-<uid>`.
//! So the directory is that rule over a short list of uid ranges, and
//! holds no per-user state: the 1000-user campus pool and a 10⁶-subscriber
//! population cost the same few bytes.

/// The canonical decimal value of `uid`: ASCII digits, no sign, no leading
/// zero, at most `u64::MAX`. Every uid the load generators produce is
/// spelled this way, and a directory or registrar range covers no other
/// spelling (`"007"` and `"+7"` are not `7`).
pub(crate) fn parse_uid(uid: &str) -> Option<u64> {
    if uid.is_empty() || !uid.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    if uid.len() > 1 && uid.starts_with('0') {
        return None;
    }
    uid.parse().ok()
}

/// Result of a bind attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindResult {
    /// Credentials accepted.
    Success,
    /// A range covers the uid but the proof failed.
    InvalidCredentials,
}

/// The subscriber uids `base .. base + count`.
#[derive(Debug, Clone, Copy)]
struct UidRange {
    base: u64,
    count: u64,
}

impl UidRange {
    fn contains(self, uid: u64) -> bool {
        uid >= self.base && uid - self.base < self.count
    }
}

/// The directory: the subscriber ranges a bind is checked against.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    ranges: Vec<UidRange>,
}

impl Directory {
    /// An empty directory: every bind answers "no such user".
    #[must_use]
    pub fn new() -> Self {
        Directory::default()
    }

    /// A directory of `count` campus subscribers, uids `base .. base+count`,
    /// each with password `pw-<uid>` — the shape of the UnB deployment,
    /// where IDs map one-to-one to phone extensions.
    #[must_use]
    pub fn with_subscribers(base: u32, count: u32) -> Self {
        Directory {
            ranges: vec![UidRange {
                base: base.into(),
                count: count.into(),
            }],
        }
    }

    /// The same directory as [`Directory::with_subscribers`], under the
    /// name the benchmark's ladder replay builds its PBX with.
    #[must_use]
    pub fn shared_subscribers(base: u32, count: u32) -> Self {
        Directory::with_subscribers(base, count)
    }

    /// Add the subscriber range `base .. base+count` (secret `pw-<uid>`)
    /// next to the ones already held — how a 10⁶-subscriber population
    /// joins the campus pool.
    pub fn set_synthetic_range(&mut self, base: u64, count: u64) {
        self.ranges.push(UidRange { base, count });
    }

    /// The base of the range that covers `uid`, and `uid`'s rank in it
    /// (`uid − base`); `None` when no range covers `uid`.
    pub(crate) fn range_of(&self, uid: &str) -> Option<(u64, u64)> {
        let value = parse_uid(uid)?;
        let range = self.ranges.iter().find(|r| r.contains(value))?;
        Some((range.base, value - range.base))
    }

    /// Bind by uid, with a caller-supplied proof: the directory lends the
    /// secret `pw-<uid>` to `proof` (password equality for a simple bind,
    /// the RFC 2617 response check for digest). `None` when no range covers
    /// `uid`. The secret is assembled on the stack: nothing is stored or
    /// allocated per user. The registrar counts the outcomes
    /// ([`crate::Registrar::stats`]).
    pub fn bind_uid(&self, uid: &str, proof: impl FnOnce(&str) -> bool) -> Option<BindResult> {
        self.range_of(uid)?;
        // A canonical decimal u64 has at most 20 digits.
        let mut secret = [0u8; 3 + 20];
        let len = 3 + uid.len();
        secret[..3].copy_from_slice(b"pw-");
        secret[3..len].copy_from_slice(uid.as_bytes());
        Some(
            if proof(std::str::from_utf8(&secret[..len]).expect("ASCII digits")) {
                BindResult::Success
            } else {
                BindResult::InvalidCredentials
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simple bind by uid: the lent secret must equal `password`.
    fn bind_password(dir: &Directory, uid: &str, password: &str) -> Option<BindResult> {
        dir.bind_uid(uid, |secret| secret == password)
    }

    /// The secret the directory lends a proof for `uid`.
    fn lent_secret(dir: &Directory, uid: &str) -> Option<String> {
        let mut seen = None;
        dir.bind_uid(uid, |secret| {
            seen = Some(secret.to_owned());
            true
        })?;
        seen
    }

    #[test]
    fn uids_parse_only_in_canonical_spelling() {
        for (uid, value) in [
            ("", None),
            ("0", Some(0)),
            ("7", Some(7)),
            ("007", None),
            ("+5", None),
            ("-5", None),
            ("1 000", None),
            ("100000000000000000000", None), // 21 digits: past u64::MAX
            ("18446744073709551615", Some(u64::MAX)),
            ("18446744073709551616", None),
            ("1000", Some(1000)),
            ("1999", Some(1999)),
        ] {
            assert_eq!(parse_uid(uid), value, "{uid:?}");
        }
    }

    #[test]
    fn a_range_covers_its_uids_and_its_ends_are_exclusive() {
        let dir = Directory::with_subscribers(1000, 50);
        assert_eq!(lent_secret(&dir, "1000"), Some("pw-1000".to_owned()));
        assert_eq!(lent_secret(&dir, "1049"), Some("pw-1049".to_owned()));
        assert_eq!(lent_secret(&dir, "999"), None, "below the base");
        assert_eq!(lent_secret(&dir, "1050"), None, "base + count is outside");
        assert_eq!(lent_secret(&dir, "01000"), None, "non-canonical spelling");
        assert_eq!(
            bind_password(&dir, "1002", "pw-1002"),
            Some(BindResult::Success)
        );
        assert_eq!(
            bind_password(&dir, "1002", "nope"),
            Some(BindResult::InvalidCredentials)
        );
        assert_eq!(bind_password(&dir, "9999", "pw-9999"), None);
    }

    #[test]
    fn campus_and_population_ranges_coexist() {
        let mut dir = Directory::with_subscribers(1000, 1000);
        dir.set_synthetic_range(1_000_000, 1_000_000);
        for (uid, covered) in [
            ("1000", true),
            ("1999", true),
            ("2000", false),
            ("999999", false),
            ("1000000", true),
            ("1500000", true),
            ("1999999", true),
            ("2000000", false),
            ("+1500000", false),
        ] {
            let expect = covered.then_some(BindResult::Success);
            assert_eq!(
                bind_password(&dir, uid, &format!("pw-{uid}")),
                expect,
                "{uid}"
            );
        }
        assert_eq!(
            bind_password(&dir, "1500000", "pw-1000"),
            Some(BindResult::InvalidCredentials),
            "another subscriber's secret"
        );
        assert_eq!(
            bind_password(&dir, "1500", "pw-1500000"),
            Some(BindResult::InvalidCredentials)
        );
    }

    #[test]
    fn empty_directory_knows_no_one() {
        let dir = Directory::new();
        assert_eq!(bind_password(&dir, "1", "pw-1"), None);
        assert_eq!(bind_password(&dir, "0", "pw-0"), None);
    }
}
