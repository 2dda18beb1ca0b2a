//! An LDAP-like in-memory user directory.
//!
//! The UnB deployment authenticates SIP users and records calls against an
//! LDAP server (paper §II-A). The evaluation only needs the directory's
//! behaviour — a bind (credential check) by uid — so this is a small
//! uid-keyed store rather than a wire-protocol server.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// One directory entry: a distinguished name plus attributes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirEntry {
    /// Distinguished name, e.g. `uid=1001,ou=people,dc=unb,dc=br`.
    pub dn: String,
    /// Attribute map (single-valued for simplicity).
    pub attrs: HashMap<String, String>,
}

/// Result of a bind attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BindResult {
    /// Credentials accepted.
    Success,
    /// Entry exists but the password is wrong.
    InvalidCredentials,
}

/// The in-memory directory.
///
/// The entry store lives behind an `Arc` with copy-on-write semantics:
/// cloning a directory is one refcount bump, and the deep copy happens
/// only if the clone later mutates its rows ([`Directory::add`]). A bind
/// only reads, so a sweep can stamp out one subscriber table per
/// replication from a shared prototype ([`Directory::shared_subscribers`])
/// at O(1) cost instead of re-materializing `count` entries × four
/// attributes every run.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    /// Entries keyed by their `uid` attribute.
    entries: Arc<HashMap<String, DirEntry>>,
    /// Population-scale subscriber range `(base, count)` whose entries are
    /// derived on demand (`uid ∈ base..base+count`, password `pw-<uid>`)
    /// instead of materialized — O(1) memory for 10⁶ subscribers. Explicit
    /// entries always take precedence.
    synthetic: Option<(u64, u64)>,
}

impl Directory {
    /// An empty directory.
    #[must_use]
    pub fn new() -> Self {
        Directory::default()
    }

    /// A directory pre-populated with `count` campus subscribers, uids
    /// `base .. base+count`, each with password `pw-<uid>` and a phone
    /// extension equal to its uid — the shape of the UnB deployment where
    /// IDs map one-to-one to phone numbers.
    #[must_use]
    pub fn with_subscribers(base: u32, count: u32) -> Self {
        let mut dir = Directory::new();
        for uid in base..base + count {
            let mut attrs = HashMap::new();
            attrs.insert("uid".to_owned(), uid.to_string());
            attrs.insert("userPassword".to_owned(), format!("pw-{uid}"));
            attrs.insert("telephoneNumber".to_owned(), uid.to_string());
            attrs.insert("objectClass".to_owned(), "sipUser".to_owned());
            dir.add(DirEntry {
                dn: format!("uid={uid},ou=people,dc=unb,dc=br"),
                attrs,
            });
        }
        dir
    }

    /// A directory whose subscribers are the *rule* `uid ∈
    /// base..base+count → password pw-<uid>` rather than stored rows. The
    /// schema matches [`Directory::with_subscribers`] exactly, but holds no
    /// per-user state — the population-scale counterpart for
    /// million-subscriber workloads, where materializing entries would cost
    /// hundreds of megabytes before the first call is placed.
    #[must_use]
    pub fn with_synthetic_range(base: u64, count: u64) -> Self {
        let mut dir = Directory::new();
        dir.synthetic = Some((base, count));
        dir
    }

    /// Attach (or replace) the synthetic subscriber range on an existing
    /// directory — explicit entries keep taking precedence, so a classic
    /// campus pool and a synthetic million-user population can coexist.
    pub fn set_synthetic_range(&mut self, base: u64, count: u64) {
        self.synthetic = Some((base, count));
    }

    /// Does the synthetic range (if any) cover `uid`?
    fn synthetic_covers(&self, uid: &str) -> bool {
        let Some((base, count)) = self.synthetic else {
            return false;
        };
        // Reject non-canonical spellings ("+5", "007"): synthetic uids are
        // plain decimal with no leading zeros, like every uid this repo
        // generates.
        if uid.is_empty() || !uid.bytes().all(|b| b.is_ascii_digit()) {
            return false;
        }
        if uid.len() > 1 && uid.starts_with('0') {
            return false;
        }
        uid.parse::<u64>()
            .is_ok_and(|u| u >= base && u - base < count)
    }

    /// Bind by uid, with a caller-supplied proof: the directory lends the
    /// stored secret to `proof` (password equality for a simple bind, the
    /// RFC 2617 response check for digest). `None` when no such user
    /// exists. Explicit entries come first, then the synthetic rule, whose
    /// `pw-<uid>` secret is assembled on the stack: nothing is stored or
    /// allocated per user. The registrar counts the outcomes
    /// ([`crate::Registrar::stats`]).
    pub fn bind_uid(&self, uid: &str, proof: impl FnOnce(&str) -> bool) -> Option<BindResult> {
        let ok = if let Some(entry) = self.find_by_uid(uid) {
            entry.attrs.get("userPassword").is_some_and(|pw| proof(pw))
        } else if self.synthetic_covers(uid) {
            // A covered uid is a canonical decimal u64: at most 20 digits.
            let mut secret = [0u8; 3 + 20];
            let len = 3 + uid.len();
            secret[..3].copy_from_slice(b"pw-");
            secret[3..len].copy_from_slice(uid.as_bytes());
            proof(std::str::from_utf8(&secret[..len]).expect("ASCII digits"))
        } else {
            return None;
        };
        Some(if ok {
            BindResult::Success
        } else {
            BindResult::InvalidCredentials
        })
    }

    /// Insert, or replace the entry with the same uid. The first mutation
    /// after a cheap clone pays the copy-on-write (the map is deep-copied
    /// once); further mutations are ordinary map inserts.
    ///
    /// # Panics
    /// If the entry has no `uid` attribute: no bind could reach it.
    pub fn add(&mut self, entry: DirEntry) {
        let uid = entry
            .attrs
            .get("uid")
            .expect("a directory entry names its uid");
        Arc::make_mut(&mut self.entries).insert(uid.clone(), entry);
    }

    /// A clone of the process-wide shared prototype for
    /// `with_subscribers(base, count)` — built cold exactly once per
    /// distinct `(base, count)`, then handed out as one `Arc` bump per
    /// call. Observationally identical to [`Directory::with_subscribers`]
    /// (no synthetic range, same rows); only the setup cost differs. This
    /// is the sweep plane's answer to the dominant per-replication setup
    /// item: every PBX in every replication of a campaign wants the same
    /// 1000-subscriber campus table.
    #[must_use]
    pub fn shared_subscribers(base: u32, count: u32) -> Self {
        use std::sync::{Mutex, OnceLock};
        static MEMO: OnceLock<Mutex<HashMap<(u32, u32), Directory>>> = OnceLock::new();
        let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        map.entry((base, count))
            .or_insert_with(|| Directory::with_subscribers(base, count))
            .clone()
    }

    /// Number of subscribers (explicit entries plus the synthetic range).
    #[must_use]
    pub fn len(&self) -> usize {
        let synth = self.synthetic.map_or(0, |(_, count)| count) as usize;
        self.entries.len() + synth
    }

    /// True when the directory holds no subscribers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The explicit entry for `uid` (the synthetic range has none).
    #[must_use]
    pub fn find_by_uid(&self, uid: &str) -> Option<&DirEntry> {
        self.entries.get(uid)
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
    fn populated_directory_shape() {
        let mut dir = Directory::with_subscribers(1000, 50);
        assert_eq!(dir.len(), 50);
        assert!(!dir.is_empty());
        let e = dir.find_by_uid("1001").unwrap();
        assert_eq!(e.attrs["telephoneNumber"], "1001");
        assert!(e.dn.contains("uid=1001"));
        assert!(dir.find_by_uid("999").is_none());
        assert!(dir.find_by_uid("1050").is_none(), "range is exclusive");
        // Replacing an entry updates rather than duplicates.
        let e = dir.find_by_uid("1000").unwrap().clone();
        dir.add(e);
        assert_eq!(dir.len(), 50);
    }

    #[test]
    fn synthetic_range_behaves_like_materialized_subscribers() {
        let dir = Directory::with_synthetic_range(1_000_000, 1_000_000);
        assert_eq!(dir.len(), 1_000_000);
        assert!(!dir.is_empty());
        // Same observable auth behaviour as with_subscribers, no rows.
        assert_eq!(lent_secret(&dir, "1500000"), Some("pw-1500000".to_owned()));
        assert_eq!(
            bind_password(&dir, "1500000", "pw-1500000"),
            Some(BindResult::Success)
        );
        assert_eq!(
            bind_password(&dir, "1500000", "wrong"),
            Some(BindResult::InvalidCredentials)
        );
        // Outside the range / malformed spellings: no such user.
        assert_eq!(bind_password(&dir, "999999", "pw-999999"), None);
        assert_eq!(bind_password(&dir, "2000000", "pw-2000000"), None);
        assert_eq!(bind_password(&dir, "+1500000", "pw-+1500000"), None);
        assert_eq!(bind_password(&dir, "01500000", "pw-01500000"), None);
        assert_eq!(lent_secret(&dir, "2000000"), None);
        assert!(dir.find_by_uid("1500000").is_none(), "no materialized row");
    }

    #[test]
    fn bind_uid_matches_the_lookup_then_bind_sequence_for_entries() {
        let dir = Directory::with_subscribers(1000, 5);
        assert_eq!(
            bind_password(&dir, "1002", "pw-1002"),
            Some(BindResult::Success)
        );
        assert_eq!(
            bind_password(&dir, "1002", "nope"),
            Some(BindResult::InvalidCredentials)
        );
        assert_eq!(
            bind_password(&dir, "9999", "pw-9999"),
            None,
            "unknown: no bind"
        );
        // Explicit entries win over an overlapping synthetic range.
        let mut both = Directory::with_subscribers(1000, 5);
        both.set_synthetic_range(0, 10_000);
        let mut e = both.find_by_uid("1002").unwrap().clone();
        e.attrs
            .insert("userPassword".to_owned(), "custom".to_owned());
        both.add(e);
        assert_eq!(lent_secret(&both, "1002"), Some("custom".to_owned()));
        assert_eq!(
            bind_password(&both, "1002", "custom"),
            Some(BindResult::Success)
        );
    }

    #[test]
    fn shared_subscribers_matches_cold_build_and_cow_isolates_clones() {
        let shared = Directory::shared_subscribers(1000, 50);
        let cold = Directory::with_subscribers(1000, 50);
        assert_eq!(shared.len(), cold.len());
        for uid in [1000u32, 1025, 1049] {
            let s = shared.find_by_uid(&uid.to_string()).unwrap();
            let c = cold.find_by_uid(&uid.to_string()).unwrap();
            assert_eq!(s, c, "uid {uid}");
        }
        // Two shared clones alias the same rows…
        let other = Directory::shared_subscribers(1000, 50);
        assert!(Arc::ptr_eq(&shared.entries, &other.entries));
        // …until one mutates: COW deep-copies the mutator, the prototype
        // and its siblings are untouched.
        let mut mutated = Directory::shared_subscribers(1000, 50);
        let mut e = mutated.find_by_uid("1000").unwrap().clone();
        e.attrs
            .insert("userPassword".to_owned(), "changed".to_owned());
        mutated.add(e);
        assert_eq!(lent_secret(&mutated, "1000"), Some("changed".to_owned()));
        assert_eq!(
            lent_secret(&Directory::shared_subscribers(1000, 50), "1000"),
            Some("pw-1000".to_owned()),
            "prototype unaffected by a clone's mutation"
        );
    }

    #[test]
    fn empty_directory() {
        let dir = Directory::new();
        assert!(dir.is_empty());
        assert!(dir.find_by_uid("1").is_none());
    }
}
