//! SIP registrar: binds address-of-records to reachable contacts, with
//! directory-backed authentication.
//!
//! In the paper's deployment users authenticate against LDAP and are then
//! reachable at their campus extension. Here a REGISTER proves the uid's
//! password by RFC 2617 digest or, in the bulk experiments, in an
//! `Authorization: Simple uid password` header (both reach the same
//! directory bind); on success the registrar records where that extension
//! lives (node + RTP-signalling coordinates) for one registration lifetime.

use crate::directory::{parse_uid, BindResult, Directory};
use des::{FastMap, SimDuration, SimTime};
use netsim::NodeId;

/// A registered binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binding {
    /// Node where the user agent runs.
    pub node: NodeId,
    /// Registration expiry instant.
    pub expires_at: SimTime,
}

/// Outcome of a REGISTER attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterOutcome {
    /// Accepted; binding stored.
    Ok,
    /// Unknown user or bad password.
    AuthFailed,
}

/// Bindings for a contiguous population of subscribers homed on one node,
/// kept per rank `uid − base` in two parts: the expiry every rank got at
/// install, and a table of the expiries REGISTERs have written since.
///
/// A million-subscriber registrar answers for every user, but only the
/// ranks churn has refreshed hold an expiry of their own. The table grows
/// on write to the highest rank written (ranks it steps over take the
/// default), and every rank past its end reads the default. The churn
/// wheel refreshes contiguous rank ranges in ascending order, so the
/// written ranks form a prefix of about `N · window / expiry` entries:
/// resident memory follows the churn volume, not N. The hot paths
/// (refresh, lookup) never hash, and a refresh allocates only when the
/// table grows.
#[derive(Debug, Clone)]
struct PopulationBindings {
    base: u64,
    /// Ranks `0..count` belong to the population.
    count: usize,
    /// The expiry of every rank at or past `written.len()`: one
    /// registration lifetime after the install, or `SimTime::ZERO`
    /// (expired) after a crash.
    default_expiry: SimTime,
    /// `written[rank]`: expiries written since the install or the last
    /// crash. `SimTime::ZERO` means never/expired.
    written: Vec<SimTime>,
    /// All population users are homed on one UA node (the load
    /// generator's), like the classic pool's users.
    node: NodeId,
}

impl PopulationBindings {
    /// Does this table own `uid`? Canonical decimal spellings only.
    fn index_of(&self, uid: &str) -> Option<usize> {
        let idx = parse_uid(uid)?.checked_sub(self.base)?;
        (idx < self.count as u64).then_some(idx as usize)
    }

    /// The expiry of rank `idx`.
    fn expires_at(&self, idx: usize) -> SimTime {
        self.written
            .get(idx)
            .copied()
            .unwrap_or(self.default_expiry)
    }

    /// Store `expires_at` for rank `idx`, growing the table to reach it.
    fn write(&mut self, idx: usize, expires_at: SimTime) {
        if idx >= self.written.len() {
            self.written.resize(idx + 1, self.default_expiry);
        }
        self.written[idx] = expires_at;
    }

    /// Expire every rank; returns how many held a nonzero expiry.
    fn clear(&mut self) -> usize {
        let unwritten = self.count - self.written.len();
        let mut lost = self.written.iter().filter(|&&t| t > SimTime::ZERO).count();
        if self.default_expiry > SimTime::ZERO {
            lost += unwritten;
        }
        self.default_expiry = SimTime::ZERO;
        self.written.clear();
        lost
    }
}

/// The registration lifetime granted: the `Expires` every generated
/// REGISTER asks for.
const REGISTRATION_EXPIRY: SimDuration = SimDuration::from_secs(3600);

/// The registrar.
#[derive(Debug, Clone, Default)]
pub struct Registrar {
    bindings: FastMap<String, Binding>,
    /// Population-scale contiguous range, if installed; checked before
    /// the classic map (the ranges are disjoint by construction — classic
    /// pools live below 10⁶, populations at 10⁶+).
    population: Option<PopulationBindings>,
    registrations: u64,
    auth_failures: u64,
}

impl Registrar {
    /// Install bindings for a whole contiguous population at once:
    /// `base..base+count` homed on `node`, each expiring one registration
    /// lifetime from `now`.
    ///
    /// This models the steady state a long-lived deployment is always in —
    /// everyone registered, expiries staggered forward by churn — and
    /// replaces the O(population) REGISTER prime *storm* with an O(1)
    /// install: one shared expiry for every rank, and an empty table that
    /// churn fills as it refreshes ranks. Bulk installs do not count as
    /// REGISTER transactions in [`Registrar::stats`]; only the ongoing
    /// churn does, because only the churn sends messages.
    pub fn bulk_install(&mut self, now: SimTime, base: u64, count: u64, node: NodeId) {
        self.population = Some(PopulationBindings {
            base,
            count: usize::try_from(count).expect("population fits usize"),
            default_expiry: now + REGISTRATION_EXPIRY,
            written: Vec::new(),
            node,
        });
    }

    /// Process a REGISTER for `uid` with `password`, binding it to `node`.
    pub fn register(
        &mut self,
        dir: &Directory,
        now: SimTime,
        uid: &str,
        password: &str,
        node: NodeId,
    ) -> RegisterOutcome {
        self.register_with(dir, now, uid, node, |secret| secret == password)
    }

    /// Process a REGISTER for `uid`, binding it to `node` when `proof`
    /// accepts the directory's secret for that user (see
    /// [`Directory::bind_uid`]).
    pub fn register_with(
        &mut self,
        dir: &Directory,
        now: SimTime,
        uid: &str,
        node: NodeId,
        proof: impl FnOnce(&str) -> bool,
    ) -> RegisterOutcome {
        match dir.bind_uid(uid, proof) {
            Some(BindResult::Success) => {
                let expires_at = now + REGISTRATION_EXPIRY;
                // Population fast path: an 8-byte store, no key
                // allocation, no hashing.
                if let Some(idx) = self.population.as_ref().and_then(|p| p.index_of(uid)) {
                    let p = self.population.as_mut().expect("just matched");
                    p.write(idx, expires_at);
                } else {
                    self.bindings
                        .insert(uid.to_owned(), Binding { node, expires_at });
                }
                self.registrations += 1;
                RegisterOutcome::Ok
            }
            _ => {
                self.auth_failures += 1;
                RegisterOutcome::AuthFailed
            }
        }
    }

    /// Look up a *live* binding at time `now` (expired map bindings are
    /// invisible and pruned lazily; expired population ranks just read as
    /// absent).
    pub fn lookup(&mut self, now: SimTime, uid: &str) -> Option<Binding> {
        if let Some(p) = &self.population {
            if let Some(idx) = p.index_of(uid) {
                let expires_at = p.expires_at(idx);
                return (expires_at > now).then_some(Binding {
                    node: p.node,
                    expires_at,
                });
            }
        }
        match self.bindings.get(uid) {
            Some(b) if b.expires_at > now => Some(*b),
            Some(_) => {
                self.bindings.remove(uid);
                None
            }
            None => None,
        }
    }

    /// Number of (possibly stale) stored bindings, counting every
    /// population rank, written or not.
    #[must_use]
    pub fn len(&self) -> usize {
        let pop = self.population.as_ref().map_or(0, |p| p.count);
        self.bindings.len() + pop
    }

    /// True when no bindings are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (successful registrations, auth failures).
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.registrations, self.auth_failures)
    }

    /// Drop every binding — a crash losing the in-memory location table.
    /// Counters survive (they model persistent logs); endpoints must
    /// re-REGISTER before they are reachable again. Returns how many
    /// bindings were lost.
    pub fn clear(&mut self) -> usize {
        let mut lost = self.bindings.len();
        self.bindings.clear();
        if let Some(p) = &mut self.population {
            // Crash semantics for the population: the range survives (it
            // is the deployment, not the registrations) but every expiry
            // is lost, so users read as unregistered until churn
            // re-registers them.
            lost += p.clear();
        }
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A directory holding only the population range `base..base+count`.
    fn synthetic(base: u64, count: u64) -> Directory {
        let mut dir = Directory::new();
        dir.set_synthetic_range(base, count);
        dir
    }

    fn setup() -> (Registrar, Directory) {
        (Registrar::default(), Directory::with_subscribers(1000, 10))
    }

    #[test]
    fn register_and_lookup() {
        let (mut reg, dir) = setup();
        let out = reg.register(&dir, SimTime::ZERO, "1003", "pw-1003", NodeId(5));
        assert_eq!(out, RegisterOutcome::Ok);
        let b = reg.lookup(SimTime::from_secs(10), "1003").unwrap();
        assert_eq!(b.node, NodeId(5));
        assert_eq!(reg.stats(), (1, 0));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn wrong_password_rejected() {
        let (mut reg, dir) = setup();
        let out = reg.register(&dir, SimTime::ZERO, "1003", "nope", NodeId(5));
        assert_eq!(out, RegisterOutcome::AuthFailed);
        assert!(reg.lookup(SimTime::ZERO, "1003").is_none());
        assert_eq!(reg.stats(), (0, 1));
    }

    #[test]
    fn unknown_user_rejected() {
        let (mut reg, dir) = setup();
        let out = reg.register(&dir, SimTime::ZERO, "9999", "pw-9999", NodeId(5));
        assert_eq!(out, RegisterOutcome::AuthFailed);
        assert!(reg.is_empty());
    }

    #[test]
    fn bindings_expire() {
        let (mut reg, dir) = setup();
        reg.register(&dir, SimTime::ZERO, "1001", "pw-1001", NodeId(2));
        assert!(reg.lookup(SimTime::from_secs(3599), "1001").is_some());
        assert!(reg.lookup(SimTime::from_secs(3600), "1001").is_none());
        assert_eq!(reg.len(), 0, "expired binding pruned");
    }

    #[test]
    fn clear_loses_bindings_but_keeps_counters() {
        let (mut reg, dir) = setup();
        reg.register(&dir, SimTime::ZERO, "1001", "pw-1001", NodeId(2));
        reg.register(&dir, SimTime::ZERO, "1002", "pw-1002", NodeId(3));
        assert_eq!(reg.clear(), 2);
        assert!(reg.is_empty());
        assert!(reg.lookup(SimTime::from_secs(1), "1001").is_none());
        assert_eq!(reg.stats(), (2, 0), "history survives the crash");
        // Re-registration works afterwards.
        reg.register(&dir, SimTime::from_secs(2), "1001", "pw-1001", NodeId(2));
        assert!(reg.lookup(SimTime::from_secs(3), "1001").is_some());
    }

    #[test]
    fn bulk_install_registers_a_population_without_a_storm() {
        let mut reg = Registrar::default();
        let dir = synthetic(1_000_000, 1_000_000);
        reg.bulk_install(SimTime::ZERO, 1_000_000, 1_000_000, NodeId(3));
        assert_eq!(reg.len(), 1_000_000);
        let b = reg.lookup(SimTime::from_secs(10), "1234567").unwrap();
        assert_eq!(b.node, NodeId(3));
        assert_eq!(reg.stats(), (0, 0), "installs are not REGISTER traffic");
        // Expiry: a slot that churn never refreshes goes dark.
        assert!(reg.lookup(SimTime::from_secs(3600), "1234567").is_none());
        // Churn refresh rides the numeric fast path (same map-free slot).
        let out = reg.register(
            &dir,
            SimTime::from_secs(3000),
            "1234567",
            "pw-1234567",
            NodeId(3),
        );
        assert_eq!(out, RegisterOutcome::Ok);
        assert!(reg.lookup(SimTime::from_secs(3600), "1234567").is_some());
        assert_eq!(reg.stats(), (1, 0));
        assert_eq!(reg.len(), 1_000_000, "no map entry was created");
        // Out-of-range uids still use the classic path untouched.
        assert!(reg.lookup(SimTime::from_secs(1), "999").is_none());
    }

    #[test]
    fn population_crash_clears_expiries_but_keeps_the_table() {
        let mut reg = Registrar::default();
        let dir = synthetic(1_000_000, 100);
        reg.bulk_install(SimTime::ZERO, 1_000_000, 100, NodeId(3));
        assert_eq!(reg.clear(), 100);
        assert!(reg.lookup(SimTime::from_secs(1), "1000050").is_none());
        assert_eq!(reg.len(), 100, "slots survive; registrations do not");
        // Churn re-registers the user after the crash.
        reg.register(
            &dir,
            SimTime::from_secs(5),
            "1000050",
            "pw-1000050",
            NodeId(3),
        );
        assert!(reg.lookup(SimTime::from_secs(6), "1000050").is_some());
    }

    #[test]
    fn classic_and_population_paths_coexist() {
        let mut reg = Registrar::default();
        let dir = Directory::with_subscribers(1000, 10);
        reg.bulk_install(SimTime::ZERO, 1_000_000, 10, NodeId(9));
        reg.register(&dir, SimTime::ZERO, "1003", "pw-1003", NodeId(5));
        assert_eq!(reg.len(), 11);
        assert_eq!(
            reg.lookup(SimTime::from_secs(1), "1003").unwrap().node,
            NodeId(5)
        );
        assert_eq!(
            reg.lookup(SimTime::from_secs(1), "1000003").unwrap().node,
            NodeId(9)
        );
    }

    #[test]
    fn re_registration_refreshes() {
        let (mut reg, dir) = setup();
        reg.register(&dir, SimTime::ZERO, "1001", "pw-1001", NodeId(2));
        reg.register(&dir, SimTime::from_secs(3000), "1001", "pw-1001", NodeId(7));
        let b = reg.lookup(SimTime::from_secs(4000), "1001").unwrap();
        assert_eq!(b.node, NodeId(7), "newest binding wins");
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.stats(), (2, 0));
    }

    /// The registrar with the dense population table it kept before: one
    /// expiry per rank, every one filled at install, every one zeroed by a
    /// crash. Classic bindings on an ordered map, pruned the same way.
    #[derive(Default)]
    struct DenseModel {
        population: Option<(u64, Vec<SimTime>, NodeId)>,
        classic: BTreeMap<String, Binding>,
    }

    impl DenseModel {
        fn rank(&self, uid: &str) -> Option<usize> {
            let (base, slots, _) = self.population.as_ref()?;
            let idx = parse_uid(uid)?.checked_sub(*base)?;
            (idx < slots.len() as u64).then_some(idx as usize)
        }

        fn bulk_install(&mut self, now: SimTime, base: u64, count: u64, node: NodeId) {
            let slots = vec![now + REGISTRATION_EXPIRY; count as usize];
            self.population = Some((base, slots, node));
        }

        fn register(&mut self, dir: &Directory, now: SimTime, uid: &str, node: NodeId, ok: bool) {
            if dir.bind_uid(uid, |_| ok) != Some(BindResult::Success) {
                return;
            }
            let expires_at = now + REGISTRATION_EXPIRY;
            match self.rank(uid) {
                Some(idx) => self.population.as_mut().expect("ranked").1[idx] = expires_at,
                None => {
                    self.classic
                        .insert(uid.to_owned(), Binding { node, expires_at });
                }
            }
        }

        fn lookup(&mut self, now: SimTime, uid: &str) -> Option<Binding> {
            if let Some(idx) = self.rank(uid) {
                let (_, slots, node) = self.population.as_ref().expect("ranked");
                let expires_at = slots[idx];
                return (expires_at > now).then_some(Binding {
                    node: *node,
                    expires_at,
                });
            }
            let b = *self.classic.get(uid)?;
            if b.expires_at > now {
                return Some(b);
            }
            self.classic.remove(uid);
            None
        }

        fn len(&self) -> usize {
            self.classic.len() + self.population.as_ref().map_or(0, |p| p.1.len())
        }

        fn clear(&mut self) -> usize {
            let mut lost = self.classic.len();
            self.classic.clear();
            if let Some((_, slots, _)) = &mut self.population {
                lost += slots.iter().filter(|&&t| t > SimTime::ZERO).count();
                slots.fill(SimTime::ZERO);
            }
            lost
        }
    }

    const POP: u64 = 1_000_000;

    proptest! {
        /// Random install/register/lookup/clear sequences against the
        /// dense table. Refreshes hit ranks in any order, often past the
        /// end of what the sparse table holds and past the population's
        /// end; installs come at any time, before or after a crash; time
        /// runs far enough for install-time and refreshed expiries to
        /// lapse. Same outcomes, bindings, lengths and lost counts.
        #[test]
        fn sparse_table_matches_dense_model(
            ops in proptest::collection::vec((0u8..14, any::<u16>()), 1..300),
        ) {
            let mut dir = Directory::with_subscribers(1000, 10);
            dir.set_synthetic_range(POP, 96);
            let mut reg = Registrar::default();
            let mut model = DenseModel::default();
            let mut now = SimTime::ZERO;
            for (op, raw) in ops {
                // Ranks past the installed count (the directory still
                // covers them up to 96) and uids no range covers.
                let uid = match raw % 8 {
                    0 => format!("{}", 1000 + u64::from(raw) % 12),
                    _ => format!("{}", POP + u64::from(raw) % 100),
                };
                let node = NodeId(raw % 4);
                match op {
                    0 => {
                        let count = u64::from(raw) % 97;
                        reg.bulk_install(now, POP, count, node);
                        model.bulk_install(now, POP, count, node);
                    }
                    1..=5 => {
                        let ok = op != 5;
                        let out = reg.register_with(&dir, now, &uid, node, |_| ok);
                        model.register(&dir, now, &uid, node, ok);
                        let bound = ok && dir.bind_uid(&uid, |_| true).is_some();
                        let want = if bound { RegisterOutcome::Ok } else { RegisterOutcome::AuthFailed };
                        prop_assert_eq!(out, want);
                    }
                    6..=8 => prop_assert_eq!(reg.lookup(now, &uid), model.lookup(now, &uid)),
                    9 => prop_assert_eq!(reg.clear(), model.clear()),
                    10 | 11 => now += SimDuration::from_secs(u64::from(raw) % 2000),
                    _ => {
                        for rank in 0..100 {
                            let uid = format!("{}", POP + rank);
                            prop_assert_eq!(reg.lookup(now, &uid), model.lookup(now, &uid), "rank {}", rank);
                        }
                    }
                }
                prop_assert_eq!(reg.len(), model.len());
            }
        }
    }
}
