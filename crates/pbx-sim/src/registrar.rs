//! SIP registrar: binds address-of-records to reachable contacts, with
//! directory-backed authentication.
//!
//! In the paper's deployment users authenticate against LDAP and are then
//! reachable at their campus extension. Here a REGISTER proves the uid's
//! password by RFC 2617 digest or, in the bulk experiments, in an
//! `Authorization: Simple uid password` header (both reach the same
//! directory bind); on success the registrar records where that extension
//! lives (the node it registered from) for one registration lifetime.
//!
//! Every subscriber is a uid in one of the directory's ranges, so the
//! location table is one table per range, indexed by the uid's rank in
//! it: the campus pools and a 10⁶-subscriber population keep their
//! bindings the same way, and no REGISTER allocates a key.

use crate::directory::{parse_uid, BindResult, Directory};
use des::{SimDuration, SimTime};
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

/// What a rank holds when it holds no binding.
const UNBOUND: Binding = Binding {
    node: NodeId(0),
    expires_at: SimTime::ZERO,
};

/// The bindings of one subscriber range, by rank `uid − base`: the
/// binding a bulk install gave ranks `0..installed`, and the bindings
/// REGISTERs have written since.
///
/// A million-subscriber registrar answers for every user, but only the
/// ranks churn has refreshed hold a binding of their own. The written
/// columns grow on write to the highest rank written (ranks they step
/// over keep what they held: the install's binding below `installed`,
/// none above). The churn wheel refreshes contiguous rank ranges in
/// ascending order, so the written ranks form a prefix of about
/// `N · window / expiry` entries: resident memory follows the churn
/// volume, not N. Refresh and lookup never hash, and a refresh allocates
/// only when the columns grow.
#[derive(Debug, Clone)]
struct RangeTable {
    base: u64,
    /// Ranks `0..installed` hold `default` until a REGISTER writes them.
    installed: usize,
    default: Binding,
    /// `expires[rank]` and `nodes[rank]`: the binding written for `rank`
    /// (`SimTime::ZERO`: none). Two columns, 10 B per written rank where
    /// a `Binding` would take 16.
    expires: Vec<SimTime>,
    nodes: Vec<NodeId>,
}

impl RangeTable {
    fn new(base: u64) -> Self {
        RangeTable {
            base,
            installed: 0,
            default: UNBOUND,
            expires: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// The binding `rank` holds, [`UNBOUND`] if none.
    fn held(&self, rank: usize) -> Binding {
        match self.expires.get(rank) {
            Some(&expires_at) => Binding {
                node: self.nodes[rank],
                expires_at,
            },
            None if rank < self.installed => self.default,
            None => UNBOUND,
        }
    }

    /// Store `binding` for `rank`, growing the columns to reach it.
    fn write(&mut self, rank: usize, binding: Binding) {
        if rank >= self.expires.len() {
            let installed_end = self.installed.clamp(self.expires.len(), rank);
            self.expires.resize(installed_end, self.default.expires_at);
            self.nodes.resize(installed_end, self.default.node);
            self.expires.resize(rank + 1, UNBOUND.expires_at);
            self.nodes.resize(rank + 1, UNBOUND.node);
        }
        self.expires[rank] = binding.expires_at;
        self.nodes[rank] = binding.node;
    }

    /// How many ranks hold a binding.
    fn len(&self) -> usize {
        let written = self.expires.iter().filter(|&&t| t > SimTime::ZERO).count();
        written + self.installed.saturating_sub(self.expires.len())
    }
}

/// The registration lifetime granted: the `Expires` every generated
/// REGISTER asks for.
const REGISTRATION_EXPIRY: SimDuration = SimDuration::from_secs(3600);

/// The registrar.
#[derive(Debug, Clone, Default)]
pub struct Registrar {
    /// One table per subscriber range, keyed by the range's base uid.
    tables: Vec<RangeTable>,
    registrations: u64,
    auth_failures: u64,
}

impl Registrar {
    /// The table keyed `base`, created empty if there is none.
    fn table_mut(&mut self, base: u64) -> &mut RangeTable {
        if let Some(idx) = self.tables.iter().position(|t| t.base == base) {
            return &mut self.tables[idx];
        }
        self.tables.push(RangeTable::new(base));
        self.tables.last_mut().expect("just pushed")
    }

    /// Install bindings for a whole contiguous population at once:
    /// `base..base+count` homed on `node`, each expiring one registration
    /// lifetime from `now`. `base` is the base of the directory range that
    /// holds them; whatever that range's table held before is replaced.
    ///
    /// This models the steady state a long-lived deployment is always in —
    /// everyone registered, expiries staggered forward by churn — and
    /// replaces the O(population) REGISTER prime *storm* with an O(1)
    /// install: one shared binding for every rank, and empty columns that
    /// churn fills as it refreshes ranks. Bulk installs do not count as
    /// REGISTER transactions in [`Registrar::stats`]; only the ongoing
    /// churn does, because only the churn sends messages.
    pub fn bulk_install(&mut self, now: SimTime, base: u64, count: u64, node: NodeId) {
        *self.table_mut(base) = RangeTable {
            installed: usize::try_from(count).expect("population fits usize"),
            default: Binding {
                node,
                expires_at: now + REGISTRATION_EXPIRY,
            },
            ..RangeTable::new(base)
        };
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
        if dir.bind_uid(uid, proof) != Some(BindResult::Success) {
            self.auth_failures += 1;
            return RegisterOutcome::AuthFailed;
        }
        let (base, rank) = dir.range_of(uid).expect("a bound uid lies in a range");
        let expires_at = now + REGISTRATION_EXPIRY;
        let rank = usize::try_from(rank).expect("rank fits usize");
        self.table_mut(base)
            .write(rank, Binding { node, expires_at });
        self.registrations += 1;
        RegisterOutcome::Ok
    }

    /// The binding `uid` holds, if it is live at `now`.
    #[must_use]
    pub fn lookup(&self, now: SimTime, uid: &str) -> Option<Binding> {
        let uid = parse_uid(uid)?;
        // The directory's ranges are disjoint, so only the table with the
        // greatest base at or below `uid` can hold it.
        let table = self
            .tables
            .iter()
            .filter(|t| t.base <= uid)
            .max_by_key(|t| t.base)?;
        let rank = usize::try_from(uid - table.base).ok()?;
        Some(table.held(rank)).filter(|b| b.expires_at > now)
    }

    /// Number of ranks that hold a binding, written or installed, until
    /// [`Registrar::clear`] drops them. Expiry hides a binding from
    /// [`Registrar::lookup`] but does not remove it.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tables.iter().map(RangeTable::len).sum()
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

    /// Drop every binding, installed or written — a crash losing the
    /// in-memory location table. Counters survive (they model persistent
    /// logs); endpoints must re-REGISTER before they are reachable again.
    /// Returns how many bindings were lost.
    pub fn clear(&mut self) -> usize {
        let lost = self.len();
        self.tables.clear();
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert_eq!(
            reg.len(),
            1,
            "expiry hides the binding, it does not drop it"
        );
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
        // A churn refresh writes the rank's own binding.
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
        assert_eq!(
            reg.len(),
            1_000_000,
            "the refresh rewrote an installed rank"
        );
        // A uid below the range is no one's.
        assert!(reg.lookup(SimTime::from_secs(1), "999").is_none());
    }

    #[test]
    fn population_crash_drops_the_install() {
        let mut reg = Registrar::default();
        let dir = synthetic(1_000_000, 100);
        reg.bulk_install(SimTime::ZERO, 1_000_000, 100, NodeId(3));
        assert_eq!(reg.clear(), 100);
        assert!(reg.lookup(SimTime::from_secs(1), "1000050").is_none());
        assert_eq!(reg.len(), 0, "the install is lost with the rest");
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
    fn campus_and_population_ranges_coexist() {
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

    #[test]
    fn each_register_binds_its_own_sender() {
        let mut reg = Registrar::default();
        let mut dir = Directory::with_subscribers(1000, 10);
        dir.set_synthetic_range(1_000_000, 100);
        reg.bulk_install(SimTime::ZERO, 1_000_000, 100, NodeId(9));
        let at = SimTime::from_secs(1);
        for (uid, node) in [
            ("1001", NodeId(2)),
            ("1002", NodeId(3)),
            ("1000007", NodeId(4)),
            ("1000008", NodeId(5)),
        ] {
            reg.register(&dir, SimTime::ZERO, uid, &format!("pw-{uid}"), node);
        }
        for (uid, node) in [("1001", 2), ("1002", 3), ("1000007", 4), ("1000008", 5)] {
            assert_eq!(reg.lookup(at, uid).unwrap().node, NodeId(node), "{uid}");
        }
        assert_eq!(reg.lookup(at, "1000006").unwrap().node, NodeId(9));
        assert_eq!(reg.lookup(at, "1000009").unwrap().node, NodeId(9));
        assert_eq!(reg.len(), 102);
    }

    /// The one rule, dense: one `Option<Binding>` per rank of every
    /// directory range. An install fills its range's first `count` ranks
    /// and empties the rest, a REGISTER sets its rank, a crash empties
    /// every rank, and expiry only hides a binding from lookups.
    struct DenseModel {
        /// `(base, ranks)` per directory range.
        ranges: Vec<(u64, Vec<Option<Binding>>)>,
    }

    impl DenseModel {
        fn new(ranges: &[(u64, usize)]) -> Self {
            let ranges = ranges.iter().map(|&(b, n)| (b, vec![None; n])).collect();
            DenseModel { ranges }
        }

        fn slot(&mut self, uid: &str) -> Option<&mut Option<Binding>> {
            let uid = parse_uid(uid)?;
            self.ranges.iter_mut().find_map(|(base, ranks)| {
                let rank = usize::try_from(uid.checked_sub(*base)?).ok()?;
                ranks.get_mut(rank)
            })
        }

        fn bulk_install(&mut self, now: SimTime, base: u64, count: u64, node: NodeId) {
            let expires_at = now + REGISTRATION_EXPIRY;
            let (_, ranks) = self
                .ranges
                .iter_mut()
                .find(|r| r.0 == base)
                .expect("a range base");
            for (rank, b) in ranks.iter_mut().enumerate() {
                *b = (rank < count as usize).then_some(Binding { node, expires_at });
            }
        }

        fn register(&mut self, dir: &Directory, now: SimTime, uid: &str, node: NodeId, ok: bool) {
            if dir.bind_uid(uid, |_| ok) == Some(BindResult::Success) {
                let expires_at = now + REGISTRATION_EXPIRY;
                *self.slot(uid).expect("a bound uid") = Some(Binding { node, expires_at });
            }
        }

        fn lookup(&mut self, now: SimTime, uid: &str) -> Option<Binding> {
            (*self.slot(uid)?).filter(|b| b.expires_at > now)
        }

        fn len(&self) -> usize {
            self.ranges.iter().flat_map(|r| &r.1).flatten().count()
        }

        fn clear(&mut self) -> usize {
            let lost = self.len();
            for (_, ranks) in &mut self.ranges {
                ranks.fill(None);
            }
            lost
        }
    }

    const POP: u64 = 1_000_000;

    proptest! {
        /// Random install/register/lookup/clear sequences against the
        /// dense model. Writes hit ranks in any order, often past the end
        /// of what the sparse columns hold and past the installed count;
        /// uids fall in both directory ranges and past their ends; installs come at any time, before or after a crash; time
        /// runs far enough for install-time and refreshed expiries to
        /// lapse. Same outcomes, bindings, lengths and lost counts.
        #[test]
        fn sparse_table_matches_dense_model(
            ops in proptest::collection::vec((0u8..14, any::<u16>()), 1..300),
        ) {
            let mut dir = Directory::with_subscribers(1000, 10);
            dir.set_synthetic_range(POP, 96);
            let mut reg = Registrar::default();
            let mut model = DenseModel::new(&[(1000, 10), (POP, 96)]);
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
                        for uid in (1000..1012).chain(POP..POP + 100) {
                            let uid = uid.to_string();
                            prop_assert_eq!(reg.lookup(now, &uid), model.lookup(now, &uid), "{}", uid);
                        }
                    }
                }
                prop_assert_eq!(reg.len(), model.len());
            }
        }
    }
}
