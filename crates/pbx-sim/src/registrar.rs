//! SIP registrar: binds address-of-records to reachable contacts, with
//! directory-backed authentication.
//!
//! In the paper's deployment users authenticate against LDAP and are then
//! reachable at their campus extension. Here a REGISTER carries the uid and
//! password (in an `Authorization: Simple uid password` header — a stand-in
//! for digest auth that exercises the same directory code path); on success
//! the registrar records where that extension lives (node + RTP-signalling
//! coordinates) with an expiry.

use crate::directory::{BindResult, Directory};
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

/// Compact bindings for a contiguous population of subscribers homed on
/// one node: a structure-of-arrays table indexed by `uid − base`, one
/// `SimTime` per user.
///
/// A million-subscriber registrar is legitimately O(population) — each
/// user *has* a binding — but the classic map prices that at an owned
/// `String` key plus hash-map overhead per user (~100 B each, and a
/// million-REGISTER prime storm to fill it). This table prices it at
/// 8 bytes flat, installs in one call, and its hot paths (refresh,
/// lookup) never hash or allocate.
#[derive(Debug, Clone)]
struct PopulationBindings {
    base: u64,
    /// `expires_at[uid - base]`; `SimTime::ZERO` means never/expired.
    expires_at: Vec<SimTime>,
    /// All population users are homed on one UA node (the load
    /// generator's), like the classic pool's users.
    node: NodeId,
}

impl PopulationBindings {
    /// Does this table own `uid`? Canonical decimal spellings only.
    fn index_of(&self, uid: &str) -> Option<usize> {
        if uid.is_empty() || !uid.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        if uid.len() > 1 && uid.starts_with('0') {
            return None;
        }
        let u = uid.parse::<u64>().ok()?;
        let idx = u.checked_sub(self.base)?;
        (idx < self.expires_at.len() as u64).then_some(idx as usize)
    }
}

/// The registrar.
#[derive(Debug, Clone)]
pub struct Registrar {
    bindings: FastMap<String, Binding>,
    /// Population-scale contiguous range, if installed; checked before
    /// the classic map (the ranges are disjoint by construction — classic
    /// pools live in 1000..2500, populations at 10⁶+).
    population: Option<PopulationBindings>,
    default_expiry: SimDuration,
    registrations: u64,
    auth_failures: u64,
}

impl Registrar {
    /// A registrar granting `default_expiry` per registration.
    #[must_use]
    pub fn new(default_expiry: SimDuration) -> Self {
        Registrar {
            bindings: FastMap::default(),
            population: None,
            default_expiry,
            registrations: 0,
            auth_failures: 0,
        }
    }

    /// Install bindings for a whole contiguous population at once:
    /// `base..base+count` homed on `node`, each expiring `default_expiry`
    /// from `now`.
    ///
    /// This models the steady state a long-lived deployment is always in —
    /// everyone registered, expiries staggered forward by churn — and
    /// replaces the O(population) REGISTER prime *storm* with an
    /// O(population) memset-shaped install. Bulk installs do not count as
    /// REGISTER transactions in [`Registrar::stats`]; only the ongoing
    /// churn does, because only the churn sends messages.
    pub fn bulk_install(&mut self, now: SimTime, base: u64, count: u64, node: NodeId) {
        let n = usize::try_from(count).expect("population fits usize");
        self.population = Some(PopulationBindings {
            base,
            expires_at: vec![now + self.default_expiry; n],
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
                let expires_at = now + self.default_expiry;
                // Population fast path: an 8-byte store, no key
                // allocation, no hashing.
                if let Some(idx) = self.population.as_ref().and_then(|p| p.index_of(uid)) {
                    self.population.as_mut().expect("just matched").expires_at[idx] = expires_at;
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
    /// invisible and pruned lazily; expired population slots just read as
    /// absent — their storage is fixed either way).
    pub fn lookup(&mut self, now: SimTime, uid: &str) -> Option<Binding> {
        if let Some(p) = &self.population {
            if let Some(idx) = p.index_of(uid) {
                let expires_at = p.expires_at[idx];
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
    /// population slot.
    #[must_use]
    pub fn len(&self) -> usize {
        let pop = self.population.as_ref().map_or(0, |p| p.expires_at.len());
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
            // Crash semantics for the population table: slots survive (the
            // allocation is the table, not the registrations) but every
            // expiry is zeroed, so users read as unregistered until churn
            // re-registers them.
            lost += p.expires_at.iter().filter(|&&t| t > SimTime::ZERO).count();
            p.expires_at.fill(SimTime::ZERO);
        }
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Registrar, Directory) {
        (
            Registrar::new(SimDuration::from_secs(3600)),
            Directory::with_subscribers(1000, 10),
        )
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
        let mut reg = Registrar::new(SimDuration::from_secs(3600));
        let dir = Directory::with_synthetic_range(1_000_000, 1_000_000);
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
        let mut reg = Registrar::new(SimDuration::from_secs(3600));
        let dir = Directory::with_synthetic_range(1_000_000, 100);
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
        let mut reg = Registrar::new(SimDuration::from_secs(3600));
        let mut dir = Directory::with_subscribers(1000, 10);
        dir.add(crate::directory::DirEntry {
            dn: "uid=1003,ou=people,dc=unb,dc=br".to_owned(),
            attrs: [
                ("uid".to_owned(), "1003".to_owned()),
                ("userPassword".to_owned(), "pw-1003".to_owned()),
            ]
            .into_iter()
            .collect(),
        });
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
}
