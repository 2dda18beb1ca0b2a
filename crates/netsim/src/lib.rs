//! Simulated switched LAN — the testbed network of the paper's Fig. 4.
//!
//! The physical testbed is two SIPp hosts and the Asterisk server hanging
//! off a 10/100 Mb/s switch. This crate models that as a set of directed
//! links, each with a bandwidth, a propagation delay and a finite FIFO
//! output queue (tail-drop). Queueing delay emerges naturally when offered
//! bit-rate approaches link capacity — this is what degrades jitter and,
//! eventually, drops packets at the paper's highest workloads.
//!
//! The network is deliberately **not** coupled to the event queue: callers
//! ask it *when* a packet would be delivered ([`Network::enqueue`]) and
//! schedule their own delivery events, so the same model serves the DES
//! world, unit tests, and the benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod topology;

use des::rng::Distributions;
use des::{SimDuration, SimTime, StreamRng};
use serde::{Deserialize, Serialize};

/// A node on the network (host or switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u16);

/// Parameters of one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// Propagation + per-hop processing delay.
    pub propagation: SimDuration,
    /// Maximum queueing backlog before tail-drop, expressed as time
    /// (backlog bytes / bandwidth). 2–10 ms is typical for a small switch.
    pub max_queue_delay: SimDuration,
    /// Random independent loss probability (models the paper's "packet
    /// errors" at extreme load; 0 for a clean wire).
    pub loss_probability: f64,
}

impl LinkParams {
    /// A healthy 100 Mb/s switched-Ethernet hop.
    #[must_use]
    pub fn fast_ethernet() -> Self {
        LinkParams {
            bandwidth_bps: 100e6,
            propagation: SimDuration::from_micros(50),
            max_queue_delay: SimDuration::from_millis(5),
            loss_probability: 0.0,
        }
    }

    /// A 10 Mb/s hop (the slow half of the paper's 10/100 switch).
    #[must_use]
    pub fn ethernet_10() -> Self {
        LinkParams {
            bandwidth_bps: 10e6,
            propagation: SimDuration::from_micros(50),
            max_queue_delay: SimDuration::from_millis(20),
            loss_probability: 0.0,
        }
    }

    /// Reject parameters no wire can have, where they enter the network.
    /// A zero, negative or non-finite bandwidth would make the
    /// serialisation time `bytes·8 / bandwidth` infinite or NaN, which
    /// [`SimDuration::from_secs_f64`] saturates to *zero* — an infinitely
    /// fast link instead of a dead one.
    ///
    /// # Panics
    /// If `bandwidth_bps` is not finite and positive, or
    /// `loss_probability` is outside `[0, 1]`.
    fn validate(&self) {
        assert!(
            self.bandwidth_bps.is_finite() && self.bandwidth_bps > 0.0,
            "link bandwidth must be finite and > 0 bit/s, got {}",
            self.bandwidth_bps
        );
        assert!(
            (0.0..=1.0).contains(&self.loss_probability),
            "link loss probability must be in [0, 1], got {}",
            self.loss_probability
        );
    }
}

/// Per-link counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Packets accepted and (eventually) delivered.
    pub delivered: u64,
    /// Packets tail-dropped at the queue.
    pub dropped_queue: u64,
    /// Packets lost to random errors.
    pub dropped_error: u64,
    /// Payload+overhead bytes carried.
    pub bytes: u64,
    /// Cumulative busy (transmitting) time.
    pub busy: SimDuration,
}

#[derive(Debug, Clone)]
struct Link {
    params: LinkParams,
    /// Time at which the transmitter finishes everything queued so far.
    busy_until: SimTime,
    stats: LinkStats,
    /// Last `(wire_bytes, serialisation time)` computed under `params`.
    /// Every RTP frame of a run is the same size, so the steady state
    /// re-reads this instead of dividing and rounding per packet. Exact:
    /// the time is a pure function of the key and `params.bandwidth_bps`,
    /// and whoever replaces `params` resets the memo ([`Link::NO_MEMO`]).
    tx_memo: (usize, SimDuration),
}

impl Link {
    /// Zero bytes take zero time on any valid link, so this entry is true
    /// under every `params` — the memo needs no "empty" state.
    const NO_MEMO: (usize, SimDuration) = (0, SimDuration::ZERO);

    fn new(params: LinkParams) -> Self {
        Link {
            params,
            busy_until: SimTime::ZERO,
            stats: LinkStats::default(),
            tx_memo: Link::NO_MEMO,
        }
    }

    #[inline]
    fn tx_time(&mut self, wire_bytes: usize) -> SimDuration {
        if self.tx_memo.0 != wire_bytes {
            let secs = wire_bytes as f64 * 8.0 / self.params.bandwidth_bps;
            self.tx_memo = (wire_bytes, SimDuration::from_secs_f64(secs));
        }
        self.tx_memo.1
    }
}

/// Outcome of offering a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Accepted; will arrive at the far end at this time.
    Delivered {
        /// Arrival instant at the next hop.
        at: SimTime,
    },
    /// Tail-dropped: the queue backlog exceeded the configured bound.
    DroppedQueueFull,
    /// Lost to a random link error.
    DroppedError,
    /// No such link.
    NoRoute,
}

/// Marks a `(from, to)` pair with no link in [`Network::index`].
const NO_LINK: u32 = u32::MAX;

/// A directed link of one [`Network`], resolved once by
/// [`Network::link_id`] so a caller that sends many packets down the same
/// wire can skip the `(from, to)` lookup ([`Network::enqueue_on`]).
///
/// An id is the link's position in the network's link list, which never
/// shrinks or reorders: [`Network::add_link`] over an existing pair
/// replaces the link in place and [`Network::set_link_params`] keeps the
/// slot, so an id stays valid — and keeps naming the same `(from, to)`
/// wire — for the life of the network, across every degrade, partition
/// and heal. It means nothing to any other network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(u32);

/// The directed-link network.
///
/// Node ids are small dense integers (`0..3 + servers` in the Fig. 4
/// star), so links live in a `Vec` in insertion order and a `side × side`
/// table maps `(from, to)` to a position in it: the per-packet lookup is
/// one multiply and two loads, and whole-network folds visit links in an
/// order that does not depend on a hash.
#[derive(Debug, Clone, Default)]
pub struct Network {
    links: Vec<Link>,
    /// `index[from · side + to]` is the link's position in `links`, or
    /// [`NO_LINK`].
    index: Vec<u32>,
    /// One more than the largest node id any link mentions.
    side: usize,
}

impl Network {
    /// An empty network.
    #[must_use]
    pub fn new() -> Self {
        Network::default()
    }

    /// The handle of the directed link `from → to`, if one is installed.
    #[inline]
    #[must_use]
    pub fn link_id(&self, from: NodeId, to: NodeId) -> Option<LinkId> {
        let (from, to) = (usize::from(from.0), usize::from(to.0));
        if from >= self.side || to >= self.side {
            return None;
        }
        match self.index[from * self.side + to] {
            NO_LINK => None,
            at => Some(LinkId(at)),
        }
    }

    #[inline]
    fn link(&self, from: NodeId, to: NodeId) -> Option<&Link> {
        self.link_id(from, to).map(|id| &self.links[id.0 as usize])
    }

    #[inline]
    fn link_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut Link> {
        self.link_id(from, to)
            .map(|id| &mut self.links[id.0 as usize])
    }

    /// Widen the index table to hold node ids below `side`.
    fn grow(&mut self, side: usize) {
        let mut index = vec![NO_LINK; side * side];
        for from in 0..self.side {
            index[from * side..from * side + self.side]
                .copy_from_slice(&self.index[from * self.side..(from + 1) * self.side]);
        }
        self.index = index;
        self.side = side;
    }

    /// Install a directed link; installing over an existing one replaces
    /// it (fresh counters, idle transmitter).
    ///
    /// # Panics
    /// If `params` has a non-positive or non-finite bandwidth, or a loss
    /// probability outside `[0, 1]`.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, params: LinkParams) {
        params.validate();
        if let Some(link) = self.link_mut(from, to) {
            *link = Link::new(params);
            return;
        }
        let needed = usize::from(from.0.max(to.0)) + 1;
        if needed > self.side {
            self.grow(needed);
        }
        self.index[usize::from(from.0) * self.side + usize::from(to.0)] = self.links.len() as u32;
        self.links.push(Link::new(params));
    }

    /// Install both directions with the same parameters.
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        self.add_link(a, b, params);
        self.add_link(b, a, params);
    }

    /// True if a directed link exists.
    #[must_use]
    pub fn has_link(&self, from: NodeId, to: NodeId) -> bool {
        self.link_id(from, to).is_some()
    }

    /// Current parameters of a directed link, if present.
    #[must_use]
    pub fn link_params(&self, from: NodeId, to: NodeId) -> Option<LinkParams> {
        self.link(from, to).map(|l| l.params)
    }

    /// Replace the parameters of an existing directed link at runtime —
    /// the hook the fault injector uses to degrade, partition and heal
    /// wires mid-run. Stats and the transmitter backlog carry over; only
    /// future packets see the new parameters. Returns the previous
    /// parameters, or `None` (and installs nothing) if the link does not
    /// exist.
    ///
    /// # Panics
    /// On the parameters [`Network::add_link`] rejects.
    pub fn set_link_params(
        &mut self,
        from: NodeId,
        to: NodeId,
        params: LinkParams,
    ) -> Option<LinkParams> {
        params.validate();
        let link = self.link_mut(from, to)?;
        link.tx_memo = Link::NO_MEMO;
        Some(std::mem::replace(&mut link.params, params))
    }

    /// [`Network::set_link_params`] applied to both directions. Returns
    /// the previous `(a->b, b->a)` parameters if both links exist; if
    /// either is missing nothing is changed.
    pub fn set_duplex_link_params(
        &mut self,
        a: NodeId,
        b: NodeId,
        params: LinkParams,
    ) -> Option<(LinkParams, LinkParams)> {
        if !(self.has_link(a, b) && self.has_link(b, a)) {
            return None;
        }
        let fwd = self.set_link_params(a, b, params)?;
        let rev = self.set_link_params(b, a, params)?;
        Some((fwd, rev))
    }

    /// Offer `wire_bytes` from `from` to `to` at time `now`: the by-name
    /// entry to [`Network::enqueue_on`].
    ///
    /// On acceptance, returns the arrival time at `to` (queueing +
    /// serialization + propagation). The caller schedules the arrival.
    pub fn enqueue(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        wire_bytes: usize,
        rng: &mut StreamRng,
    ) -> SendOutcome {
        match self.link_id(from, to) {
            Some(link) => self.enqueue_on(link, now, wire_bytes, rng),
            None => SendOutcome::NoRoute,
        }
    }

    /// Offer `wire_bytes` to the link `link` names at time `now`; never
    /// [`SendOutcome::NoRoute`].
    ///
    /// # Panics
    /// If `link` came from a different network with more links than this
    /// one.
    #[inline]
    pub fn enqueue_on(
        &mut self,
        link: LinkId,
        now: SimTime,
        wire_bytes: usize,
        rng: &mut StreamRng,
    ) -> SendOutcome {
        let link = &mut self.links[link.0 as usize];
        if link.params.loss_probability > 0.0 && rng.coin(link.params.loss_probability) {
            link.stats.dropped_error += 1;
            return SendOutcome::DroppedError;
        }
        let start = link.busy_until.max(now);
        let backlog = start.since(now);
        if backlog > link.params.max_queue_delay {
            link.stats.dropped_queue += 1;
            return SendOutcome::DroppedQueueFull;
        }
        let tx = link.tx_time(wire_bytes);
        let done = start + tx;
        link.busy_until = done;
        link.stats.delivered += 1;
        link.stats.bytes += wire_bytes as u64;
        link.stats.busy = link.stats.busy + tx;
        SendOutcome::Delivered {
            at: done + link.params.propagation,
        }
    }

    /// Counters for a directed link.
    #[must_use]
    pub fn stats(&self, from: NodeId, to: NodeId) -> Option<LinkStats> {
        self.link(from, to).map(|l| l.stats)
    }

    /// Aggregate counters over every link.
    #[must_use]
    pub fn total_stats(&self) -> LinkStats {
        let mut agg = LinkStats::default();
        for l in &self.links {
            agg.delivered += l.stats.delivered;
            agg.dropped_queue += l.stats.dropped_queue;
            agg.dropped_error += l.stats.dropped_error;
            agg.bytes += l.stats.bytes;
            agg.busy = agg.busy + l.stats.busy;
        }
        agg
    }

    /// Utilisation of a directed link over `[0, until]`.
    #[must_use]
    pub fn utilisation(&self, from: NodeId, to: NodeId, until: SimTime) -> f64 {
        let span = until.as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.stats(from, to)
            .map_or(0.0, |s| s.busy.as_secs_f64() / span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StreamRng {
        StreamRng::seed_from_u64(1)
    }

    const A: NodeId = NodeId(1);
    const B: NodeId = NodeId(2);

    fn one_link(params: LinkParams) -> Network {
        let mut n = Network::new();
        n.add_link(A, B, params);
        n
    }

    #[test]
    fn delivery_time_is_tx_plus_propagation() {
        let mut n = one_link(LinkParams {
            bandwidth_bps: 1e6, // 1 Mb/s: 1000 bytes = 8 ms
            propagation: SimDuration::from_millis(2),
            max_queue_delay: SimDuration::from_secs(1),
            loss_probability: 0.0,
        });
        let out = n.enqueue(SimTime::ZERO, A, B, 1000, &mut rng());
        match out {
            SendOutcome::Delivered { at } => {
                assert_eq!(at, SimTime::from_millis(10), "8 ms tx + 2 ms prop");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut n = one_link(LinkParams {
            bandwidth_bps: 1e6,
            propagation: SimDuration::ZERO,
            max_queue_delay: SimDuration::from_secs(1),
            loss_probability: 0.0,
        });
        let mut r = rng();
        let t1 = match n.enqueue(SimTime::ZERO, A, B, 1000, &mut r) {
            SendOutcome::Delivered { at } => at,
            o => panic!("{o:?}"),
        };
        let t2 = match n.enqueue(SimTime::ZERO, A, B, 1000, &mut r) {
            SendOutcome::Delivered { at } => at,
            o => panic!("{o:?}"),
        };
        assert_eq!(t1, SimTime::from_millis(8));
        assert_eq!(t2, SimTime::from_millis(16), "second waits for the first");
    }

    #[test]
    fn idle_link_does_not_accumulate_backlog() {
        let mut n = one_link(LinkParams {
            bandwidth_bps: 1e6,
            propagation: SimDuration::ZERO,
            max_queue_delay: SimDuration::from_millis(10),
            loss_probability: 0.0,
        });
        let mut r = rng();
        n.enqueue(SimTime::ZERO, A, B, 1000, &mut r);
        // 1 s later the link is idle again; a new packet sees no queue.
        let t = match n.enqueue(SimTime::from_secs(1), A, B, 1000, &mut r) {
            SendOutcome::Delivered { at } => at,
            o => panic!("{o:?}"),
        };
        assert_eq!(t, SimTime::from_secs(1) + SimDuration::from_millis(8));
    }

    #[test]
    fn queue_overflow_tail_drops() {
        let mut n = one_link(LinkParams {
            bandwidth_bps: 1e6,
            propagation: SimDuration::ZERO,
            max_queue_delay: SimDuration::from_millis(20), // fits 2.5 packets
            loss_probability: 0.0,
        });
        let mut r = rng();
        let mut delivered = 0;
        let mut dropped = 0;
        for _ in 0..10 {
            match n.enqueue(SimTime::ZERO, A, B, 1000, &mut r) {
                SendOutcome::Delivered { .. } => delivered += 1,
                SendOutcome::DroppedQueueFull => dropped += 1,
                o => panic!("{o:?}"),
            }
        }
        assert!((3..=4).contains(&delivered), "delivered={delivered}");
        assert_eq!(delivered + dropped, 10);
        let stats = n.stats(A, B).unwrap();
        assert_eq!(stats.delivered, delivered);
        assert_eq!(stats.dropped_queue, dropped);
    }

    #[test]
    fn random_loss_drops_roughly_p_fraction() {
        let mut n = one_link(LinkParams {
            bandwidth_bps: 1e9,
            propagation: SimDuration::ZERO,
            max_queue_delay: SimDuration::from_secs(10),
            loss_probability: 0.1,
        });
        let mut r = rng();
        let mut errors = 0u64;
        let total = 20_000u64;
        for i in 0..total {
            if matches!(
                n.enqueue(SimTime::from_millis(i), A, B, 100, &mut r),
                SendOutcome::DroppedError
            ) {
                errors += 1;
            }
        }
        let frac = errors as f64 / total as f64;
        assert!((frac - 0.1).abs() < 0.01, "frac={frac}");
        assert_eq!(n.stats(A, B).unwrap().dropped_error, errors);
    }

    #[test]
    fn no_route_is_reported() {
        let mut n = Network::new();
        assert_eq!(
            n.enqueue(SimTime::ZERO, A, B, 10, &mut rng()),
            SendOutcome::NoRoute
        );
        assert!(!n.has_link(A, B));
        assert!(n.stats(A, B).is_none());
    }

    #[test]
    fn duplex_links_are_independent() {
        let mut n = Network::new();
        n.add_duplex_link(A, B, LinkParams::fast_ethernet());
        assert!(n.has_link(A, B) && n.has_link(B, A));
        let mut r = rng();
        // Saturate A->B; B->A must be unaffected.
        for _ in 0..100 {
            n.enqueue(SimTime::ZERO, A, B, 10_000, &mut r);
        }
        let t = match n.enqueue(SimTime::ZERO, B, A, 100, &mut r) {
            SendOutcome::Delivered { at } => at,
            o => panic!("{o:?}"),
        };
        assert!(t < SimTime::from_millis(1), "reverse direction idle");
    }

    #[test]
    fn utilisation_and_totals() {
        let mut n = one_link(LinkParams {
            bandwidth_bps: 1e6,
            propagation: SimDuration::ZERO,
            max_queue_delay: SimDuration::from_secs(10),
            loss_probability: 0.0,
        });
        let mut r = rng();
        // 10 packets × 8 ms = 80 ms busy in 1 s: 8% utilisation.
        for i in 0..10u64 {
            n.enqueue(SimTime::from_millis(i * 100), A, B, 1000, &mut r);
        }
        let u = n.utilisation(A, B, SimTime::from_secs(1));
        assert!((u - 0.08).abs() < 1e-9, "u={u}");
        assert_eq!(n.utilisation(A, B, SimTime::ZERO), 0.0);
        let tot = n.total_stats();
        assert_eq!(tot.delivered, 10);
        assert_eq!(tot.bytes, 10_000);
    }

    /// Every value the validation rejects, through both entry points.
    #[test]
    fn impossible_link_parameters_are_rejected() {
        let rejected = |edit: fn(&mut LinkParams)| {
            let mut bad = LinkParams::fast_ethernet();
            edit(&mut bad);
            let add = std::panic::catch_unwind(|| Network::new().add_link(A, B, bad));
            let set = std::panic::catch_unwind(|| {
                one_link(LinkParams::fast_ethernet()).set_link_params(A, B, bad)
            });
            add.is_err() && set.is_err()
        };
        assert!(rejected(|p| p.bandwidth_bps = 0.0), "zero bandwidth");
        assert!(rejected(|p| p.bandwidth_bps = -1e6), "negative bandwidth");
        assert!(rejected(|p| p.bandwidth_bps = f64::NAN), "NaN bandwidth");
        assert!(rejected(|p| p.bandwidth_bps = f64::INFINITY), "infinite");
        assert!(rejected(|p| p.loss_probability = -0.01), "negative loss");
        assert!(rejected(|p| p.loss_probability = 1.01), "loss above one");
        assert!(rejected(|p| p.loss_probability = f64::NAN), "NaN loss");
        // The partition fault's 100 % loss is a legal wire.
        assert!(!rejected(|p| p.loss_probability = 1.0));
    }

    #[test]
    fn retuned_link_serialises_the_very_next_packet_at_the_new_rate() {
        let mut params = LinkParams {
            bandwidth_bps: 1e6,
            propagation: SimDuration::ZERO,
            max_queue_delay: SimDuration::from_secs(1),
            loss_probability: 0.0,
        };
        let mut n = one_link(params);
        let mut r = rng();
        let mut send = |n: &mut Network, at_s: u64| match n.enqueue(
            SimTime::from_secs(at_s),
            A,
            B,
            1000,
            &mut r,
        ) {
            SendOutcome::Delivered { at } => at.since(SimTime::from_secs(at_s)),
            o => panic!("{o:?}"),
        };
        assert_eq!(send(&mut n, 0), SimDuration::from_millis(8));
        assert_eq!(send(&mut n, 1), SimDuration::from_millis(8), "memo hit");
        params.bandwidth_bps = 2e6;
        n.set_link_params(A, B, params);
        assert_eq!(send(&mut n, 2), SimDuration::from_millis(4), "same size");
        params.bandwidth_bps = 1e6;
        n.set_link_params(A, B, params);
        assert_eq!(send(&mut n, 3), SimDuration::from_millis(8), "healed");
    }

    #[test]
    fn link_id_survives_retune_re_add_and_growth() {
        let mut n = one_link(LinkParams::fast_ethernet());
        let id = n.link_id(A, B).expect("installed");
        assert_eq!(n.link_id(B, A), None, "directed");
        let mut r = rng();
        // Degrade, partition, heal: the slot stays, the id keeps naming it.
        let mut cut = LinkParams::fast_ethernet();
        cut.loss_probability = 1.0;
        n.set_link_params(A, B, cut);
        assert_eq!(
            n.enqueue_on(id, SimTime::ZERO, 218, &mut r),
            SendOutcome::DroppedError
        );
        n.set_link_params(A, B, LinkParams::ethernet_10());
        // Re-adding over the pair replaces in place; a link to a far node
        // regrows the index table. Neither moves the slot.
        n.add_link(A, B, LinkParams::fast_ethernet());
        n.add_link(NodeId(9), A, LinkParams::fast_ethernet());
        assert_eq!(n.link_id(A, B), Some(id));
        let by_id = n.enqueue_on(id, SimTime::from_secs(1), 218, &mut r);
        let by_name =
            one_link(LinkParams::fast_ethernet()).enqueue(SimTime::from_secs(1), A, B, 218, &mut r);
        assert_eq!(by_id, by_name);
        assert_eq!(n.stats(A, B).unwrap().delivered, 1, "fresh counters");
    }

    /// The map-of-links `Network` this crate shipped before the dense
    /// tables, recomputing the serialisation time on every packet.
    #[derive(Default)]
    struct ModelNetwork {
        links: std::collections::BTreeMap<(NodeId, NodeId), (LinkParams, SimTime, LinkStats)>,
    }

    impl ModelNetwork {
        fn add_link(&mut self, from: NodeId, to: NodeId, params: LinkParams) {
            self.links
                .insert((from, to), (params, SimTime::ZERO, LinkStats::default()));
        }

        fn set_link_params(
            &mut self,
            from: NodeId,
            to: NodeId,
            params: LinkParams,
        ) -> Option<LinkParams> {
            self.links
                .get_mut(&(from, to))
                .map(|l| std::mem::replace(&mut l.0, params))
        }

        fn enqueue(
            &mut self,
            now: SimTime,
            from: NodeId,
            to: NodeId,
            wire_bytes: usize,
            rng: &mut StreamRng,
        ) -> SendOutcome {
            let Some((params, busy_until, stats)) = self.links.get_mut(&(from, to)) else {
                return SendOutcome::NoRoute;
            };
            if params.loss_probability > 0.0 && rng.coin(params.loss_probability) {
                stats.dropped_error += 1;
                return SendOutcome::DroppedError;
            }
            let start = (*busy_until).max(now);
            if start.since(now) > params.max_queue_delay {
                stats.dropped_queue += 1;
                return SendOutcome::DroppedQueueFull;
            }
            let tx = SimDuration::from_secs_f64(wire_bytes as f64 * 8.0 / params.bandwidth_bps);
            *busy_until = start + tx;
            stats.delivered += 1;
            stats.bytes += wire_bytes as u64;
            stats.busy = stats.busy + tx;
            SendOutcome::Delivered {
                at: *busy_until + params.propagation,
            }
        }
    }

    proptest::proptest! {
        /// Random build/retune/send sequences over a handful of nodes:
        /// the dense network and the map model agree on every outcome
        /// and every counter. Sizes repeat (memo hits), change (memo
        /// misses) and straddle retunes (memo resets); re-adding a live
        /// link resets it in both. Half the sends go through a
        /// [`LinkId`] resolved the first time the pair was seen and held
        /// from then on — across every later retune and re-add.
        #[test]
        fn dense_network_matches_map_model(
            ops in proptest::collection::vec(
                (0u8..10, 0u16..6, 0u16..6, 0usize..4, 0usize..4, 0u64..400),
                1..200,
            ),
        ) {
            const SIZES: [usize; 4] = [218, 218, 746, 1500];
            let tunings = [
                LinkParams::fast_ethernet(),
                LinkParams::ethernet_10(),
                LinkParams {
                    bandwidth_bps: 3.3e6,
                    propagation: SimDuration::from_micros(7),
                    max_queue_delay: SimDuration::from_micros(900),
                    loss_probability: 0.25,
                },
                LinkParams { loss_probability: 1.0, ..LinkParams::fast_ethernet() },
            ];
            let mut dense = Network::new();
            let mut model = ModelNetwork::default();
            let (mut rng_dense, mut rng_model) = (rng(), rng());
            let mut held = std::collections::BTreeMap::new();
            let mut now = SimTime::ZERO;
            for (op, a, b, tuning, size, gap_us) in ops {
                let (a, b, params) = (NodeId(a), NodeId(b), tunings[tuning]);
                match op {
                    0 => {
                        dense.add_link(a, b, params);
                        model.add_link(a, b, params);
                    }
                    1 => {
                        dense.add_duplex_link(a, b, params);
                        model.add_link(a, b, params);
                        model.add_link(b, a, params);
                    }
                    2 => {
                        let was = dense.set_link_params(a, b, params);
                        proptest::prop_assert_eq!(was, model.set_link_params(a, b, params));
                    }
                    _ => {
                        now += SimDuration::from_micros(gap_us);
                        let id = dense.link_id(a, b);
                        if let Some(id) = id {
                            proptest::prop_assert_eq!(*held.entry((a, b)).or_insert(id), id);
                        }
                        let got = match held.get(&(a, b)) {
                            Some(&id) if op % 2 == 0 => {
                                dense.enqueue_on(id, now, SIZES[size], &mut rng_dense)
                            }
                            _ => dense.enqueue(now, a, b, SIZES[size], &mut rng_dense),
                        };
                        let want = model.enqueue(now, a, b, SIZES[size], &mut rng_model);
                        proptest::prop_assert_eq!(got, want);
                    }
                }
            }
            for (&(a, b), &id) in &held {
                let want = model.links[&(a, b)];
                let link = &dense.links[id.0 as usize];
                proptest::prop_assert_eq!(link.busy_until, want.1);
                proptest::prop_assert_eq!((link.params, link.stats), (want.0, want.2));
            }
            let mut total = LinkStats::default();
            for from in (0..6).map(NodeId) {
                for to in (0..6).map(NodeId) {
                    let want = model.links.get(&(from, to));
                    proptest::prop_assert_eq!(dense.has_link(from, to), want.is_some());
                    proptest::prop_assert_eq!(dense.link_params(from, to), want.map(|l| l.0));
                    proptest::prop_assert_eq!(dense.stats(from, to), want.map(|l| l.2));
                    let Some(&(_, _, want)) = want else {
                        continue;
                    };
                    let until = now + SimDuration::from_secs(1);
                    proptest::prop_assert_eq!(
                        dense.utilisation(from, to, until).to_bits(),
                        (want.busy.as_secs_f64() / until.as_secs_f64()).to_bits()
                    );
                    total.delivered += want.delivered;
                    total.dropped_queue += want.dropped_queue;
                    total.dropped_error += want.dropped_error;
                    total.bytes += want.bytes;
                    total.busy = total.busy + want.busy;
                }
            }
            proptest::prop_assert_eq!(dense.total_stats(), total);
        }
    }

    #[test]
    fn g711_stream_fits_100mbps_comfortably() {
        // Sanity: 480 unidirectional G.711 flows (240 calls relayed) is
        // 480 × 50 pps × 218 B ≈ 42 Mb/s — under the 100 Mb/s line rate,
        // matching the paper's observation that the wire is not the
        // bottleneck.
        let flows = 480.0;
        let bps = flows * 50.0 * 218.0 * 8.0;
        assert!(bps < 100e6 * 0.5, "bps={bps}");
    }
}
