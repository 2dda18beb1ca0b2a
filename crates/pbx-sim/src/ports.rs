//! The PBX's media-port table: where a packet arriving on a UDP port is
//! relayed to.
//!
//! Every relayed RTP packet asks this question, so the answer is one
//! array read, not a hash probe and not a visit to the call record: media
//! ports are the even numbers from [`FIRST_MEDIA_PORT`] up, and slot
//! `(port − FIRST_MEDIA_PORT) / 2` holds the far leg's `(node, rtp port)`
//! packed into one `u32`. The table grows to the highest port ever bound
//! (at most [`MEDIA_PORTS`] slots, ≈ 108 KiB).

use netsim::NodeId;

/// Lowest media port the PBX hands out.
pub(crate) const FIRST_MEDIA_PORT: u16 = 10_000;
/// Even ports in `FIRST_MEDIA_PORT..=u16::MAX`.
pub(crate) const MEDIA_PORTS: u32 = (u16::MAX - FIRST_MEDIA_PORT) as u32 / 2 + 1;

/// An unbound slot. Its node half is `u16::MAX`, which [`PortTable::bind`]
/// refuses, so no binding packs to it.
const FREE: u32 = u32::MAX;

/// Port → far-leg target bindings plus the allocation cursor.
pub(crate) struct PortTable {
    /// `node << 16 | rtp_port` of the leg media arriving on the port goes
    /// to, or [`FREE`]. RTP port 0 means that leg's SDP has not been seen
    /// yet: the port is bound, but its packets are dropped.
    slots: Vec<u32>,
    next_port: u16,
}

/// Table slot of `port`; `None` for anything that is not a media port.
#[inline]
fn slot_of(port: u16) -> Option<usize> {
    let offset = port.checked_sub(FIRST_MEDIA_PORT)?;
    (offset & 1 == 0).then_some(usize::from(offset / 2))
}

impl PortTable {
    pub(crate) fn new() -> Self {
        PortTable {
            slots: Vec::new(),
            next_port: FIRST_MEDIA_PORT,
        }
    }

    /// Next free media port. Ports cycle through the even numbers from
    /// [`FIRST_MEDIA_PORT`] up; once the range has wrapped, ports still
    /// bound to a live call are skipped (teardown unbinds them). The port
    /// is not bound until [`PortTable::bind`].
    ///
    /// # Panics
    /// If every port in the range is bound to a live call.
    pub(crate) fn alloc(&mut self) -> u16 {
        for _ in 0..MEDIA_PORTS {
            let p = self.next_port;
            self.next_port = p.checked_add(2).unwrap_or(FIRST_MEDIA_PORT);
            if !self.contains(p) {
                return p;
            }
        }
        panic!("media ports exhausted: all {MEDIA_PORTS} are bound to live calls");
    }

    /// Bind `port` (one [`PortTable::alloc`] returned) to relay to
    /// `rtp_port` on `node` (0 while unknown), replacing any earlier
    /// binding.
    pub(crate) fn bind(&mut self, port: u16, node: NodeId, rtp_port: u16) {
        let at = slot_of(port).expect("only allocated media ports are bound");
        assert!(node.0 != u16::MAX, "node {} marks a free port", u16::MAX);
        if at >= self.slots.len() {
            self.slots.resize(at + 1, FREE);
        }
        self.slots[at] = u32::from(node.0) << 16 | u32::from(rtp_port);
    }

    /// The far leg's SDP named its media port: a bound `port` now relays
    /// to `rtp_port` on the node it was bound to. An unbound port stays
    /// unbound.
    pub(crate) fn learn(&mut self, port: u16, rtp_port: u16) {
        if let Some(slot) = slot_of(port).and_then(|at| self.slots.get_mut(at)) {
            if *slot != FREE {
                *slot = *slot & !0xFFFF | u32::from(rtp_port);
            }
        }
    }

    /// Where media arriving on `port` goes: `(node, rtp port)`, the port
    /// 0 while that leg's SDP is unseen. `None` for an unbound port.
    #[inline]
    pub(crate) fn get(&self, port: u16) -> Option<(NodeId, u16)> {
        match *self.slots.get(slot_of(port)?)? {
            FREE => None,
            packed => Some((NodeId((packed >> 16) as u16), packed as u16)),
        }
    }

    pub(crate) fn contains(&self, port: u16) -> bool {
        self.get(port).is_some()
    }

    pub(crate) fn remove(&mut self, port: u16) {
        if let Some(slot) = slot_of(port).and_then(|at| self.slots.get_mut(at)) {
            *slot = FREE;
        }
    }

    /// Number of bound ports.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.iter().filter(|&&s| s != FREE).count()
    }

    /// Unbind everything; the allocation cursor keeps its place.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(FREE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The hash-map bookkeeping the dense table replaced, on an ordered
    /// map: targets keyed by port, the same wrap-and-skip cursor.
    struct Model {
        map: BTreeMap<u16, (NodeId, u16)>,
        next_port: u16,
    }

    impl Model {
        fn alloc(&mut self) -> u16 {
            for _ in 0..MEDIA_PORTS {
                let p = self.next_port;
                self.next_port = p.checked_add(2).unwrap_or(FIRST_MEDIA_PORT);
                if !self.map.contains_key(&p) {
                    return p;
                }
            }
            panic!("model exhausted");
        }

        fn learn(&mut self, port: u16, rtp_port: u16) {
            if let Some(target) = self.map.get_mut(&port) {
                target.1 = rtp_port;
            }
        }
    }

    #[test]
    fn non_media_ports_are_never_bound() {
        let mut t = PortTable::new();
        t.bind(FIRST_MEDIA_PORT + 2, NodeId(7), 6000);
        for port in [
            0,
            5060,
            FIRST_MEDIA_PORT - 2,
            FIRST_MEDIA_PORT + 3,
            u16::MAX - 1,
        ] {
            t.learn(port, 7000);
            assert_eq!(t.get(port), None, "port {port}");
            t.remove(port);
        }
        assert_eq!(t.get(FIRST_MEDIA_PORT + 2), Some((NodeId(7), 6000)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn extreme_targets_round_trip() {
        let mut t = PortTable::new();
        let port = t.alloc();
        for (node, rtp_port) in [(0, 0), (0, u16::MAX), (u16::MAX - 1, u16::MAX)] {
            t.bind(port, NodeId(node), rtp_port);
            assert_eq!(t.get(port), Some((NodeId(node), rtp_port)));
        }
        t.bind(port, NodeId(u16::MAX - 1), 0);
        t.learn(port, u16::MAX);
        assert_eq!(t.get(port), Some((NodeId(u16::MAX - 1), u16::MAX)));
    }

    proptest! {
        /// Random alloc/bind/learn/unbind/lookup/clear sequences. A few
        /// calls bind the lowest ports, then the cursor jumps close to the
        /// top of the range, so it wraps onto ports that are still bound:
        /// same ports out, same targets in.
        #[test]
        fn dense_table_matches_map_model(
            held in 0u16..8,
            back_from_top in 0u16..40,
            ops in proptest::collection::vec((0u8..14, any::<u16>(), any::<u16>()), 1..300),
        ) {
            let mut table = PortTable::new();
            let mut model = Model { map: BTreeMap::new(), next_port: FIRST_MEDIA_PORT };
            let mut handed_out: Vec<u16> = Vec::new();
            for call in 0..held {
                let p = table.alloc();
                prop_assert_eq!(p, model.alloc());
                table.bind(p, NodeId(call), 0);
                model.map.insert(p, (NodeId(call), 0));
                handed_out.push(p);
            }
            let start = u16::MAX - 1 - back_from_top * 2;
            table.next_port = start;
            model.next_port = start;
            for (op, raw, rtp_port) in ops {
                // Mostly ports this run allocated, sometimes any u16 at all.
                let port = match handed_out.len() {
                    0 => raw,
                    n if op % 2 == 0 => handed_out[usize::from(raw) % n],
                    _ => raw,
                };
                // Any node but the free marker; RTP port 0 ("unknown") often.
                let node = NodeId(raw % (u16::MAX - 1));
                let rtp_port = if raw % 3 == 0 { 0 } else { rtp_port };
                match op {
                    0..=4 => {
                        let p = table.alloc();
                        prop_assert_eq!(p, model.alloc());
                        handed_out.push(p);
                        // A call binds what it allocates, as `on_invite` does.
                        if op != 4 {
                            table.bind(p, node, rtp_port);
                            model.map.insert(p, (node, rtp_port));
                        }
                    }
                    5..=7 => {
                        table.remove(port);
                        model.map.remove(&port);
                    }
                    8 | 9 => {
                        // The callee's 200 or a re-INVITE, on a live port or
                        // on one already torn down.
                        table.learn(port, rtp_port);
                        model.learn(port, rtp_port);
                    }
                    10 => {
                        if let Some(&p) = handed_out.last() {
                            // Re-binding a live port replaces, never double-counts.
                            table.bind(p, node, rtp_port);
                            model.map.insert(p, (node, rtp_port));
                        }
                    }
                    11 if raw % 16 == 0 => {
                        table.clear();
                        model.map.clear();
                    }
                    _ => {}
                }
                prop_assert_eq!(table.get(port), model.map.get(&port).copied());
                prop_assert_eq!(table.contains(port), model.map.contains_key(&port));
                prop_assert_eq!(table.len(), model.map.len());
            }
            for (&port, &target) in &model.map {
                prop_assert_eq!(table.get(port), Some(target));
            }
        }
    }
}
