//! The PBX's media-port table: which bridged call, and which of its two
//! legs, a UDP port belongs to.
//!
//! Every relayed RTP packet asks this question, so the answer is an array
//! read, not a hash probe: media ports are the even numbers from
//! [`FIRST_MEDIA_PORT`] up, and slot `(port − FIRST_MEDIA_PORT) / 2` holds
//! the binding in one `u32`. The table grows to the highest port ever
//! bound (at most [`MEDIA_PORTS`] slots, ≈ 108 KiB).

/// Lowest media port the PBX hands out.
pub(crate) const FIRST_MEDIA_PORT: u16 = 10_000;
/// Even ports in `FIRST_MEDIA_PORT..=u16::MAX`.
pub(crate) const MEDIA_PORTS: u32 = (u16::MAX - FIRST_MEDIA_PORT) as u32 / 2 + 1;

/// An unbound slot.
const FREE: u32 = u32::MAX;

/// Port → `(call slot, faces the caller)` bindings plus the allocation
/// cursor.
pub(crate) struct PortTable {
    /// `call << 1 | faces_caller`, or [`FREE`].
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
    /// is not bound until [`PortTable::insert`].
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

    /// Bind `port` (one [`PortTable::alloc`] returned) to a leg of call
    /// slot `call`, replacing any earlier binding.
    pub(crate) fn insert(&mut self, port: u16, call: usize, faces_caller: bool) {
        let at = slot_of(port).expect("only allocated media ports are bound");
        assert!(
            call < (FREE >> 1) as usize,
            "call slots stay far below 2^31"
        );
        if at >= self.slots.len() {
            self.slots.resize(at + 1, FREE);
        }
        self.slots[at] = (call as u32) << 1 | u32::from(faces_caller);
    }

    #[inline]
    pub(crate) fn get(&self, port: u16) -> Option<(usize, bool)> {
        match *self.slots.get(slot_of(port)?)? {
            FREE => None,
            packed => Some(((packed >> 1) as usize, packed & 1 == 1)),
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
    /// map: bindings keyed by port, the same wrap-and-skip cursor.
    struct Model {
        map: BTreeMap<u16, (usize, bool)>,
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
    }

    #[test]
    fn non_media_ports_are_never_bound() {
        let mut t = PortTable::new();
        t.insert(FIRST_MEDIA_PORT + 2, 7, true);
        for port in [
            0,
            5060,
            FIRST_MEDIA_PORT - 2,
            FIRST_MEDIA_PORT + 3,
            u16::MAX - 1,
        ] {
            assert_eq!(t.get(port), None, "port {port}");
            t.remove(port);
        }
        assert_eq!(t.get(FIRST_MEDIA_PORT + 2), Some((7, true)));
        assert_eq!(t.len(), 1);
    }

    proptest! {
        /// Random alloc/bind/unbind/lookup/clear sequences. A few calls
        /// bind the lowest ports, then the cursor jumps close to the top
        /// of the range, so it wraps onto ports that are still bound:
        /// same ports out, same bindings in.
        #[test]
        fn dense_table_matches_map_model(
            held in 0usize..8,
            back_from_top in 0u16..40,
            ops in proptest::collection::vec((0u8..12, any::<u16>(), any::<bool>()), 1..300),
        ) {
            let mut table = PortTable::new();
            let mut model = Model { map: BTreeMap::new(), next_port: FIRST_MEDIA_PORT };
            let mut handed_out: Vec<u16> = Vec::new();
            for call in 0..held {
                let p = table.alloc();
                prop_assert_eq!(p, model.alloc());
                table.insert(p, call, call % 2 == 0);
                model.map.insert(p, (call, call % 2 == 0));
                handed_out.push(p);
            }
            let start = u16::MAX - 1 - back_from_top * 2;
            table.next_port = start;
            model.next_port = start;
            for (op, raw, faces_caller) in ops {
                // Mostly ports this run allocated, sometimes any u16 at all.
                let port = match handed_out.len() {
                    0 => raw,
                    n if op % 2 == 0 => handed_out[usize::from(raw) % n],
                    _ => raw,
                };
                match op {
                    0..=4 => {
                        let p = table.alloc();
                        prop_assert_eq!(p, model.alloc());
                        handed_out.push(p);
                        // A call binds what it allocates, as `on_invite` does.
                        if op != 4 {
                            table.insert(p, usize::from(raw), faces_caller);
                            model.map.insert(p, (usize::from(raw), faces_caller));
                        }
                    }
                    5..=8 => {
                        table.remove(port);
                        model.map.remove(&port);
                    }
                    9 => {
                        if let Some(&p) = handed_out.last() {
                            // Re-binding a live port replaces, never double-counts.
                            table.insert(p, usize::from(raw), faces_caller);
                            model.map.insert(p, (usize::from(raw), faces_caller));
                        }
                    }
                    10 if raw % 16 == 0 => {
                        table.clear();
                        model.map.clear();
                    }
                    _ => {}
                }
                prop_assert_eq!(table.get(port), model.map.get(&port).copied());
                prop_assert_eq!(table.contains(port), model.map.contains_key(&port));
                prop_assert_eq!(table.len(), model.map.len());
            }
            for (&port, &binding) in &model.map {
                prop_assert_eq!(table.get(port), Some(binding));
            }
        }
    }
}
