//! A slot table: values under `u32` keys, freed keys reused last-in
//! first-out before the table grows.
//!
//! Every store whose size follows the live population of something — the
//! world's frames in flight, media sessions, the PBX's calls and
//! channels, the monitor's streams and call handles — is one of these, so
//! each holds O(live entries) and, once it has reached its peak,
//! allocates nothing more. Keys are handed out in a
//! fixed order (the last freed first, else the next never-used one), so a
//! run that stores its keys in events stays a pure function of its seed.

use std::ops::{Index, IndexMut};

/// A `Vec<Option<T>>` plus a LIFO free list of its vacant slots.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty table; allocates nothing until the first insert.
    #[must_use]
    pub const fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// An empty table with room for `cap` entries.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        let mut slab = Self::new();
        slab.reserve(cap);
        slab
    }

    /// Room for `additional` more slots without growing.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
    }

    /// Drop every entry and forget every slot, keeping the storage: the
    /// next insert takes key 0 again.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }

    /// Store `value` in the last freed slot, or a new one; returns its key.
    ///
    /// # Panics
    /// If the table would outgrow `u32` keys.
    #[inline]
    pub fn insert(&mut self, value: T) -> u32 {
        if let Some(key) = self.free.pop() {
            self.slots[key as usize] = Some(value);
            return key;
        }
        let key = u32::try_from(self.slots.len()).expect("fewer than 2^32 slab slots");
        self.slots.push(Some(value));
        key
    }

    /// Take the entry under `key` out, freeing its slot; `None` if the
    /// slot is vacant or was never used.
    #[inline]
    pub fn remove(&mut self, key: u32) -> Option<T> {
        let value = self.slots.get_mut(key as usize)?.take()?;
        self.free.push(key);
        Some(value)
    }

    /// The entry under `key`, if the slot holds one.
    #[must_use]
    #[inline]
    pub fn get(&self, key: u32) -> Option<&T> {
        self.slots.get(key as usize)?.as_ref()
    }

    /// The entry under `key`, mutably, if the slot holds one.
    #[inline]
    pub fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        self.slots.get_mut(key as usize)?.as_mut()
    }

    /// Live entries.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no slot holds an entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots ever used since the last [`Slab::clear`]: every live key is
    /// below it.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Live entries and their keys, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        (0u32..)
            .zip(&self.slots)
            .filter_map(|(key, slot)| Some((key, slot.as_ref()?)))
    }
}

impl<T> Index<u32> for Slab<T> {
    type Output = T;

    /// # Panics
    /// On a vacant slot: a key outliving its entry is a bug.
    #[inline]
    fn index(&self, key: u32) -> &T {
        self.get(key).expect("a live slab slot")
    }
}

impl<T> IndexMut<u32> for Slab<T> {
    #[inline]
    fn index_mut(&mut self, key: u32) -> &mut T {
        self.get_mut(key).expect("a live slab slot")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The table as the stores kept it before there was one: a
    /// `Vec<Option<T>>` and a LIFO `Vec<u32>` of freed slots.
    #[derive(Default)]
    struct Model {
        slots: Vec<Option<u32>>,
        free: Vec<u32>,
    }

    impl Model {
        fn insert(&mut self, v: u32) -> u32 {
            if let Some(k) = self.free.pop() {
                self.slots[k as usize] = Some(v);
                return k;
            }
            self.slots.push(Some(v));
            self.slots.len() as u32 - 1
        }

        fn remove(&mut self, k: u32) -> Option<u32> {
            let v = self.slots.get_mut(k as usize)?.take()?;
            self.free.push(k);
            Some(v)
        }
    }

    proptest! {
        /// Arbitrary insert / remove / get / clear / reserve sequences hand
        /// out the model's keys and leave the same entries behind.
        #[test]
        fn slab_matches_vec_and_lifo_free_list_model(
            ops in proptest::collection::vec((0u8..10, any::<u32>()), 1..400),
        ) {
            let mut slab = Slab::new();
            let mut model = Model::default();
            for (op, x) in ops {
                // Keys a little past the used slots, so misses are drawn too.
                let k = x % (model.slots.len() as u32 + 2);
                match op {
                    0..=3 => prop_assert_eq!(slab.insert(x), model.insert(x)),
                    4..=6 => prop_assert_eq!(slab.remove(k), model.remove(k)),
                    7 => {
                        let want = model.slots.get(k as usize).copied().flatten();
                        prop_assert_eq!(slab.get(k).copied(), want);
                        if let Some(v) = slab.get_mut(k) {
                            *v ^= 1;
                            model.slots[k as usize] = Some(*v);
                            prop_assert_eq!(Some(slab[k]), model.slots[k as usize]);
                        }
                    }
                    8 => {
                        if x % 8 == 0 {
                            slab.clear();
                            model = Model::default();
                        }
                    }
                    _ => slab.reserve(x as usize % 64),
                }
                prop_assert_eq!(slab.len(), model.slots.len() - model.free.len());
                prop_assert_eq!(slab.is_empty(), model.slots.len() == model.free.len());
                prop_assert_eq!(slab.slots(), model.slots.len());
                let live: Vec<(u32, u32)> = slab.iter().map(|(k, &v)| (k, v)).collect();
                let want: Vec<(u32, u32)> = (0u32..)
                    .zip(&model.slots)
                    .filter_map(|(k, v)| Some((k, (*v)?)))
                    .collect();
                prop_assert_eq!(live, want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "a live slab slot")]
    fn indexing_a_vacant_slot_panics() {
        let mut slab = Slab::with_capacity(2);
        let k = slab.insert("frame");
        slab.remove(k);
        let _ = slab[k];
    }
}
