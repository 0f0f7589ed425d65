//! A generational slab: in-flight records parked under dense keys.
//!
//! A model's in-flight records — a request attempt, a storage RPC between
//! arrival and disk completion — live in slots whose key travels in event
//! payloads and resource tokens. A lookup is an index, not a map descent.
//! Removing a record bumps its slot's generation, so a key minted for an
//! earlier occupant (a late ack, a timed-out attempt's leftover
//! completion) no longer resolves and can never reach the slot's next
//! occupant. Freed slots are reused last freed, first reused, so a steady
//! run stops growing the slab.
//!
//! ```
//! use simkit::Slab;
//!
//! let mut slab = Slab::new();
//! let a = slab.insert("first");
//! assert_eq!(slab.remove(a), Some("first"));
//! let b = slab.insert("second");
//! assert_eq!(b.index, a.index); // the slot is reused…
//! assert!(slab.get(a).is_none()); // …but the stale key no longer resolves
//! assert_eq!(slab.get(b), Some(&"second"));
//! ```

/// A slab key: a slot index and the generation it was minted under.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SlotKey {
    /// The slot's index.
    pub index: u32,
    /// The slot's generation when the key was minted.
    pub gen: u32,
}

impl SlotKey {
    /// The key as one word (generation high, index low), for tokens that
    /// must fit a `u64`.
    #[inline]
    pub fn pack(self) -> u64 {
        (self.gen as u64) << 32 | self.index as u64
    }

    /// Inverse of [`SlotKey::pack`].
    #[inline]
    pub fn unpack(word: u64) -> Self {
        SlotKey {
            index: word as u32,
            gen: (word >> 32) as u32,
        }
    }
}

/// Values parked under [`SlotKey`]s. See the module docs.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
}

/// One slot: its current generation and its value, if occupied.
#[derive(Debug)]
struct Slot<T> {
    gen: u32,
    value: Option<T>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty slab with room for `n` live values before it reallocates.
    pub fn with_capacity(n: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(n),
            free: Vec::new(),
        }
    }

    /// Parks `value` and returns its key, unique among live values.
    #[inline]
    pub fn insert(&mut self, value: T) -> SlotKey {
        let index = match self.free.pop() {
            Some(i) => {
                let slot = &mut self.slots[i as usize];
                debug_assert!(slot.value.is_none());
                slot.value = Some(value);
                i
            }
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    value: Some(value),
                });
                (self.slots.len() - 1) as u32
            }
        };
        SlotKey {
            index,
            gen: self.slots[index as usize].gen,
        }
    }

    /// The slot `key` names, if `key` is still its current generation.
    #[inline]
    fn slot(&mut self, key: SlotKey) -> Option<&mut Slot<T>> {
        self.slots
            .get_mut(key.index as usize)
            .filter(|s| s.gen == key.gen)
    }

    /// The value parked under `key`, unless it was removed since.
    #[inline]
    pub fn get(&self, key: SlotKey) -> Option<&T> {
        let slot = self.slots.get(key.index as usize)?;
        if slot.gen != key.gen {
            return None;
        }
        slot.value.as_ref()
    }

    /// Mutable access to the value parked under `key`, unless it was
    /// removed since.
    #[inline]
    pub fn get_mut(&mut self, key: SlotKey) -> Option<&mut T> {
        self.slot(key)?.value.as_mut()
    }

    /// Takes back the value parked under `key`, bumping the slot's
    /// generation (so `key` and every copy of it stop resolving) and
    /// freeing the slot for reuse.
    #[inline]
    pub fn remove(&mut self, key: SlotKey) -> Option<T> {
        let slot = self.slot(key)?;
        let value = slot.value.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(key.index);
        Some(value)
    }
}
