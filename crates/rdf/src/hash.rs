//! A fast, non-cryptographic hasher (the FxHash construction used by rustc).
//!
//! The default SipHash of `std::collections::HashMap` is HashDoS-resistant
//! but slow for the short integer keys that dominate this codebase
//! ([`crate::TermId`] values). Hash flooding is not a concern for a local
//! analytical store, so we trade resistance for speed, following the Rust
//! Performance Book's guidance. Implemented locally to avoid a dependency.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with the Fx hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;
/// `BuildHasher` for the Fx hasher.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The FxHash state: a single 64-bit word mixed by rotate-xor-multiply.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            // Mix in the length so "a" and "a\0" hash differently.
            self.add_to_hash(u64::from_le_bytes(buf) ^ (rest.len() as u64));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// An id-only open-addressing hash table: the caller owns the entries
/// (a term table, a key list) and the table holds only their `u32`
/// positions, so nothing is stored twice.
///
/// Probing is linear from the *high* bits of the caller's hash — Fx ends
/// with a multiply, which carries every input bit upward, while its low
/// bits stay weak (sequential keys share them). Beside each position a
/// slot keeps 32 more bits of its entry's hash, so a probe compares an
/// entry only when those match and a miss touches no entry at all. The
/// load stays at most one half, so a miss meets about two occupied slots.
/// A miss still costs ~3× a std map's on a large table (100 against
/// 31 ns, dbpedia-4k terms): the slot array outgrows the cache where the
/// map's one-byte control words do not. Interner lookups in the
/// benchmark's workloads are 97–100 % hits (DESIGN.md §2.7), and hits
/// are faster than the map's.
///
/// Bulk placement ([`IdTable::rebuilt`], `Interner::from_terms`) hashes
/// every entry before placing any: the placing loop's slot reads then do
/// not wait on one another, so their cache misses overlap — interleaved
/// with the hashing, placing a dbpedia-4k term table took three times as
/// long (21 ms against 6.4).
#[derive(Debug, Default, Clone)]
pub(crate) struct IdTable {
    /// `EMPTY`, or an entry's hash tag (high half) and position (low).
    slots: Vec<u64>,
    /// `64 - log2(slots.len())`: shifts a hash down to a slot index.
    shift: u32,
}

/// No entry is at position `u32::MAX` (it is never a valid id).
const EMPTY: u64 = u64::MAX;

/// The hash bits a slot keeps beside its position: bits 16–47, which Fx's
/// final multiply has mixed and which, below 2¹⁷ slots, the slot index
/// (the top bits) does not already fix.
#[inline]
fn tag(hash: u64) -> u64 {
    (hash >> 16) << 32
}

impl IdTable {
    /// A table sized for `n` entries, holding none.
    pub(crate) fn with_capacity(n: usize) -> IdTable {
        let len = n.saturating_mul(2).next_power_of_two().max(8);
        IdTable {
            slots: vec![EMPTY; len],
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// Finds the entry whose hash is `hash` and for which `is` holds:
    /// `Ok(position)`, or `Err(slot)` — the empty slot where
    /// [`IdTable::fill`] would put it.
    #[inline]
    pub(crate) fn probe(&self, hash: u64, is: impl Fn(u32) -> bool) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let tag = tag(hash);
        let mut slot = (hash >> self.shift) as usize;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                entry if entry & !0xffff_ffff == tag && is(entry as u32) => return Ok(entry as u32),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Stores position `id`, hashed as `hash`, in the empty `slot`
    /// [`IdTable::probe`] returned.
    #[inline]
    pub(crate) fn fill(&mut self, slot: usize, hash: u64, id: u32) {
        self.slots[slot] = tag(hash) | u64::from(id);
    }

    /// `true` if the table must grow before holding `n` entries.
    #[inline]
    pub(crate) fn is_full_at(&self, n: usize) -> bool {
        n.saturating_mul(2) > self.slots.len()
    }

    /// Rebuilt for entries `0..n` (and room to double), each placed by
    /// `hash_of(position)`. Entries are known distinct, so nothing is
    /// compared.
    pub(crate) fn rebuilt(n: usize, hash_of: impl Fn(u32) -> u64) -> IdTable {
        let hashes: Vec<u64> = (0..n as u32).map(hash_of).collect();
        let mut table = IdTable::with_capacity(n.saturating_mul(2));
        for (id, &hash) in hashes.iter().enumerate() {
            if let Err(slot) = table.probe(hash, |_| false) {
                table.fill(slot, hash, id as u32);
            }
        }
        table
    }

    /// Heap footprint in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn id_table_finds_what_it_holds_and_grows() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i * 8).collect();
        let mut table = IdTable::default();
        for (i, key) in keys.iter().enumerate() {
            if table.is_full_at(i + 1) {
                table = IdTable::rebuilt(i, |id| hash_of(&keys[id as usize]));
            }
            let slot = table
                .probe(hash_of(key), |id| keys[id as usize] == *key)
                .expect_err("absent");
            table.fill(slot, hash_of(key), i as u32);
        }
        for (i, key) in keys.iter().enumerate() {
            let found = table.probe(hash_of(key), |id| keys[id as usize] == *key);
            assert_eq!(found, Ok(i as u32));
        }
        assert!(table
            .probe(hash_of(&3u64), |id| keys[id as usize] == 3)
            .is_err());
        // a probe compares only entries whose hash tag matches
        let compared = std::cell::Cell::new(0);
        for miss in (0..1000u64).map(|i| i * 8 + 3) {
            let found = table.probe(hash_of(&miss), |id| {
                compared.set(compared.get() + 1);
                keys[id as usize] == miss
            });
            assert!(found.is_err());
        }
        assert_eq!(compared.get(), 0);
        assert!(table.heap_bytes() >= 2 * keys.len() * 8);
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
    }

    #[test]
    fn distinguishes_lengths_of_zero_padded_inputs() {
        // The tail mixing must not collapse "a" and "a\0".
        assert_ne!(hash_of(&[b'a'][..]), hash_of(&[b'a', 0][..]));
    }

    #[test]
    fn works_as_map_hasher() {
        let mut map: FxHashMap<u32, &str> = FxHashMap::default();
        map.insert(1, "one");
        map.insert(2, "two");
        assert_eq!(map.get(&1), Some(&"one"));
        assert_eq!(map.get(&2), Some(&"two"));
        assert_eq!(map.get(&3), None);
    }
}
