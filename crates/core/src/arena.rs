//! Packed state interning arena for the exact solvers.
//!
//! Each search shard owns one [`StateArena`]: canonical configurations
//! are bit-packed into a shared `Vec<u64>` word store (a bump arena with
//! a fixed per-key word stride), per-state search metadata
//! (`dist`/`parent`/`move`) lives in a parallel `Vec<Meta>`, and an
//! open-addressing hash table maps packed keys to 32-bit arena indices.
//! Compared to the previous `HashMap<Key, Entry<Key>>` closed set this
//! stores each key once (no clone into the `Entry`), replaces the owned
//! parent key by an 8-byte global id, and keeps the table itself at four
//! bytes per slot.
//!
//! Global ids (`gid`) identify a state across shards as
//! `shard << 32 | arena_index`; the root marks itself with a self-loop
//! parent so path reconstruction can stop without a sentinel value.

use crate::search::PackedMove;

/// Upper bound on packed-key width, in 64-bit words.
///
/// The widest key the solvers produce is the three-level hierarchical
/// configuration at `k = 4` processors over `n = 64` nodes: six 64-bit
/// masks (four red sets plus the green and blue sets). Cross-shard
/// messages embed keys inline at this width.
pub const MAX_KEY_WORDS: usize = 6;

/// Empty slot marker in the open-addressing table.
const EMPTY: u32 = u32::MAX;

/// Per-state search metadata, stored parallel to the packed key words.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Meta {
    /// Best known distance from the root.
    pub dist: u64,
    /// Global id of the predecessor on the best known path (self-loop
    /// for the root).
    pub parent: u64,
    /// Move applied on the `parent -> this` edge.
    pub mv: PackedMove,
}

/// Builds a global state id from a shard index and an arena index.
#[inline]
pub(crate) fn gid(shard: usize, idx: u32) -> u64 {
    ((shard as u64) << 32) | u64::from(idx)
}

/// Shard component of a global state id.
#[inline]
pub(crate) fn gid_shard(g: u64) -> usize {
    (g >> 32) as usize
}

/// Arena-index component of a global state id.
#[inline]
pub(crate) fn gid_idx(g: u64) -> u32 {
    g as u32
}

/// Hashes a packed key with the vendored Fx mixing step plus a murmur3
/// finalizer so both the low bits (table slot) and the high bits (shard
/// selection via [`shard_of`]) are well distributed.
#[inline]
pub(crate) fn hash_words(words: &[u64]) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = 0u64;
    for &w in words {
        h = (h.rotate_left(5) ^ w).wrapping_mul(SEED);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

/// Maps a key hash to its owning shard with the fastrange reduction
/// (consumes the high bits, decorrelated from the table-slot low bits).
#[inline]
pub(crate) fn shard_of(hash: u64, shards: usize) -> usize {
    ((u128::from(hash) * shards as u128) >> 64) as usize
}

/// Number of 64-bit words needed to pack `fields` fields of `bits` bits.
#[inline]
pub fn words_for(fields: usize, bits: usize) -> usize {
    (fields * bits).div_ceil(64).max(1)
}

/// Packs `fields` (each at most `bits` bits wide) into `out`,
/// little-endian within and across words. `out` must already be sized
/// by [`words_for`]; it is fully overwritten.
#[inline]
pub fn pack_fields(fields: &[u64], bits: usize, out: &mut [u64]) {
    debug_assert!((1..=64).contains(&bits));
    for w in out.iter_mut() {
        *w = 0;
    }
    let mut bit = 0usize;
    for &f in fields {
        debug_assert!(bits == 64 || f >> bits == 0);
        let w = bit / 64;
        let off = bit % 64;
        out[w] |= f << off;
        if off + bits > 64 {
            // `off > 0` here because `bits <= 64`, so the shift is valid.
            out[w + 1] |= f >> (64 - off);
        }
        bit += bits;
    }
}

/// Inverse of [`pack_fields`]: extracts `fields.len()` fields of `bits`
/// bits each from `words`.
#[inline]
pub fn unpack_fields(words: &[u64], bits: usize, fields: &mut [u64]) {
    debug_assert!((1..=64).contains(&bits));
    let mask = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    let mut bit = 0usize;
    for f in fields.iter_mut() {
        let w = bit / 64;
        let off = bit % 64;
        let mut v = words[w] >> off;
        if off + bits > 64 {
            v |= words[w + 1] << (64 - off);
        }
        *f = v & mask;
        bit += bits;
    }
}

/// Asks the processor to start loading the cache line that holds `*p`,
/// so a later read of it need not wait for memory. A no-op off x86-64.
#[inline(always)]
fn prefetch<T>(p: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a cache hint. It reads and writes no
    // program-visible memory and cannot fault, and `p` is a live
    // reference in any case.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(p).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Interning arena: packed key words + metadata + index table.
#[derive(Debug)]
pub(crate) struct StateArena {
    /// Words per key (fixed stride into `words`).
    kw: usize,
    /// Bump store of packed keys, `kw` words per state.
    words: Vec<u64>,
    /// Search metadata, parallel to the key store.
    meta: Vec<Meta>,
    /// Open-addressing table of arena indices (`EMPTY` = free slot).
    table: Vec<u32>,
    /// `table.len() - 1` (table length is a power of two).
    mask: usize,
}

impl StateArena {
    /// Fresh arena for keys of `kw` words.
    pub fn new(kw: usize) -> Self {
        assert!((1..=MAX_KEY_WORDS).contains(&kw));
        let cap = 1 << 10;
        StateArena {
            kw,
            words: Vec::new(),
            meta: Vec::new(),
            table: vec![EMPTY; cap],
            mask: cap - 1,
        }
    }

    /// Number of interned states.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Packed key words of state `idx`.
    #[inline]
    pub fn key_words(&self, idx: u32) -> &[u64] {
        let s = idx as usize * self.kw;
        &self.words[s..s + self.kw]
    }

    /// Metadata of state `idx`.
    #[inline]
    pub fn meta(&self, idx: u32) -> Meta {
        self.meta[idx as usize]
    }

    /// Bytes currently reserved by the arena (key store + metadata +
    /// table), counting capacity rather than length so the figure
    /// reflects the true allocation.
    pub fn bytes(&self) -> u64 {
        (self.words.capacity() * 8
            + self.meta.capacity() * std::mem::size_of::<Meta>()
            + self.table.capacity() * 4) as u64
    }

    /// The table slot a lookup of `hash` probes first.
    #[inline]
    fn first_slot(&self, hash: u64) -> usize {
        hash as usize & self.mask
    }

    /// Asks the processor to fetch the table slot a lookup of `hash`
    /// probes first.
    #[inline]
    pub fn prefetch_slot(&self, hash: u64) {
        prefetch(&self.table[self.first_slot(hash)]);
    }

    /// Asks the processor to fetch the key words and metadata of the
    /// state in the slot a lookup of `hash` probes first, if it holds
    /// one: the entry [`StateArena::relax`] compares against first.
    #[inline]
    pub fn prefetch_entry(&self, hash: u64) {
        let e = self.table[self.first_slot(hash)];
        if e != EMPTY {
            prefetch(&self.words[e as usize * self.kw]);
            prefetch(&self.meta[e as usize]);
        }
    }

    /// Interns `key` (hash precomputed via [`hash_words`]) if new, and
    /// updates its metadata when `dist` improves the stored distance.
    /// Returns the arena index and whether the state's distance was
    /// created or improved (i.e. the caller should enqueue it).
    #[inline]
    pub fn relax(
        &mut self,
        key: &[u64],
        hash: u64,
        dist: u64,
        parent: u64,
        mv: PackedMove,
    ) -> (u32, bool) {
        debug_assert_eq!(key.len(), self.kw);
        let mut slot = self.first_slot(hash);
        loop {
            let e = self.table[slot];
            if e == EMPTY {
                let idx = self.meta.len() as u32;
                self.words.extend_from_slice(key);
                self.meta.push(Meta { dist, parent, mv });
                self.table[slot] = idx;
                // Keep the load factor at or below 1/2.
                if self.meta.len() * 2 >= self.table.len() {
                    self.grow();
                }
                return (idx, true);
            }
            if self.key_words(e) == key {
                let m = &mut self.meta[e as usize];
                if dist < m.dist {
                    m.dist = dist;
                    m.parent = parent;
                    m.mv = mv;
                    return (e, true);
                }
                return (e, false);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Doubles the table, rehashing every interned key.
    fn grow(&mut self) {
        let ncap = self.table.len() * 2;
        let nmask = ncap - 1;
        let mut nt = vec![EMPTY; ncap];
        for idx in 0..self.meta.len() as u32 {
            let h = hash_words(self.key_words(idx));
            let mut slot = h as usize & nmask;
            while nt[slot] != EMPTY {
                slot = (slot + 1) & nmask;
            }
            nt[slot] = idx;
        }
        self.table = nt;
        self.mask = nmask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip_various_widths() {
        for bits in [1usize, 5, 7, 13, 31, 33, 63, 64] {
            let mask = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            let fields: Vec<u64> = (0..9u64)
                .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) & mask)
                .collect();
            let mut words = vec![0u64; words_for(fields.len(), bits)];
            pack_fields(&fields, bits, &mut words);
            let mut back = vec![0u64; fields.len()];
            unpack_fields(&words, bits, &mut back);
            assert_eq!(fields, back, "width {bits}");
        }
    }

    #[test]
    fn gid_roundtrip() {
        let g = gid(7, 123_456);
        assert_eq!(gid_shard(g), 7);
        assert_eq!(gid_idx(g), 123_456);
    }

    #[test]
    fn shard_of_covers_range() {
        for shards in [1usize, 2, 3, 8] {
            let mut seen = vec![false; shards];
            for i in 0..4096u64 {
                let s = shard_of(hash_words(&[i]), shards);
                assert!(s < shards);
                seen[s] = true;
            }
            assert!(seen.iter().all(|&b| b), "{shards} shards all hit");
        }
    }

    #[test]
    fn prefetches_stay_in_bounds() {
        let probe = |a: &StateArena| {
            let keys = (0..4096u64).map(|i| hash_words(&[i, !i]));
            for h in [0, 1, 1023, 1024, u64::MAX].into_iter().chain(keys) {
                assert!(a.first_slot(h) < a.table.len());
                a.prefetch_slot(h);
                a.prefetch_entry(h);
            }
        };
        let mut a = StateArena::new(2);
        assert_eq!(a.table.len(), 1024);
        probe(&a);
        // The 512th state doubles the table.
        for i in 0..512u64 {
            a.relax(&[i, !i], hash_words(&[i, !i]), i, 0, 0);
        }
        assert_eq!(a.table.len(), 2048);
        probe(&a);
    }

    #[test]
    fn relax_interns_updates_and_grows() {
        let mut a = StateArena::new(2);
        // Insert enough distinct keys to force several table growths.
        for i in 0..5000u64 {
            let key = [i, i ^ 0xdead];
            let (idx, improved) = a.relax(&key, hash_words(&key), i + 10, 0, 0);
            assert!(improved);
            assert_eq!(idx as u64, i);
        }
        assert_eq!(a.len(), 5000);
        // Re-relax with a worse distance: no change.
        let key = [42u64, 42 ^ 0xdead];
        let (idx, improved) = a.relax(&key, hash_words(&key), 99, 1, 2);
        assert_eq!(idx, 42);
        assert!(!improved);
        assert_eq!(a.meta(42).dist, 52);
        // Better distance: metadata updated in place.
        let (idx, improved) = a.relax(&key, hash_words(&key), 3, gid(1, 7), 9);
        assert_eq!(idx, 42);
        assert!(improved);
        let m = a.meta(42);
        assert_eq!((m.dist, m.parent, m.mv), (3, gid(1, 7), 9));
        // Keys survive growth.
        for i in 0..5000u64 {
            assert_eq!(a.key_words(i as u32), &[i, i ^ 0xdead]);
        }
        assert!(a.bytes() > 0);
    }
}
