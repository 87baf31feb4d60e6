//! Ranking in sorted basis-state arrays (`stateToIndex` in the paper).
//!
//! Each locale stores its basis states sorted, and the paper maps a
//! generated state to its local index by binary search (Sec. 5.3). Here a
//! hash index over the same sorted slice answers in one or two probes:
//! open addressing with linear probing, two `u32` slots per state, each
//! occupied slot holding a rank, a hit confirmed by `sorted[rank] ==
//! needle`. States are placed Robin Hood style: one that probes past a
//! state nearer its own home takes that slot, and the other moves on
//! (build scratch keeps every placed state's distance from its home). The
//! mean probe length is that of plain insertion; the longest runs are
//! shorter. A rank is the state's position in the sorted array, exactly
//! what the binary search returns. It is the only search ranking: sectors
//! with a closed form (`crate::combinadics`) need no index — shared-memory
//! bases rank by it outright, and a part of a distributed basis selects
//! its position from that rank (`ls-dist`'s `basis` module). The repo
//! benchmark's `basis.rank_ns_per_lookup` times whichever ranking a
//! workload's sector gets.
//!
//! The slot is picked by a Fibonacci multiply-shift, independent of the
//! low bits of [`crate::hash64_01`] that pick a state's owner: a locale's
//! part, all of one residue of that hash, spreads over its whole table.
//! [`HashIndex::lookup_batch`] ranks a block of states in branch-free
//! sweeps. The first loads every state's home slot and confirms it in the
//! same pass, so the memory system sees a window of independent loads
//! instead of one dependent chain per state. A state whose home slot
//! holds another joins a pending list, and each later sweep probes the
//! next slot of the pending states only, until the list is empty: no
//! state's outcome is a branch. Absent states are reported with the
//! [`NOT_FOUND`] sentinel so results stay in dense `u32` arrays (no
//! `Option` in the hot path).

use std::hint::select_unpredictable;

/// Sentinel written by the `lookup_batch` kernels for states that are not
/// in the array, and the mark of an empty slot. Never a valid rank
/// (arrays are capped below `u32::MAX`).
pub const NOT_FOUND: u32 = u32::MAX;

/// Needles [`HashIndex::lookup_batch_by`] ranks per chunk, the length of
/// its pending list.
const PENDING: usize = 256;

/// The multiplier of the Fibonacci hash: 2⁶⁴ over the golden ratio.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// [`HashIndex::home`] in a table of `len` slots.
#[inline]
fn home_in(s: u64, len: usize) -> usize {
    let hash = (s ^ s >> 28).wrapping_mul(FIBONACCI);
    ((hash as u128 * len as u128) >> 64) as usize
}

/// A hash index over a sorted, duplicate-free `u64` slice: maps a state
/// to its position in the slice.
#[derive(Clone, Debug)]
pub struct HashIndex {
    /// `2 · len` slots (one for an empty slice): a rank into the sorted
    /// slice, or [`NOT_FOUND`] for an empty slot.
    slots: Vec<u32>,
}

impl HashIndex {
    /// Builds the index over `sorted` (ascending, duplicate-free) for
    /// states drawn from an `n_bits`-wide space. Build scratch keeps each
    /// placed state's distance from its home in a byte, so a state probing
    /// past a resident compares distances without rehashing the resident;
    /// only a resident 255 or more slots from home is rehashed.
    pub fn new(sorted: &[u64], n_bits: u32) -> Self {
        assert!(sorted.len() < u32::MAX as usize);
        let mut slots = vec![NOT_FOUND; (2 * sorted.len()).max(1)];
        let len = slots.len();
        // Per slot: its resident's distance from home, saturated.
        let mut dists = vec![0u8; len];
        for (rank, &s) in sorted.iter().enumerate() {
            debug_assert!(n_bits >= 64 || s >> n_bits == 0, "state exceeds n_bits");
            // `(rank, h, dist)`: the state being placed, the slot it probes
            // and how far that slot is past its home.
            let (mut rank, mut h, mut dist) = (rank as u32, home_in(s, len), 0);
            while slots[h] != NOT_FOUND {
                let theirs = match dists[h] {
                    u8::MAX => (h + len - home_in(sorted[slots[h] as usize], len)) % len,
                    d => d as usize,
                };
                if theirs < dist {
                    std::mem::swap(&mut slots[h], &mut rank);
                    (dists[h], dist) = (dist.min(255) as u8, theirs);
                }
                (h, dist) = (if h + 1 == len { 0 } else { h + 1 }, dist + 1);
            }
            (slots[h], dists[h]) = (rank, dist.min(255) as u8);
        }
        Self { slots }
    }

    /// The first slot probed for `s`: the top bits of the Fibonacci hash,
    /// scaled to the table by a multiply-high. Bits 28 and up are folded
    /// onto the low ones first, because one multiply maps a stride in the
    /// high bits (the list `i << 20`, say) to clustered slots; on words of
    /// at most 28 bits, every spin-1/2 sector up to 28 sites, the fold
    /// changes nothing.
    #[inline]
    fn home(&self, s: u64) -> usize {
        home_in(s, self.slots.len())
    }

    /// The slot after `h`, wrapping at the end of the table.
    #[inline]
    fn next(&self, h: usize) -> usize {
        if h + 1 == self.slots.len() {
            0
        } else {
            h + 1
        }
    }

    /// Finds `needle` in `sorted` (the same slice the index was built on).
    /// At most half the slots are occupied, so every probe sequence ends.
    #[inline]
    pub fn lookup(&self, sorted: &[u64], needle: u64) -> Option<usize> {
        let mut h = self.home(needle);
        loop {
            let rank = self.slots[h];
            if rank == NOT_FOUND {
                return None;
            }
            if sorted[rank as usize] == needle {
                return Some(rank as usize);
            }
            h = self.next(h);
        }
    }

    /// Ranks a whole block of `needles` at once, writing each rank (or
    /// [`NOT_FOUND`]) into `out[i]` — the bulk `stateToIndex` of the
    /// batched matvec engine.
    pub fn lookup_batch(&self, sorted: &[u64], needles: &[u64], out: &mut Vec<u32>) {
        self.lookup_batch_by(sorted, needles, |&n| n, out);
    }

    /// [`Self::lookup_batch`] over items the needles are read from by
    /// `key` — the states of `(state, value)` pairs, say — without copying
    /// them out first.
    ///
    /// The first sweep loads each needle's home slot and confirms it in the
    /// same pass, `sorted[rank.min(last)] == needle` (an empty slot's
    /// [`NOT_FOUND`] clamps to a state that is not the needle, which is
    /// absent). A needle whose slot holds another state goes on a pending
    /// list of `(position, slot)`: an unconditional store and a count
    /// that grows by whether it stays. Each later sweep probes the next
    /// slot of the pending needles only, until the list is empty, so no
    /// needle's outcome is a branch that can mispredict. The ranks are
    /// [`Self::lookup`]'s.
    #[inline]
    pub fn lookup_batch_by<T>(
        &self,
        sorted: &[u64],
        items: &[T],
        key: impl Fn(&T) -> u64,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        out.resize(items.len(), NOT_FOUND);
        let Some(last) = sorted.len().checked_sub(1) else { return };
        // Probes `slot` for `needle`: its rank or `NOT_FOUND`, and whether
        // the needle's probe sequence goes on. The select is marked
        // unpredictable, or the compiler would make it a branch.
        let probe = |slot: usize, needle: u64| {
            let rank = self.slots[slot];
            let hit = sorted[(rank as usize).min(last)] == needle;
            (select_unpredictable(hit, rank, NOT_FOUND), !hit & (rank != NOT_FOUND))
        };
        // The pending list of one chunk: `(position, slot)`.
        let mut pending = [(0usize, 0usize); PENDING];
        for (items, ranks) in items.chunks(PENDING).zip(out.chunks_mut(PENDING)) {
            let mut len = 0;
            for (i, (item, rank)) in items.iter().zip(ranks.iter_mut()).enumerate() {
                let needle = key(item);
                let home = self.home(needle);
                let stays;
                (*rank, stays) = probe(home, needle);
                pending[len] = (i, home);
                len += stays as usize;
            }
            while len > 0 {
                let mut kept = 0;
                for k in 0..len {
                    let (i, slot) = pending[k];
                    let slot = self.next(slot);
                    let stays;
                    (ranks[i], stays) = probe(slot, key(&items[i]));
                    pending[kept] = (i, slot);
                    kept += stays as usize;
                }
                len = kept;
            }
        }
    }

    /// Memory used by the index in bytes (for the perf model): 8 B per
    /// state.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&self.slots[..])
    }

    /// Slots examined to find each of `sorted`'s states, one count per
    /// state (a diagnostic of the hash's spread).
    pub fn probe_lengths<'a>(&'a self, sorted: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
        sorted.iter().map(move |&s| {
            let (mut h, mut probes) = (self.home(s), 1);
            while sorted[self.slots[h] as usize] != s {
                (h, probes) = (self.next(h), probes + 1);
            }
            probes
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::FixedWeightRange;

    fn test_states() -> Vec<u64> {
        FixedWeightRange::all(18, 9).collect()
    }

    /// The oracle every index is checked against.
    fn binary_search(sorted: &[u64], needle: u64) -> Option<usize> {
        sorted.binary_search(&needle).ok()
    }

    /// Every member, every word below `2^probe_bits`, one-bit near-misses
    /// of every member, and the extreme words, against the oracle.
    fn check(states: &[u64], n_bits: u32, probe_bits: u32) {
        let idx = HashIndex::new(states, n_bits);
        for (i, &s) in states.iter().enumerate() {
            assert_eq!(idx.lookup(states, s), Some(i), "s={s:#x}");
            for b in 0..64 {
                let p = s ^ 1 << b;
                assert_eq!(idx.lookup(states, p), binary_search(states, p), "p={p:#x}");
            }
        }
        for p in (0..1u64 << probe_bits).chain([u64::MAX, u64::MAX - 1, 1 << 63]) {
            assert_eq!(idx.lookup(states, p), binary_search(states, p), "p={p:#x}");
        }
    }

    #[test]
    fn hash_index_matches_binary_search() {
        check(&test_states(), 18, 12);
    }

    #[test]
    fn hash_index_on_a_filled_state_space() {
        // Every word of a 4-bit space is a state.
        check(&(0..16u64).collect::<Vec<_>>(), 4, 5);
    }

    #[test]
    fn hash_index_on_a_sparse_state_space() {
        check(&[0, 1, 2, 5, 9, 15], 4, 4);
    }

    #[test]
    fn auto_index_on_small_and_empty() {
        let empty: Vec<u64> = Vec::new();
        let idx = HashIndex::new(&empty, 10);
        assert_eq!(idx.lookup(&empty, 3), None);
        assert_eq!(idx.lookup(&empty, 0), None);

        let one = vec![5u64];
        let idx = HashIndex::new(&one, 10);
        assert_eq!(idx.lookup(&one, 5), Some(0));
        assert_eq!(idx.lookup(&one, 6), None);
        check(&one, 10, 10);
    }

    #[test]
    fn auto_index_full_width_state_space() {
        // n_bits = 64: words anywhere in the 64-bit space.
        let one = vec![1u64 << 63];
        let idx = HashIndex::new(&one, 64);
        assert_eq!(idx.lookup(&one, 1 << 63), Some(0));
        assert_eq!(idx.lookup(&one, u64::MAX), None);
        assert_eq!(idx.lookup(&one, 0), None);

        let five: Vec<u64> = vec![0, 3, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        check(&five, 64, 8);
    }

    #[test]
    fn memory_is_two_slots_per_state() {
        // The 8-site half-filled Hubbard sector: 16 occupation bits, 4 up +
        // 4 down electrons — C(8,4)² = 4900 states in a 2^16 space.
        let mut states: Vec<u64> = Vec::new();
        for up in FixedWeightRange::all(8, 4) {
            for dn in FixedWeightRange::all(8, 4) {
                states.push(dn << 8 | up);
            }
        }
        states.sort_unstable();
        assert_eq!(states.len(), 4900);
        let idx = HashIndex::new(&states, 16);
        assert_eq!(idx.memory_bytes(), 2 * 4900 * std::mem::size_of::<u32>());
        assert_eq!(HashIndex::new(&[], 16).memory_bytes(), std::mem::size_of::<u32>());
        check(&states, 16, 12);
    }

    #[test]
    fn lookup_batch_matches_scalar() {
        let states = test_states();
        // Mix of present states and absent probes, and short batches.
        let mut probes: Vec<u64> = states.iter().copied().step_by(3).collect();
        probes.extend(0..(1u64 << 10));
        probes.push(u64::MAX);
        let idx = HashIndex::new(&states, 18);
        let mut out = Vec::new();
        for len in [probes.len(), 33, 3, 0] {
            idx.lookup_batch(&states, &probes[..len], &mut out);
            assert_eq!(out.len(), len);
            for (&p, &o) in probes.iter().zip(&out) {
                let expect = binary_search(&states, p).map_or(NOT_FOUND, |i| i as u32);
                assert_eq!(o, expect, "probe={p:#b}");
            }
        }
    }

    /// `lookup_batch_by` ≡ scalar `lookup` ≡ binary search on `needles`,
    /// as `(needle, position)` pairs read by their first field, in one
    /// batch and in batches that end on each side of a pending chunk.
    fn check_batch(states: &[u64], needles: &[u64]) {
        let idx = HashIndex::new(states, 64);
        let pairs: Vec<(u64, usize)> = needles.iter().copied().zip(0..).collect();
        let mut out = Vec::new();
        for len in [pairs.len(), PENDING - 1, PENDING, PENDING + 1] {
            let pairs = &pairs[..len.min(pairs.len())];
            idx.lookup_batch_by(states, pairs, |&(n, _)| n, &mut out);
            assert_eq!(out.len(), pairs.len());
            for (&(p, _), &o) in pairs.iter().zip(&out) {
                let expect = binary_search(states, p);
                assert_eq!(idx.lookup(states, p), expect, "p={p:#x}");
                assert_eq!(o, expect.map_or(NOT_FOUND, |i| i as u32), "p={p:#x}");
            }
        }
    }

    #[test]
    fn lookup_batch_walks_long_probe_runs() {
        // A stride the Fibonacci hash clusters: 5.15 probes a hit.
        let strided: Vec<u64> = (0..30_000).map(|i| i << 5).collect();
        let idx = HashIndex::new(&strided, 64);
        let probes: Vec<usize> = idx.probe_lengths(&strided).collect();
        let mean = probes.iter().sum::<usize>() as f64 / probes.len() as f64;
        assert!(mean > 4.0, "mean {mean}");
        // Members, absent words between and beyond them (each walks its
        // run to an empty slot), and one member repeated across chunks.
        let mut needles: Vec<u64> = strided.iter().flat_map(|&s| [s, s + 1, s + 31]).collect();
        needles.extend([strided[7]; 2 * PENDING + 3]);
        needles.extend([30_000 << 5, u64::MAX]);
        check_batch(&strided, &needles);
    }

    #[test]
    fn lookup_batch_follows_a_run_past_the_last_slot() {
        // Eight states whose home is the table's last slot, among 64: their
        // run wraps to slot 0. Absent words with the same home walk it
        // past the wrap to an empty slot.
        let table = HashIndex { slots: vec![NOT_FOUND; 128] };
        let last = |w: &u64| table.home(*w) == 127;
        let mut states: Vec<u64> = (0..).filter(last).take(12).collect();
        let absent = states.split_off(8);
        states.extend((0..).filter(|w| !last(w)).take(56));
        states.sort_unstable();
        let idx = HashIndex::new(&states, 64);
        assert_eq!(idx.slots.len(), 128);
        let wrapped = idx.slots[..4].iter().filter(|&&r| last(&states[r as usize])).count();
        assert!(wrapped > 0, "the run stops at the last slot");
        let needles: Vec<u64> = states.iter().chain(&absent).chain(&absent).copied().collect();
        check_batch(&states, &needles);
    }

    #[test]
    fn lookup_batch_on_empty_and_one_element_indexes() {
        let needles = [0, 1, 5, 6, 5, u64::MAX, 5];
        check_batch(&[], &needles);
        check_batch(&[5], &needles);
        check_batch(&[u64::MAX], &needles);
    }

    #[test]
    fn robin_hood_placement_orders_each_run_by_distance() {
        // Along a run each state sits at most one slot further from its
        // home than the one before it (a run starts with a state at home):
        // none probed past a state nearer its own home.
        let strided: Vec<u64> = (0..30_000).map(|i| i << 5).collect();
        let idx = HashIndex::new(&strided, 64);
        let len = idx.slots.len();
        let dist = |h: usize| match idx.slots[h] {
            NOT_FOUND => -1,
            rank => ((h + len - idx.home(strided[rank as usize])) % len) as i64,
        };
        for h in 0..len {
            let next = idx.next(h);
            assert!(dist(next) <= dist(h) + 1, "slots {h} and {next}");
        }
    }

    #[test]
    fn robin_hood_placement_past_a_saturated_distance() {
        // 400 of 1 000 states home on slot 1000 and 300 on slot 1050: one
        // run reaches past 600 slots, so states of both homes meet there
        // more than 255 slots from home, where the build scratch must
        // rehash the resident to compare, and the run still orders by
        // distance.
        let table = HashIndex { slots: vec![NOT_FOUND; 2000] };
        let home = |w: &u64| table.home(*w);
        let mut states: Vec<u64> = (0..).filter(|w| home(w) == 1000).take(400).collect();
        states.extend((0..).filter(|w| home(w) == 1050).take(300));
        states.extend((0..).filter(|w| ![1000, 1050].contains(&home(w))).take(300));
        states.sort_unstable();
        let idx = HashIndex::new(&states, 64);
        assert_eq!(idx.slots.len(), 2000);
        let dist = |h: usize| match idx.slots[h] {
            NOT_FOUND => -1,
            rank => ((h + 2000 - idx.home(states[rank as usize])) % 2000) as i64,
        };
        assert!((0..2000).map(dist).max() > Some(600), "the run is too short");
        for h in 0..2000 {
            assert!(dist(idx.next(h)) <= dist(h) + 1, "slots {h} and {}", idx.next(h));
        }
        check_batch(&states, &states);
    }

    #[test]
    fn probe_lengths_count_every_state() {
        let states = test_states();
        let idx = HashIndex::new(&states, 18);
        let probes: Vec<usize> = idx.probe_lengths(&states).collect();
        assert_eq!(probes.len(), states.len());
        assert!(probes.iter().all(|&p| p >= 1));
        // Linear probing at load 1/2: about 1.5 probes a hit.
        let mean = probes.iter().sum::<usize>() as f64 / probes.len() as f64;
        assert!(mean < 1.6, "mean {mean}");
    }
}
