//! Global membership bitmaps for the few dense elements of an index.
//!
//! "Does object `o` contain element `e`" does not depend on where a
//! temporal index stored `o`, so an index that keeps one postings list per
//! (division, element) — irHINT — can answer it for a dense element with
//! one bit test instead of a search through the division's list. This
//! module is that sidecar: one bitmap over the object-id universe per
//! element dense enough that the bitmap is a small fraction of the
//! element's own postings.
//!
//! The bitmaps are an **accelerator, never the only copy**: every bit is
//! derivable from the index's live postings, dropping any bitmap changes no
//! answer, and `tir-check` audits bit-for-posting agreement. Only *present*
//! bits are kept — the owner clears an object's bits when it deletes the
//! object, so there are no tombstone words.

use crate::kernels::{live, raw};

/// An element gets a bitmap once `freq(e) * ELEM_BITMAP_DEN >= universe`
/// (`universe` = largest object id ever indexed + 1), i.e. once the bitmap
/// (`universe / 8` bytes) costs at most `ELEM_BITMAP_DEN / 32` of one copy
/// of the element's own id postings (`4 * freq(e)` bytes; irHINT stores
/// 20-byte temporal postings and replicates them, so the real share is
/// several times smaller).
///
/// Measured on the repo benchmark's corpora, seed 42 (EXPERIMENTS.md "irHINT
/// adaptive intersection"; irHINT-perf over `dense100k`, the `serve_range`
/// pool in-process, median / mean µs per query; 40.2 / 116.0 at the parent
/// commit):
///
/// | bound | bitmaps | `size_bytes` | µs per query | probe share of steps |
/// |---|---|---|---|---|
/// | 4 | 9 | +0.50 % | 14.1 / 29.0 | 0.47 |
/// | **8** | 15 | +0.84 % | 11.4 / 25.8 | 0.53 |
/// | 16 | 25 | +1.39 % | 9.7 / 24.4 | 0.57 |
/// | 32 | 40 | +2.23 % | 8.6 / 23.7 | 0.59 |
///
/// 8 is the largest bound inside the +1 % of `index_bytes` this accelerator
/// was budgeted (the benchmark's gate is 2 %); each further octave buys 3–6 %
/// of the mean. On `eclog30k` it gives 33 bitmaps of 3.7 KB.
pub const ELEM_BITMAP_DEN: u32 = 8;

/// Hysteresis: a bitmap is dropped only once its element is twice as sparse
/// as the promotion rule asks, so an element hovering at the bound is not
/// rebuilt from the postings on every other update.
const DEMOTE_DEN: u64 = 2 * ELEM_BITMAP_DEN as u64;

/// One element's bitmap: bit `id` is set iff a live object `id` contains
/// the element. `words` may be shorter than the universe (missing words are
/// zero) or carry zero slack words past it.
#[derive(Debug, Clone)]
struct Slot {
    elem: u32,
    /// Number of set bits.
    count: u32,
    words: Vec<u64>,
}

/// The sidecar: a short directory of per-element slots sorted by element. At most
/// `ELEM_BITMAP_DEN * avg|d|` elements can satisfy the density rule, so the
/// directory is a sorted vector searched per lookup, not a dictionary-sized
/// table. The default is an empty sidecar over an empty universe.
#[derive(Debug, Clone, Default)]
pub struct ElemBitmaps {
    universe: u32,
    slots: Vec<Slot>,
}

impl ElemBitmaps {
    /// An empty sidecar over the id universe `[0, universe)`.
    pub fn with_universe(universe: u32) -> Self {
        ElemBitmaps {
            universe,
            slots: Vec::new(),
        }
    }

    /// Largest object id ever indexed, plus one.
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// The promotion rule: true if an element held by `freq` live objects
    /// is dense enough for a bitmap over the current universe.
    pub fn qualifies(&self, freq: u32) -> bool {
        freq > 0 && u64::from(freq) * u64::from(ELEM_BITMAP_DEN) >= u64::from(self.universe)
    }

    fn slot(&self, elem: u32) -> Option<usize> {
        self.slots.binary_search_by_key(&elem, |s| s.elem).ok()
    }

    /// Calls `f` on the slot of each of `desc`'s elements that has a bitmap.
    /// Dense elements are frequent and frequent elements tend to have small
    /// ids (assigned in order of first appearance, or of rank), so one
    /// comparison against the directory's largest element skips most of a
    /// long description; an object costs nothing while no bitmap exists.
    fn for_each_slot_of(&mut self, desc: &[u32], mut f: impl FnMut(&mut Slot)) {
        let Some(largest) = self.slots.last().map(|s| s.elem) else {
            return;
        };
        for &e in desc.iter().filter(|&&e| e <= largest) {
            if let Some(i) = self.slot(e) {
                f(&mut self.slots[i]);
            }
        }
    }

    /// The membership words of `elem`, if it has a bitmap: bit `id % 64` of
    /// word `id / 64` is set iff live object `id` contains `elem`; ids past
    /// the slice are absent. This is the planner's `Postings::Bits` operand.
    #[inline]
    pub fn bitmap(&self, elem: u32) -> Option<&[u64]> {
        self.slot(elem).map(|i| self.slots[i].words.as_slice())
    }

    /// Every bitmap as `(element, set-bit count, words)`, ascending by
    /// element (introspection for validators).
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, &[u64])> {
        self.slots
            .iter()
            .map(|s| (s.elem, s.count, s.words.as_slice()))
    }

    /// Gives `elem` an all-zero bitmap if it has none; the caller then
    /// fills it with [`ElemBitmaps::fill_from_postings`].
    pub fn promote(&mut self, elem: u32) {
        if let Err(i) = self.slots.binary_search_by_key(&elem, |s| s.elem) {
            let slot = Slot {
                elem,
                count: 0,
                words: vec![0; (self.universe as usize).div_ceil(64)],
            };
            self.slots.insert(i, slot);
        }
    }

    /// The one promotion decision every owner shares: gives an all-zero
    /// bitmap to each of `elems` that the density rule admits at `freq(e)`
    /// live objects and that has none yet, and returns those elements
    /// ascending, each once. Only where the postings live is the owner's:
    /// it then fills each returned element with
    /// [`ElemBitmaps::fill_from_postings`].
    pub fn promote_qualifying(
        &mut self,
        elems: impl IntoIterator<Item = u32>,
        freq: impl Fn(u32) -> u32,
    ) -> Vec<u32> {
        let mut fresh: Vec<u32> = elems
            .into_iter()
            .filter(|&e| self.qualifies(freq(e)) && self.bitmap(e).is_none())
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        for &e in &fresh {
            self.promote(e);
        }
        fresh
    }

    /// Sets the bit of every live posting in `ids` (bit-31 tombstones are
    /// skipped) in `elem`'s bitmap; a no-op for an element without one.
    pub fn fill_from_postings(&mut self, elem: u32, ids: &[u32]) {
        if let Some(i) = self.slot(elem) {
            let slot = &mut self.slots[i];
            ids.iter()
                .filter(|&&id| live(id))
                .for_each(|&id| slot.set_bit(raw(id)));
        }
    }

    /// Records that object `id` holding the elements `desc` went live: grows
    /// the universe to cover `id`, drops every bitmap the larger universe
    /// leaves too sparse, and sets the object's bit in those that remain.
    pub fn add_object(&mut self, id: u32, desc: &[u32]) {
        if id >= self.universe {
            self.universe = id + 1;
            self.drop_sparse();
        }
        self.for_each_slot_of(desc, |slot| slot.set_bit(id));
    }

    /// Records that live object `id` holding the elements `desc` was
    /// deleted: clears its bits, then drops the bitmaps that fell under the
    /// hysteresis bound.
    pub fn remove_object(&mut self, id: u32, desc: &[u32]) {
        self.for_each_slot_of(desc, |slot| slot.clear_bit(id));
        self.drop_sparse();
    }

    fn drop_sparse(&mut self) {
        let universe = u64::from(self.universe);
        self.slots
            .retain(|s| u64::from(s.count) * DEMOTE_DEN >= universe);
    }

    /// Drops every bitmap. Answers do not change — queries fall back to the
    /// postings lists — until a later promotion pass rebuilds them.
    pub fn drop_all(&mut self) {
        self.slots.clear();
    }

    /// Heap footprint in bytes, directory and bitmaps at capacity.
    pub fn size_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self
                .slots
                .iter()
                .map(|s| s.words.capacity() * 8)
                .sum::<usize>()
    }

    /// Deliberately flips bit 0 of the first bitmap without touching its
    /// count, so validator tests can confirm the disagreement with the
    /// postings is reported. Returns false if there is no bitmap to corrupt.
    #[cfg(feature = "testing")]
    pub fn testing_flip_bit(&mut self) -> bool {
        match self.slots.first_mut().and_then(|s| s.words.first_mut()) {
            Some(w) => {
                *w ^= 1;
                true
            }
            None => false,
        }
    }
}

impl Slot {
    fn set_bit(&mut self, id: u32) {
        let w = id as usize / 64;
        if w >= self.words.len() {
            // Amortised growth with bounded slack: an eighth past the
            // current length, allocated exactly, so appending ids in
            // arrival order is O(1) per id and `size_bytes` stays within
            // 12.5 % of the universe.
            let len = self.words.len();
            let want = (w + 1).max(len + len / 8);
            self.words.reserve_exact(want - len);
            self.words.resize(want, 0);
        }
        let bit = 1u64 << (id % 64);
        self.count += u32::from(self.words[w] & bit == 0);
        self.words[w] |= bit;
    }

    fn clear_bit(&mut self, id: u32) {
        if let Some(word) = self.words.get_mut(id as usize / 64) {
            let bit = 1u64 << (id % 64);
            self.count -= u32::from(*word & bit != 0);
            *word &= !bit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::TOMBSTONE;

    fn ids_of(b: &ElemBitmaps, elem: u32) -> Option<Vec<u32>> {
        b.bitmap(elem).map(|words| {
            (0..words.len() as u32 * 64)
                .filter(|id| words[*id as usize / 64] >> (id % 64) & 1 == 1)
                .collect()
        })
    }

    #[test]
    fn rule_is_evaluated_against_the_universe() {
        let b = ElemBitmaps::with_universe(800);
        assert!(b.qualifies(100));
        assert!(!b.qualifies(99));
        // Nothing qualifies in an empty index, whatever the universe.
        assert!(!ElemBitmaps::with_universe(0).qualifies(0));
    }

    #[test]
    fn fill_set_and_clear_track_live_objects() {
        let mut b = ElemBitmaps::with_universe(40);
        b.promote(7);
        b.fill_from_postings(7, &[1, 5 | TOMBSTONE, 10, 11, 30, 39]);
        b.fill_from_postings(3, &[1, 2]); // no bitmap: ignored
        assert_eq!(ids_of(&b, 7), Some(vec![1, 10, 11, 30, 39]));
        assert_eq!(ids_of(&b, 3), None);
        b.add_object(64, &[3, 7]); // past the last word: the bitmap grows
        b.add_object(2, &[7]);
        assert_eq!(b.universe(), 65);
        assert_eq!(ids_of(&b, 7), Some(vec![1, 2, 10, 11, 30, 39, 64]));
        b.remove_object(30, &[7, 9]);
        b.remove_object(30, &[7]); // already clear: the count must not move
        assert_eq!(ids_of(&b, 7), Some(vec![1, 2, 10, 11, 39, 64]));
        let counts: Vec<_> = b.iter().map(|(e, n, _)| (e, n)).collect();
        assert_eq!(counts, [(7, 6)]);
    }

    #[test]
    fn a_far_id_drops_the_bitmaps_instead_of_growing_them() {
        let mut b = ElemBitmaps::with_universe(1000);
        b.promote(1);
        b.fill_from_postings(1, &(0..500).collect::<Vec<_>>());
        let before = b.size_bytes();
        b.add_object(4_000_000, &[1]);
        assert!(b.bitmap(1).is_none(), "500 of 4M ids is not dense");
        assert!(b.size_bytes() <= before);
    }

    #[test]
    fn deletes_demote_with_hysteresis() {
        let mut b = ElemBitmaps::with_universe(160);
        b.promote(1);
        b.fill_from_postings(1, &(0..20).collect::<Vec<_>>());
        // Promotion needs 20 of 160; demotion waits for fewer than 10.
        for id in 0..10 {
            b.remove_object(id, &[1]);
        }
        assert!(b.bitmap(1).is_some());
        b.remove_object(10, &[1]);
        assert!(b.bitmap(1).is_none());
    }

    #[test]
    fn growth_in_arrival_order_is_amortised() {
        let mut b = ElemBitmaps::with_universe(64 * 64);
        b.promote(1);
        b.fill_from_postings(1, &(0..64 * 64).collect::<Vec<_>>());
        let mut reallocs = 0;
        let mut cap = b.size_bytes();
        for id in 64 * 64..4 * 64 * 64 {
            b.add_object(id, &[1]);
            reallocs += usize::from(b.size_bytes() != cap);
            cap = b.size_bytes();
        }
        // 192 new words arrived; an eighth of slack per step needs ~12
        // reallocations and leaves at most an eighth unused.
        assert!(reallocs <= 16, "{reallocs} reallocations for 192 words");
        let words: usize = b.iter().map(|(_, _, w)| w.len()).sum();
        assert!((256..=256 * 9 / 8).contains(&words), "{words} words");
    }
}
