//! The one uncompressed time-aware postings list `I[e]` of
//! `⟨o.id, [o.tst, o.tend]⟩` entries (Section 2.2). Every uncompressed list
//! outside HINT's own divisions is a [`ColumnList`]: a term, a slice, a
//! shard, or a flat store's element runs ([`FlatInverted`](crate::FlatInverted)).

use std::marker::PhantomData;
use std::ops::Range;

use crate::kernels::{live, raw, TOMBSTONE};

/// The order a [`ColumnList`] keeps its entries in.
pub trait SortKey: Sized {
    /// The order, as a validator names it.
    const ORDER: &'static str;

    /// True if entry `a` of `list` may directly precede entry `b`.
    fn in_order<const W: usize>(list: &ColumnList<W, Self>, a: usize, b: usize) -> bool;
}

/// Raw-id order, at most one entry per raw id: the tombstone-aware
/// kernels stop at the first raw match.
#[derive(Debug, Clone)]
pub struct ById;

/// Start order (the first endpoint column); entries may share a start.
#[derive(Debug, Clone)]
pub struct ByStart;

impl SortKey for ById {
    const ORDER: &'static str = "strictly ascending by raw id";

    fn in_order<const W: usize>(list: &ColumnList<W, Self>, a: usize, b: usize) -> bool {
        raw(list.ids[a]) < raw(list.ids[b])
    }
}

impl SortKey for ByStart {
    const ORDER: &'static str = "ascending by start";

    fn in_order<const W: usize>(list: &ColumnList<W, Self>, a: usize, b: usize) -> bool {
        list.sts()[a] <= list.sts()[b]
    }
}

/// A column list: object ids (tombstone high bit marks logical deletes)
/// plus `W` parallel endpoint columns, in `K` order. `W = 2` keeps
/// `[start, end]` ([`TemporalList`]); `W = 1` keeps the start alone — the
/// hybrid's `⟨o.id, o.tst⟩` slice copy (Section 3.2); `W = 0` keeps ids
/// only — irHINT-size's divisions (Section 4.2).
#[derive(Debug, Clone)]
pub struct ColumnList<const W: usize, K = ById> {
    /// Object ids (tombstone high bit marks logical deletes).
    pub ids: Vec<u32>,
    /// Endpoint columns parallel to `ids`: starts, then (`W = 2`) ends.
    pub cols: [Vec<u64>; W],
    key: PhantomData<K>,
}

/// A time-aware postings list `I[e]` of `⟨o.id, [o.tst, o.tend]⟩` entries.
pub type TemporalList = ColumnList<2>;

impl<const W: usize, K> Default for ColumnList<W, K> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<const W: usize, K> ColumnList<W, K> {
    /// An empty list with room for `n` entries in every column.
    pub fn with_capacity(n: usize) -> Self {
        ColumnList {
            ids: Vec::with_capacity(n),
            cols: std::array::from_fn(|_| Vec::with_capacity(n)),
            key: PhantomData,
        }
    }

    /// The list of `entries`, already in `K` order, every column collected
    /// to exactly their number.
    pub fn from_entries(entries: &[(u32, [u64; W])]) -> Self {
        ColumnList {
            ids: entries.iter().map(|&(id, _)| id).collect(),
            cols: std::array::from_fn(|c| entries.iter().map(|(_, span)| span[c]).collect()),
            key: PhantomData,
        }
    }

    /// Number of entries, including tombstoned ones.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the list stores no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Interval starts, parallel to `ids`.
    #[inline]
    pub fn sts(&self) -> &[u64] {
        &self.cols[0]
    }

    /// Entry `i`: its id and endpoints.
    #[inline]
    pub fn entry_at(&self, i: usize) -> (u32, [u64; W]) {
        (self.ids[i], std::array::from_fn(|c| self.cols[c][i]))
    }

    /// Every entry, in stored order.
    pub fn entries(&self) -> impl Iterator<Item = (u32, [u64; W])> + '_ {
        (0..self.len()).map(|i| self.entry_at(i))
    }

    /// Appends an entry; the caller keeps the `K` order.
    #[inline]
    pub fn push_entry(&mut self, id: u32, span: [u64; W]) {
        self.ids.push(id);
        for (col, v) in self.cols.iter_mut().zip(span) {
            col.push(v);
        }
    }

    /// Inserts an entry at `pos`; the caller keeps the `K` order.
    pub fn insert_at(&mut self, pos: usize, id: u32, span: [u64; W]) {
        self.ids.insert(pos, id);
        for (col, v) in self.cols.iter_mut().zip(span) {
            col.insert(pos, v);
        }
    }

    /// Overwrites entry `pos` with `id` and `span`.
    #[inline]
    pub fn write_entry_at(&mut self, pos: usize, id: u32, span: [u64; W]) {
        self.ids[pos] = id;
        for (col, v) in self.cols.iter_mut().zip(span) {
            col[pos] = v;
        }
    }

    /// Tombstones entry `pos`; returns true if it was alive.
    pub fn tombstone_at(&mut self, pos: usize) -> bool {
        let was_live = live(self.ids[pos]);
        self.ids[pos] |= TOMBSTONE;
        was_live
    }

    /// Moves the entries `pos..end` one slot right, over slot `end`, and
    /// writes the entry at `pos`; the caller owns slot `end` and keeps the
    /// `K` order. Costs what `pos..end` holds, not what follows it.
    pub fn shift_into_room(&mut self, pos: usize, end: usize, id: u32, span: [u64; W]) {
        self.ids.copy_within(pos..end, pos + 1);
        for col in &mut self.cols {
            col.copy_within(pos..end, pos + 1);
        }
        self.write_entry_at(pos, id, span);
    }

    /// Appends a copy of the entries `run` at the list's end, then `room`
    /// unused slots (a dead id 0, zero endpoints) that a caller hands out
    /// as room for later entries. Each column grows at most once.
    pub fn copy_run_to_end(&mut self, run: Range<usize>, room: usize) {
        let len = self.len() + run.len() + room;
        self.ids.reserve(len - self.ids.len());
        self.ids.extend_from_within(run.clone());
        self.ids.resize(len, TOMBSTONE);
        for col in &mut self.cols {
            col.reserve(len - col.len());
            col.extend_from_within(run.clone());
            col.resize(len, 0);
        }
    }

    /// Moves the entries `src` down to start at slot `to` (`to <=
    /// src.start`); the slots they leave keep stale entries.
    pub fn move_slots_down(&mut self, src: Range<usize>, to: usize) {
        self.ids.copy_within(src.clone(), to);
        for col in &mut self.cols {
            col.copy_within(src.clone(), to);
        }
    }

    /// Drops every slot from `len` on, keeping the allocation.
    pub fn truncate_slots(&mut self, len: usize) {
        self.ids.truncate(len);
        for col in &mut self.cols {
            col.truncate(len);
        }
    }

    /// Slots the list holds before its columns reallocate.
    #[inline]
    pub fn slot_capacity(&self) -> usize {
        self.ids.capacity()
    }

    /// Heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.ids.capacity() * 4 + self.cols.iter().map(|c| c.capacity() * 8).sum::<usize>()
    }
}

impl<K> ColumnList<2, K> {
    /// Interval ends, parallel to `ids`.
    #[inline]
    pub fn ends(&self) -> &[u64] {
        &self.cols[1]
    }
}

impl<const W: usize> ColumnList<W, ById> {
    /// Inserts keeping raw-id order. An entry already stored under `id` —
    /// the tombstone a delete left — is revived in place with the new
    /// endpoints, so a re-used id never occupies two slots.
    pub fn insert(&mut self, id: u32, span: [u64; W]) {
        self.insert_in(0..self.len(), id, span);
    }

    /// [`Self::insert`] restricted to the entries `run` — one element's
    /// postings in a flat store, which must stay apart from its
    /// neighbours' even where they hold the same raw id. Returns true if
    /// the entry took a new slot, false if it revived one.
    #[inline]
    pub fn insert_in(&mut self, run: Range<usize>, id: u32, span: [u64; W]) -> bool {
        match self.find_slot_in(run.clone(), id) {
            Ok(pos) => {
                self.write_entry_at(pos, id, span);
                false
            }
            // An append at the list's end is a push, small enough to
            // inline into a build loop (`FlatInverted::merge_in` adds
            // every posting here).
            Err(pos) if pos == self.len() => {
                self.push_entry(id, span);
                true
            }
            Err(pos) => {
                self.insert_at(pos, id, span);
                true
            }
        }
    }

    /// Where `id` belongs among the entries `run`: `Ok(pos)` if an entry
    /// is stored under its raw id there — the tombstone a delete left —
    /// else `Err(pos)`, the slot it would take. The search never looks
    /// past `run`, so a neighbour's posting with the same raw id is out of
    /// reach.
    #[inline]
    pub fn find_slot_in(&self, run: Range<usize>, id: u32) -> Result<usize, usize> {
        let ids = &self.ids[run.clone()];
        match ids.last() {
            Some(&last) if raw(last) >= id => {
                let pos = run.start + ids.partition_point(|&x| raw(x) < id);
                if raw(self.ids[pos]) == id {
                    Ok(pos)
                } else {
                    Err(pos)
                }
            }
            _ => Err(run.end),
        }
    }

    /// Tombstones the entry of `id`; returns true if found alive.
    pub fn tombstone(&mut self, id: u32) -> bool {
        self.tombstone_in(0..self.len(), id)
    }

    /// [`Self::tombstone`] restricted to the entries `run`.
    pub fn tombstone_in(&mut self, run: Range<usize>, id: u32) -> bool {
        let start = run.start;
        match self.ids[run].binary_search_by_key(&id, |&x| raw(x)) {
            Ok(p) => self.tombstone_at(start + p),
            Err(_) => false,
        }
    }
}

impl<const W: usize> ColumnList<W, ByStart> {
    /// Tombstones the live entry `id` among those starting at `st` (a
    /// contiguous run); returns true if found.
    pub fn tombstone_starting(&mut self, st: u64, id: u32) -> bool {
        let lo = self.sts().partition_point(|&x| x < st);
        let hi = self.sts().partition_point(|&x| x <= st);
        (lo..hi)
            .find(|&i| self.ids[i] == id)
            .is_some_and(|i| self.tombstone_at(i))
    }
}

impl TemporalList {
    /// Appends to `out` every live id whose interval overlaps
    /// `[q_st, q_end]` — the temporal filter applied to the least-frequent
    /// element's list in Algorithm 1 — and returns the number of entries
    /// scanned, which the caller charges to its query counters. Output
    /// order follows the list (i.e. ascending by id).
    pub fn seed_overlap_into(&self, q_st: u64, q_end: u64, out: &mut Vec<u32>) -> usize {
        let [sts, ends] = &self.cols;
        for i in 0..self.ids.len() {
            if live(self.ids[i]) && sts[i] <= q_end && ends[i] >= q_st {
                out.push(self.ids[i]);
            }
        }
        self.ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_sorted() {
        let mut l = TemporalList::default();
        l.insert(5, [50, 55]);
        l.insert(2, [20, 25]);
        l.insert(9, [90, 95]);
        assert_eq!(l.ids, vec![2, 5, 9]);
        assert_eq!(l.sts(), [20, 50, 90]);
    }

    #[test]
    fn seed_overlap() {
        let mut l = TemporalList::default();
        l.insert(1, [0, 10]);
        l.insert(2, [20, 30]);
        l.insert(3, [5, 25]);
        let mut out = Vec::new();
        assert_eq!(l.seed_overlap_into(8, 22, &mut out), 3);
        assert_eq!(out, vec![1, 2, 3]);
        out.clear();
        l.seed_overlap_into(11, 19, &mut out);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn tombstone_then_filter() {
        let mut l = TemporalList::default();
        l.insert(1, [0, 10]);
        l.insert(2, [5, 15]);
        assert!(l.tombstone(1));
        assert!(!l.tombstone(1));
        let mut out = Vec::new();
        l.seed_overlap_into(0, 100, &mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn reinsert_revives_the_dead_slot_in_place() {
        // First, middle and last position, both widths.
        for id in [1u32, 2, 3] {
            let mut l = TemporalList::default();
            let mut s = ColumnList::<1>::default();
            for i in 1..=3u32 {
                l.insert(i, [10, 20]);
                s.insert(i, [10]);
            }
            assert!(l.tombstone(id) && s.tombstone(id));
            l.insert(id, [30, 40]);
            s.insert(id, [30]);
            assert_eq!(l.ids, vec![1, 2, 3], "one live entry per raw id");
            assert_eq!(s.ids, vec![1, 2, 3]);
            let p = (id - 1) as usize;
            assert_eq!((l.sts()[p], l.ends()[p], s.sts()[p]), (30, 40, 30));
            assert!(l.tombstone(id) && !l.tombstone(id));
        }
    }
}
