//! The flat per-division inverted index.
//!
//! irHINT stores an inverted index inside **every** non-empty HINT
//! division, so the per-structure overhead matters: the store is one
//! [`ColumnList`] cut into element runs by a sorted element directory, no
//! hash maps. One type, [`FlatInverted`], parameterised by how many `u64`
//! endpoint columns ride along with the ids: none ([`CompactInverted`]) or
//! start and end ([`CompactTemporalInverted`]).

use std::ops::Range;

use crate::column_list::ColumnList;
use crate::kernels::raw;

/// A flat inverted index mapping element ids to postings sorted by raw
/// object id, each posting carrying `W` endpoint values: element `i` of
/// the sorted directory `elems` owns the run `offsets[i]..offsets[i + 1]`
/// of `list`. With `W = 0` the endpoint columns do not exist — nothing is
/// stored and no code touches them.
#[derive(Debug, Clone)]
pub struct FlatInverted<const W: usize> {
    elems: Vec<u32>,
    offsets: Vec<u32>,
    list: ColumnList<W>,
}

/// The id-only store of the *size* variant of irHINT (Section 4.2), whose
/// temporal information lives in a separate interval store.
pub type CompactInverted = FlatInverted<0>;

/// The `[start, end]`-carrying store of the *performance* variant of irHINT
/// (Section 4.1), whose per-division `QueryTemporalIF` filters postings by
/// the division's residual temporal condition before intersecting.
pub type CompactTemporalInverted = FlatInverted<2>;

/// One posting handed to [`FlatInverted::build`] / [`FlatInverted::merge_in`]:
/// `(element, object id, endpoints)`.
pub type Entry<const W: usize> = (u32, u32, [u64; W]);

/// A view of one element's postings: parallel slices.
#[derive(Debug, Clone, Copy)]
pub struct TemporalPostings<'a> {
    /// Object ids, sorted by raw id; tombstone bit marks deleted entries.
    pub ids: &'a [u32],
    /// Interval starts (empty for the id-only store).
    pub sts: &'a [u64],
    /// Interval ends (empty for the id-only store).
    pub ends: &'a [u64],
}

impl TemporalPostings<'_> {
    /// Number of postings in the view.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the view holds no postings.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

impl<const W: usize> Default for FlatInverted<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const W: usize> FlatInverted<W> {
    /// Creates an empty index.
    pub fn new() -> Self {
        FlatInverted {
            elems: Vec::new(),
            offsets: vec![0],
            list: ColumnList::default(),
        }
    }

    /// Builds from entries; sorts the buffer.
    pub fn build(entries: &mut [Entry<W>]) -> Self {
        let mut index = Self::new();
        index.merge_in(entries);
        index
    }

    /// The run of `list` that directory slot `i` owns.
    fn elem_run(&self, i: usize) -> Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// The postings of `elem` (may contain tombstoned entries).
    pub fn postings(&self, elem: u32) -> TemporalPostings<'_> {
        let (lo, hi) = match self.elems.binary_search(&elem) {
            Ok(i) => (self.offsets[i] as usize, self.offsets[i + 1] as usize),
            Err(_) => (0, 0),
        };
        let col = |c: usize| self.list.cols.get(c).map_or(&[][..], |col| &col[lo..hi]);
        TemporalPostings {
            ids: &self.list.ids[lo..hi],
            sts: col(0),
            ends: col(1),
        }
    }

    /// Inserts one posting into `elem`'s run by the list's id-keyed insert:
    /// a posting the element already stores under `id` — the tombstone a
    /// delete left — is revived in place.
    pub fn insert(&mut self, elem: u32, id: u32, span: [u64; W]) {
        let i = self.elems.binary_search(&elem).unwrap_or_else(|i| {
            self.elems.insert(i, elem);
            self.offsets.insert(i + 1, self.offsets[i]);
            i
        });
        if self.list.insert_in(self.elem_run(i), id, span) {
            for off in &mut self.offsets[i + 1..] {
                *off += 1;
            }
        }
    }

    /// Tombstones the posting `(elem, id)`; returns true if found alive.
    pub fn tombstone(&mut self, elem: u32, id: u32) -> bool {
        match self.elems.binary_search(&elem) {
            Ok(i) => self.list.tombstone_in(self.elem_run(i), id),
            Err(_) => false,
        }
    }

    /// Opens `e`'s run at the end of a store being built, if it is not the
    /// last one open; returns the run so far.
    fn open_run(&mut self, e: u32) -> Range<usize> {
        if self.elems.last() != Some(&e) {
            self.elems.push(e);
            // analyze:allow(unguarded-cast): posting count is bounded by the u32 id space
            self.offsets.push(self.list.len() as u32);
        }
        self.offsets[self.offsets.len() - 1] as usize..self.list.len()
    }

    /// Merges a batch of entries in one rebuild pass —
    /// `O(existing + batch log batch)` instead of one memmove per entry.
    /// Existing postings keep their tombstone bits and their place in
    /// raw-id order; a new entry goes through the list's id-keyed insert
    /// at the end of its element's run, so one that re-uses an id takes
    /// the old posting's place.
    pub fn merge_in(&mut self, new: &mut [Entry<W>]) {
        if new.is_empty() {
            return;
        }
        new.sort_unstable_by_key(|&(e, id, _)| (e, id));
        // Entries arrive grouped by element (ascending) and the sentinel
        // offset is appended last, so `offsets.len() == elems.len() + 1`
        // holds by construction and no offset is patched in place.
        let mut out = FlatInverted {
            elems: Vec::new(),
            offsets: Vec::new(),
            list: ColumnList::with_capacity(self.list.len() + new.len()),
        };
        let fresh = |out: &mut Self, (e, id, span): Entry<W>| {
            let run = out.open_run(e);
            out.list.insert_in(run, id, span);
        };
        let old = |out: &mut Self, e: u32, oi: usize| {
            out.open_run(e);
            let (id, span) = self.list.entry_at(oi);
            out.list.push_entry(id, span);
        };
        let mut ni = 0usize;
        for (i, &e) in self.elems.iter().enumerate() {
            // New entries for elements strictly before `e`.
            while ni < new.len() && new[ni].0 < e {
                fresh(&mut out, new[ni]);
                ni += 1;
            }
            // Merge same-element runs by raw id, old postings first.
            let mut run = self.elem_run(i);
            while ni < new.len() && new[ni].0 == e {
                while run.start < run.end && raw(self.list.ids[run.start]) <= new[ni].1 {
                    old(&mut out, e, run.start);
                    run.start += 1;
                }
                fresh(&mut out, new[ni]);
                ni += 1;
            }
            run.for_each(|oi| old(&mut out, e, oi));
        }
        new[ni..].iter().for_each(|&entry| fresh(&mut out, entry));
        // analyze:allow(unguarded-cast): posting count is bounded by the u32 id space
        out.offsets.push(out.list.len() as u32);
        *self = out;
    }

    /// Number of stored postings (including tombstoned).
    pub fn num_postings(&self) -> usize {
        self.list.len()
    }

    /// True if no posting is stored.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Approximate heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        (self.elems.capacity() + self.offsets.capacity()) * 4 + self.list.size_bytes()
    }

    /// The sorted element directory (introspection for validators).
    pub fn elements(&self) -> &[u32] {
        &self.elems
    }

    /// The offset array: `offsets()[i]..offsets()[i+1]` brackets the
    /// postings of `elements()[i]` (introspection for validators).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The one column list every element's run is cut from, tombstone
    /// bits included (introspection for validators).
    pub fn list(&self) -> &ColumnList<W> {
        &self.list
    }

    /// Deliberately breaks the offset invariant so validator tests can
    /// confirm the corruption is reported.
    #[cfg(feature = "testing")]
    pub fn testing_corrupt_offsets(&mut self) {
        if let Some(last) = self.offsets.last_mut() {
            *last += 1;
        }
    }

    /// Deliberately truncates one parallel column (a no-op without
    /// columns) so validator tests can confirm the corruption is reported.
    #[cfg(feature = "testing")]
    pub fn testing_corrupt_parallel(&mut self) {
        if let Some(col) = self.list.cols.last_mut() {
            col.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::TOMBSTONE;

    #[test]
    fn build_and_lookup() {
        let mut pairs = vec![
            (2u32, 5u32, []),
            (1, 3, []),
            (2, 1, []),
            (1, 9, []),
            (7, 4, []),
        ];
        let idx = CompactInverted::build(&mut pairs);
        assert_eq!(idx.postings(1).ids, &[3, 9]);
        assert_eq!(idx.postings(2).ids, &[1, 5]);
        assert_eq!(idx.postings(7).ids, &[4]);
        assert!(idx.postings(3).is_empty());
        assert!(idx.postings(1).sts.is_empty() && idx.postings(1).ends.is_empty());
        assert_eq!(idx.num_postings(), 5);
    }

    #[test]
    fn tombstone_marks_without_removing() {
        let mut idx = CompactInverted::build(&mut [(1, 3, []), (1, 9, [])]);
        assert!(idx.tombstone(1, 3));
        assert!(!idx.tombstone(1, 3));
        assert!(!idx.tombstone(1, 4));
        assert_eq!(idx.postings(1).ids, &[3 | TOMBSTONE, 9]);
    }

    #[test]
    fn temporal_build_and_lookup() {
        let mut entries = vec![(1u32, 4u32, [10u64, 20u64]), (1, 2, [5, 8]), (3, 2, [5, 8])];
        let idx = CompactTemporalInverted::build(&mut entries);
        let p = idx.postings(1);
        assert_eq!(p.ids, &[2, 4]);
        assert_eq!(p.sts, &[5, 10]);
        assert_eq!(p.ends, &[8, 20]);
        assert!(idx.postings(9).is_empty());
    }

    #[test]
    fn temporal_insert_keeps_parallel_arrays() {
        let mut idx = CompactTemporalInverted::new();
        idx.insert(5, 10, [100, 200]);
        idx.insert(5, 3, [50, 60]);
        idx.insert(2, 7, [1, 2]);
        let p = idx.postings(5);
        assert_eq!(p.ids, &[3, 10]);
        assert_eq!(p.sts, &[50, 100]);
        let p2 = idx.postings(2);
        assert_eq!(p2.ends, &[2]);
        assert!(idx.tombstone(5, 10));
    }

    #[test]
    fn reinsert_takes_the_tombstones_place() {
        // One at a time and through a batch merge: the list keeps one
        // entry per raw id, alive, with the new endpoints, and a fresh id
        // lands between the revived ones. Element 4 holds the same raw ids
        // as element 5 and element 6 starts past them; neither neighbour's
        // postings may move.
        let mut one = CompactTemporalInverted::build(&mut [
            (4, 3, [33, 44]),
            (4, 10, [5, 9]),
            (5, 3, [50, 60]),
            (5, 10, [1, 2]),
            (6, 12, [6, 7]),
        ]);
        let mut batch = one.clone();
        for idx in [&mut one, &mut batch] {
            assert!(idx.tombstone(5, 3) && idx.tombstone(5, 10));
        }
        one.insert(5, 3, [70, 80]);
        one.insert(5, 10, [7, 8]);
        one.insert(5, 4, [0, 0]);
        batch.merge_in(&mut [(5, 10, [7, 8]), (5, 3, [70, 80]), (5, 4, [0, 0])]);
        let neighbours = |idx: &CompactTemporalInverted| {
            [4, 6].map(|e| {
                let p = idx.postings(e);
                (p.ids.to_vec(), p.sts.to_vec(), p.ends.to_vec())
            })
        };
        let untouched = [
            (vec![3, 10], vec![33, 5], vec![44, 9]),
            (vec![12], vec![6], vec![7]),
        ];
        for idx in [&mut one, &mut batch] {
            let p = idx.postings(5);
            assert_eq!(p.ids, [3, 4, 10]);
            assert_eq!((p.sts, p.ends), (&[70, 0, 7][..], &[80, 0, 8][..]));
            assert_eq!(idx.offsets(), [0, 2, 5, 6]);
            assert_eq!(idx.num_postings(), 6);
            assert!(idx.tombstone(5, 4));
            assert_eq!(neighbours(idx), untouched);
        }
        // An id past element 5's run that element 6 starts with takes a
        // slot of its own instead of reviving element 6's posting.
        one.insert(5, 12, [0, 0]);
        batch.merge_in(&mut [(5, 12, [0, 0])]);
        for idx in [&mut one, &mut batch] {
            assert!(idx.tombstone(5, 12));
            assert_eq!(idx.postings(5).ids, [3, 4 | TOMBSTONE, 10, 12 | TOMBSTONE]);
            assert_eq!(idx.offsets(), [0, 2, 6, 7]);
            assert_eq!(neighbours(idx), untouched);
        }
    }

    #[test]
    fn merge_in_empty_batch_is_noop() {
        let mut idx = CompactInverted::build(&mut [(1, 2, [])]);
        idx.merge_in(&mut []);
        assert_eq!(idx.postings(1).ids, &[2]);
    }
}
