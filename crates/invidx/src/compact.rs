//! The flat per-division inverted index.
//!
//! irHINT stores an inverted index inside **every** non-empty HINT
//! division, so the per-structure overhead matters: the store is a flat
//! structure-of-arrays with a sorted element directory, no hash maps. One
//! type, [`FlatInverted`], parameterised by how many `u64` endpoint columns
//! ride along with the ids: none ([`CompactInverted`]) or start and end
//! ([`CompactTemporalInverted`]).

use crate::kernels::{raw, TOMBSTONE};

/// A flat inverted index mapping element ids to postings sorted by raw
/// object id, each posting carrying `W` endpoint values: element `i` of
/// the sorted directory `elems` owns `ids[offsets[i]..offsets[i + 1]]` and
/// the same range of every column. With `W = 0` the endpoint columns do
/// not exist — nothing is stored and no code touches them.
#[derive(Debug, Clone)]
pub struct FlatInverted<const W: usize> {
    elems: Vec<u32>,
    offsets: Vec<u32>,
    ids: Vec<u32>,
    cols: [Vec<u64>; W],
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
            ids: Vec::new(),
            cols: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// Builds from entries; sorts the buffer.
    pub fn build(entries: &mut [Entry<W>]) -> Self {
        let mut index = Self::new();
        index.merge_in(entries);
        index
    }

    /// The postings of `elem` (may contain tombstoned entries).
    pub fn postings(&self, elem: u32) -> TemporalPostings<'_> {
        let (lo, hi) = match self.elems.binary_search(&elem) {
            Ok(i) => (self.offsets[i] as usize, self.offsets[i + 1] as usize),
            Err(_) => (0, 0),
        };
        let col = |c: usize| self.cols.get(c).map_or(&[][..], |col| &col[lo..hi]);
        TemporalPostings {
            ids: &self.ids[lo..hi],
            sts: col(0),
            ends: col(1),
        }
    }

    /// Inserts one posting, keeping element and id order. A posting the
    /// element already stores under `id` — the tombstone a delete left — is
    /// revived in place, so a list holds at most one entry per raw id.
    pub fn insert(&mut self, elem: u32, id: u32, span: [u64; W]) {
        let (i, pos) = match self.elems.binary_search(&elem) {
            Ok(i) => {
                let lo = self.offsets[i] as usize;
                let hi = self.offsets[i + 1] as usize;
                let pos = lo + self.ids[lo..hi].partition_point(|&x| raw(x) < id);
                if pos < hi && raw(self.ids[pos]) == id {
                    self.ids[pos] = id;
                    for (col, v) in self.cols.iter_mut().zip(span) {
                        col[pos] = v;
                    }
                    return;
                }
                (i, pos)
            }
            Err(i) => {
                let pos = self.offsets[i] as usize;
                self.elems.insert(i, elem);
                self.offsets.insert(i + 1, self.offsets[i]);
                (i, pos)
            }
        };
        self.ids.insert(pos, id);
        for (col, v) in self.cols.iter_mut().zip(span) {
            col.insert(pos, v);
        }
        for off in &mut self.offsets[i + 1..] {
            *off += 1;
        }
    }

    /// Tombstones the posting `(elem, id)`; returns true if found alive.
    pub fn tombstone(&mut self, elem: u32, id: u32) -> bool {
        if let Ok(i) = self.elems.binary_search(&elem) {
            let lo = self.offsets[i] as usize;
            let hi = self.offsets[i + 1] as usize;
            if let Ok(p) = self.ids[lo..hi].binary_search_by_key(&id, |&x| raw(x)) {
                let slot = &mut self.ids[lo + p];
                if *slot & TOMBSTONE == 0 {
                    *slot |= TOMBSTONE;
                    return true;
                }
            }
        }
        false
    }

    /// Merges a batch of entries in one rebuild pass —
    /// `O(existing + batch log batch)` instead of one memmove per entry.
    /// Existing postings keep their tombstone bits and their place in
    /// raw-id order, except one a new entry re-uses the id of: the new
    /// entry replaces it.
    pub fn merge_in(&mut self, new: &mut [Entry<W>]) {
        if new.is_empty() {
            return;
        }
        new.sort_unstable_by_key(|&(e, id, _)| (e, id));
        let n = self.ids.len() + new.len();
        // Entries arrive grouped by element (ascending) and the sentinel
        // offset is appended last, so `offsets.len() == elems.len() + 1`
        // holds by construction and no offset is patched in place.
        let mut out = FlatInverted {
            elems: Vec::new(),
            offsets: Vec::new(),
            ids: Vec::with_capacity(n),
            cols: std::array::from_fn(|_| Vec::with_capacity(n)),
        };
        let mut emit = |(e, id, span): Entry<W>| {
            if out.elems.last() != Some(&e) {
                out.elems.push(e);
                // analyze:allow(unguarded-cast): posting count is bounded by the u32 id space
                out.offsets.push(out.ids.len() as u32);
            }
            out.ids.push(id);
            for (col, v) in out.cols.iter_mut().zip(span) {
                col.push(v);
            }
        };
        let old = |e: u32, i: usize| (e, self.ids[i], std::array::from_fn(|c| self.cols[c][i]));
        let mut ni = 0usize;
        for (i, &e) in self.elems.iter().enumerate() {
            // New entries for elements strictly before `e`.
            while ni < new.len() && new[ni].0 < e {
                emit(new[ni]);
                ni += 1;
            }
            let mut oi = self.offsets[i] as usize;
            let hi = self.offsets[i + 1] as usize;
            // Merge same-element runs by raw id.
            while oi < hi && ni < new.len() && new[ni].0 == e {
                if raw(self.ids[oi]) < new[ni].1 {
                    emit(old(e, oi));
                    oi += 1;
                } else {
                    // Same raw id: the new posting takes the old one's
                    // (tombstoned) place.
                    oi += usize::from(raw(self.ids[oi]) == new[ni].1);
                    emit(new[ni]);
                    ni += 1;
                }
            }
            (oi..hi).for_each(|oi| emit(old(e, oi)));
            while ni < new.len() && new[ni].0 == e {
                emit(new[ni]);
                ni += 1;
            }
        }
        new[ni..].iter().for_each(|&entry| emit(entry));
        // analyze:allow(unguarded-cast): posting count is bounded by the u32 id space
        out.offsets.push(out.ids.len() as u32);
        *self = out;
    }

    /// Number of stored postings (including tombstoned).
    pub fn num_postings(&self) -> usize {
        self.ids.len()
    }

    /// True if no posting is stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Approximate heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        (self.elems.capacity() + self.offsets.capacity() + self.ids.capacity()) * 4
            + self.cols.iter().map(|c| c.capacity() * 8).sum::<usize>()
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

    /// The flat postings array across all elements, tombstone bits
    /// included (introspection for validators).
    pub fn all_ids(&self) -> &[u32] {
        &self.ids
    }

    /// The `W` flat endpoint columns, each parallel to
    /// [`Self::all_ids`]: none, or `[starts, ends]` (introspection for
    /// validators).
    pub fn columns(&self) -> &[Vec<u64>; W] {
        &self.cols
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
        if let Some(col) = self.cols.last_mut() {
            col.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // entry per raw id, alive, with the new endpoints.
        let mut one = CompactTemporalInverted::build(&mut [(5, 3, [50, 60]), (5, 10, [1, 2])]);
        let mut batch = one.clone();
        for idx in [&mut one, &mut batch] {
            assert!(idx.tombstone(5, 3) && idx.tombstone(5, 10));
        }
        one.insert(5, 3, [70, 80]);
        one.insert(5, 10, [7, 8]);
        batch.merge_in(&mut [(5, 10, [7, 8]), (5, 3, [70, 80]), (5, 4, [0, 0])]);
        assert!(batch.tombstone(5, 4));
        for idx in [&one, &batch] {
            let p = idx.postings(5);
            let live: Vec<u32> = p
                .ids
                .iter()
                .copied()
                .filter(|&x| x & TOMBSTONE == 0)
                .collect();
            assert_eq!(live, [3, 10]);
            assert_eq!((p.sts[0], p.ends[0]), (70, 80));
            assert_eq!(idx.offsets().last(), Some(&(p.ids.len() as u32)));
        }
        assert_eq!(one.num_postings(), 2);
        assert_eq!(batch.num_postings(), 3);
    }

    #[test]
    fn merge_in_empty_batch_is_noop() {
        let mut idx = CompactInverted::build(&mut [(1, 2, [])]);
        idx.merge_in(&mut []);
        assert_eq!(idx.postings(1).ids, &[2]);
    }
}
