//! The flat per-division inverted index.
//!
//! irHINT stores an inverted index inside **every** non-empty HINT
//! division, so the per-structure overhead matters: the store is one
//! [`ColumnList`] cut into element runs by a sorted element directory, no
//! hash maps. One type, [`FlatInverted`], parameterised by how many `u64`
//! endpoint columns ride along with the ids: none ([`CompactInverted`]) or
//! start and end ([`CompactTemporalInverted`]).
//!
//! A built store is *packed*: the runs tile the list in directory order.
//! A single [`FlatInverted::insert`] first makes the store *roomy*: each
//! run gets its own end and the end of the slots it owns, so a posting
//! lands in its own run's room and a full run moves to the list's end with
//! room for as many again, never shifting another element's postings.
//! [`FlatInverted::merge_in`] packs the store again; between merges, a
//! roomy list that would outgrow its allocation with more unused slots
//! than half its postings is compacted instead.

use std::ops::Range;

use crate::column_list::ColumnList;
use crate::kernels::raw;

/// A flat inverted index mapping element ids to postings sorted by raw
/// object id, each posting carrying `W` endpoint values: element `i` of
/// the sorted directory `elems` owns the run [`Self::elem_run`]`(i)` of `list`.
/// With `W = 0` the endpoint columns do not exist — nothing is stored and
/// no code touches them.
#[derive(Debug, Clone)]
pub struct FlatInverted<const W: usize> {
    elems: Vec<u32>,
    /// The run directory. Packed: `elems + 1` boundaries, element `i`'s
    /// run is `offsets[i]..offsets[i + 1]`. Roomy: three per element —
    /// where its run starts, where it ends, and where its room ends.
    offsets: Vec<u32>,
    list: ColumnList<W>,
}

/// A position in a store's list as the directory keeps it.
#[inline]
fn slot(pos: usize) -> u32 {
    // analyze:allow(unguarded-cast): a list holds a few slots per posting at most, far below u32::MAX
    pos as u32
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

    /// Directory slot `i`'s run start, run end and room end.
    #[inline]
    fn bounds(&self, i: usize) -> [usize; 3] {
        let at = |k: usize| self.offsets[k] as usize;
        if self.is_packed() {
            [at(i), at(i + 1), at(i + 1)]
        } else {
            [at(3 * i), at(3 * i + 1), at(3 * i + 2)]
        }
    }

    /// The run of `list` that directory slot `i` owns: its postings,
    /// ascending by raw id. Runs never overlap; a roomy store's runs may
    /// lie in any order, with unused slots between them.
    #[inline]
    pub fn elem_run(&self, i: usize) -> Range<usize> {
        let [start, end, _] = self.bounds(i);
        start..end
    }

    /// The slots of `list` that directory slot `i` owns: its run, then
    /// (roomy) the room the run may still grow into.
    pub fn elem_slots(&self, i: usize) -> Range<usize> {
        let [start, _, room] = self.bounds(i);
        start..room
    }

    /// True while the runs tile the list in directory order, as `build`
    /// and `merge_in` leave them: one more boundary than elements.
    #[inline]
    pub fn is_packed(&self) -> bool {
        self.offsets.len() == self.elems.len() + 1
    }

    /// Entries in the run directory: elements + 1 packed, three per
    /// element roomy (introspection for validators, which must check it
    /// before reading a run).
    pub fn directory_len(&self) -> usize {
        self.offsets.len()
    }

    /// The postings of `elem` (may contain tombstoned entries).
    pub fn postings(&self, elem: u32) -> TemporalPostings<'_> {
        let (lo, hi) = match self.elems.binary_search(&elem) {
            Ok(i) => {
                let run = self.elem_run(i);
                (run.start, run.end)
            }
            Err(_) => (0, 0),
        };
        let col = |c: usize| self.list.cols.get(c).map_or(&[][..], |col| &col[lo..hi]);
        TemporalPostings {
            ids: &self.list.ids[lo..hi],
            sts: col(0),
            ends: col(1),
        }
    }

    /// Inserts one posting into `elem`'s run by the list's id-keyed search:
    /// a posting the element already stores under `id` — the tombstone a
    /// delete left — is revived in place. A packed store goes roomy first,
    /// so the insert costs what `elem`'s run holds: a fresh id past the run
    /// lands in its room, a smaller one shifts the run's tail, and a full
    /// run moves to the list's end with room for as many again (plus the
    /// `Vec`'s own growth). A new element takes an empty run at the end and
    /// shifts only the directory.
    pub fn insert(&mut self, elem: u32, id: u32, span: [u64; W]) {
        if self.is_packed() {
            self.unpack_runs();
        }
        let i = self.elems.binary_search(&elem).unwrap_or_else(|i| {
            let at = slot(self.list.len());
            self.elems.insert(i, elem);
            self.offsets.splice(3 * i..3 * i, [at; 3]);
            i
        });
        let [start, mut end, room] = self.bounds(i);
        let mut pos = match self.list.find_slot_in(start..end, id) {
            Ok(pos) => return self.list.write_entry_at(pos, id, span),
            Err(pos) => pos,
        };
        if end == room {
            let moved = self.grow_run_room(i);
            (pos, end) = (pos - start + moved, end - start + moved);
        }
        self.list.shift_into_room(pos, end, id, span);
        self.offsets[3 * i + 1] += 1;
    }

    /// Packed → roomy: every run keeps its slots and has no room yet.
    /// Rewritten in place from the back: slot `i`'s triple lands at
    /// `3 * i`, past the boundaries `i` and `i + 1` it is read from.
    fn unpack_runs(&mut self) {
        let n = self.elems.len();
        self.offsets.resize(3 * n, 0);
        for i in (0..n).rev() {
            let (start, end) = (self.offsets[i], self.offsets[i + 1]);
            self.offsets[3 * i..3 * i + 3].copy_from_slice(&[start, end, end]);
        }
    }

    /// Gives slot `i`'s full run room for as many postings again (at
    /// least one): in place if the run ends the list, else by copying it
    /// to the list's end, where the slots it leaves become a hole. A growth
    /// that would outgrow the list's allocation while more than half as
    /// many slots as there are postings lie unused compacts the list first
    /// ([`Self::compact_runs`]): a memmove where the `Vec` would have
    /// copied the list anyway. Returns where the run now starts.
    fn grow_run_room(&mut self, i: usize) -> usize {
        let run = self.elem_run(i);
        let moved = if run.end == self.list.len() {
            0
        } else {
            run.len()
        };
        if self.list.len() + moved + run.len().max(1) > self.list.slot_capacity() {
            let live = self.num_postings();
            if self.list.len() - live > live / 2 {
                self.compact_runs();
            }
        }
        let (run, at) = (self.elem_run(i), self.list.len());
        let extra = run.len().max(1);
        let start = if run.end == at {
            self.list.copy_run_to_end(at..at, extra);
            run.start
        } else {
            self.list.copy_run_to_end(run.clone(), extra);
            at
        };
        let end = start + run.len();
        self.offsets[3 * i..3 * i + 3].copy_from_slice(&[start, end, end + extra].map(slot));
        start
    }

    /// Slides a roomy store's runs down over the holes between them, in
    /// the order they lie in the list, which keeps its allocation. Each
    /// run keeps at most a quarter of its length of the room it had, so a
    /// run still filling goes on growing in place and the list holds at
    /// most 1.25 × the postings afterwards. Costs a memmove of what the
    /// list holds.
    fn compact_runs(&mut self) {
        let mut order: Vec<usize> = (0..self.elems.len()).collect();
        order.sort_unstable_by_key(|&i| self.offsets[3 * i]);
        let mut at = 0;
        for i in order {
            let [start, end, room] = self.bounds(i);
            let kept = end + (room - end).min((end - start) / 4);
            self.list.move_slots_down(start..kept, at);
            let to = [at, at + end - start, at + kept - start];
            self.offsets[3 * i..3 * i + 3].copy_from_slice(&to.map(slot));
            at += kept - start;
        }
        self.list.truncate_slots(at);
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
            self.offsets.push(slot(self.list.len()));
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
        // offset is appended last, so the output is packed by construction
        // and no offset is patched in place.
        let mut out = FlatInverted {
            elems: Vec::new(),
            offsets: Vec::new(),
            list: ColumnList::with_capacity(self.num_postings() + new.len()),
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
        out.offsets.push(slot(out.list.len()));
        *self = out;
    }

    /// Number of stored postings (including tombstoned).
    pub fn num_postings(&self) -> usize {
        if self.is_packed() {
            self.list.len()
        } else {
            (0..self.elems.len()).map(|i| self.elem_run(i).len()).sum()
        }
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

    /// The one column list every element's run is cut from, tombstone
    /// bits included, and (roomy) unused slots between the runs
    /// (introspection for validators).
    pub fn list(&self) -> &ColumnList<W> {
        &self.list
    }

    /// Deliberately moves the last directory entry one slot past the
    /// list — packed, the runs no longer tile the list; roomy, the last
    /// element's slots end past it — so validator tests can confirm the
    /// corruption is reported.
    #[cfg(feature = "testing")]
    pub fn testing_corrupt_offsets(&mut self) {
        let past = slot(self.list.len() + 1);
        if let Some(last) = self.offsets.last_mut() {
            *last = past;
        }
    }

    /// Deliberately gives directory slot 1 the run and slots of slot 0
    /// (false with fewer than two elements): each run stays a sound
    /// id-sorted list, only their overlap is wrong, so validator tests can
    /// confirm the overlap itself is reported.
    #[cfg(feature = "testing")]
    pub fn testing_overlap_runs(&mut self) -> bool {
        if self.elems.len() < 2 {
            return false;
        }
        if self.is_packed() {
            self.unpack_runs();
        }
        self.offsets.copy_within(0..3, 3);
        true
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
        let runs =
            |idx: &CompactTemporalInverted| (0..3).map(|i| idx.elem_run(i)).collect::<Vec<_>>();
        for idx in [&mut one, &mut batch] {
            let p = idx.postings(5);
            assert_eq!(p.ids, [3, 4, 10]);
            assert_eq!((p.sts, p.ends), (&[70, 0, 7][..], &[80, 0, 8][..]));
            assert_eq!(idx.num_postings(), 6);
            assert!(idx.tombstone(5, 4));
            assert_eq!(neighbours(idx), untouched);
        }
        // The batch re-packs. The single inserts make the store roomy and
        // move only element 5's full run, to the list's end with room for
        // as many again; its neighbours' runs stay where the build put
        // them.
        assert!(batch.is_packed());
        assert_eq!(runs(&batch), [0..2, 2..5, 5..6]);
        assert!(!one.is_packed());
        assert_eq!(runs(&one), [0..2, 5..8, 4..5]);
        assert_eq!(one.elem_slots(1), 5..9);
        // An id past element 5's run that element 6 starts with takes a
        // slot of its own, the last of the run's room, instead of reviving
        // element 6's posting.
        one.insert(5, 12, [0, 0]);
        batch.merge_in(&mut [(5, 12, [0, 0])]);
        for idx in [&mut one, &mut batch] {
            assert!(idx.tombstone(5, 12));
            assert_eq!(idx.postings(5).ids, [3, 4 | TOMBSTONE, 10, 12 | TOMBSTONE]);
            assert_eq!(neighbours(idx), untouched);
        }
        assert_eq!(runs(&batch), [0..2, 2..6, 6..7]);
        assert_eq!(runs(&one), [0..2, 5..9, 4..5]);
        // A merge packs the store again, hole and room gone.
        one.merge_in(&mut [(6, 13, [1, 1])]);
        assert!(one.is_packed());
        assert_eq!(runs(&one), [0..2, 2..6, 6..8]);
        assert_eq!(one.list().len(), 8);
    }

    #[test]
    fn a_full_run_moves_and_only_its_own_tail_shifts() {
        // Element 1 between elements 0 and 2: a long stream of single
        // inserts into element 1 — appends, mid-run ids and revivals —
        // never moves element 0's or element 2's postings, and element 1's
        // slots stay within twice its run.
        let mut idx =
            CompactInverted::build(&mut [(0, 1, []), (0, 2, []), (1, 10, []), (2, 5, [])]);
        let mut model: Vec<u32> = vec![10];
        for k in 0..200u32 {
            let id = if k % 3 == 0 { 5 + k } else { 1000 + k };
            idx.insert(1, id, []);
            if let Err(p) = model.binary_search(&id) {
                model.insert(p, id);
            }
            if k % 7 == 0 {
                assert!(idx.tombstone(1, id));
                idx.insert(1, id, []);
            }
            assert_eq!(idx.postings(1).ids, model);
            assert_eq!((idx.elem_run(0), idx.elem_run(2)), (0..2, 3..4));
        }
        assert!(!idx.is_packed());
        let run = idx.elem_run(1);
        assert!(idx.elem_slots(1).len() <= 2 * run.len());
        assert_eq!(idx.num_postings(), 3 + model.len());
    }

    #[test]
    fn a_list_that_would_outgrow_its_allocation_drops_its_holes() {
        // 64 elements of 8 postings; rounds of one fresh id into every
        // element move each full run to the list's end, leaving holes. When
        // a move would reallocate the list while over half as many slots
        // as postings lie unused, the list is compacted instead: it gets
        // shorter, no hole is left but the one the run that asked leaves
        // when it then moves to the end, and no posting changes.
        let mut entries: Vec<Entry<0>> = (0..64u32)
            .flat_map(|e| (0..8).map(move |id| (e, id, [])))
            .collect();
        let mut idx = CompactInverted::build(&mut entries);
        let mut compacted = 0;
        for round in 0..24u32 {
            for e in 0..64 {
                let before = idx.list().len();
                idx.insert(e, 100 + round, []);
                if idx.list().len() < before {
                    compacted += 1;
                    let owned: usize = (0..64).map(|i| idx.elem_slots(i).len()).sum();
                    assert!(idx.list().len() - owned < idx.postings(e).len());
                }
                let want: Vec<u32> = (0..8).chain(100..101 + round).collect();
                assert_eq!(idx.postings(e).ids, want);
                assert!(idx.list().len() <= 3 * idx.num_postings());
            }
        }
        assert!(compacted > 0);
        assert_eq!(idx.num_postings(), 64 * (8 + 24));
    }

    #[test]
    fn merge_in_empty_batch_is_noop() {
        let mut idx = CompactInverted::build(&mut [(1, 2, [])]);
        idx.merge_in(&mut []);
        assert_eq!(idx.postings(1).ids, &[2]);
    }
}
