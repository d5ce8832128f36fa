//! Time-aware postings lists: the building block of every IR-first index.

use crate::types::{ObjectId, Timestamp};
use tir_invidx::{live, raw, TOMBSTONE};

/// An id-sorted column list: object ids (raw-id order, tombstone high bit
/// marks logical deletes) plus `W` parallel endpoint columns. `W = 2`
/// keeps `[start, end]` — the time-aware postings list `I[e]` of the base
/// temporal inverted file (Section 2.2, [`TemporalList`]); `W = 1` keeps
/// the start alone — the hybrid's `⟨o.id, o.tst⟩` slice copy
/// (Section 3.2). At most one entry per raw id: the tombstone-aware
/// kernels stop at the first raw match.
#[derive(Debug, Clone)]
pub struct ColumnList<const W: usize> {
    /// Object ids (tombstone high bit marks logical deletes).
    pub ids: Vec<u32>,
    /// Endpoint columns parallel to `ids`: starts, then (`W = 2`) ends.
    pub cols: [Vec<Timestamp>; W],
}

/// A time-aware postings list `I[e]` of `⟨o.id, [o.tst, o.tend]⟩` entries.
pub type TemporalList = ColumnList<2>;

impl<const W: usize> Default for ColumnList<W> {
    fn default() -> Self {
        ColumnList {
            ids: Vec::new(),
            cols: std::array::from_fn(|_| Vec::new()),
        }
    }
}

impl<const W: usize> ColumnList<W> {
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
    pub fn sts(&self) -> &[Timestamp] {
        &self.cols[0]
    }

    /// Appends or inserts keeping raw-id order. An entry already stored
    /// under `id` — the tombstone a delete left — is revived in place with
    /// the new endpoints, so a re-used id never occupies two slots.
    pub fn insert(&mut self, id: ObjectId, span: [Timestamp; W]) {
        let pos = match self.ids.last() {
            Some(&last) if raw(last) >= id => self.ids.partition_point(|&x| raw(x) < id),
            _ => self.ids.len(),
        };
        if self.ids.get(pos).is_some_and(|&x| raw(x) == id) {
            self.ids[pos] = id;
            for (col, v) in self.cols.iter_mut().zip(span) {
                col[pos] = v;
            }
        } else {
            self.ids.insert(pos, id);
            for (col, v) in self.cols.iter_mut().zip(span) {
                col.insert(pos, v);
            }
        }
    }

    /// Tombstones the entry of `id`; returns true if found alive.
    pub fn tombstone(&mut self, id: ObjectId) -> bool {
        if let Ok(p) = self.ids.binary_search_by_key(&id, |&x| raw(x)) {
            if live(self.ids[p]) {
                self.ids[p] |= TOMBSTONE;
                return true;
            }
        }
        false
    }

    /// Heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.ids.capacity() * 4 + self.cols.iter().map(|c| c.capacity() * 8).sum::<usize>()
    }
}

impl TemporalList {
    /// Interval ends, parallel to `ids`.
    #[inline]
    pub fn ends(&self) -> &[Timestamp] {
        &self.cols[1]
    }

    /// Appends to `out` every live id whose interval overlaps
    /// `[q_st, q_end]` — the temporal filter applied to the least-frequent
    /// element's list in Algorithm 1 — and returns the number of entries
    /// scanned, which the caller charges to its query counters. Output
    /// order follows the list (i.e. ascending by id).
    pub fn seed_overlap_into(
        &self,
        q_st: Timestamp,
        q_end: Timestamp,
        out: &mut Vec<ObjectId>,
    ) -> usize {
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
