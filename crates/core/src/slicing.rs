//! **tIF+Slicing** (Berberich et al., Section 2.2): the time domain is cut
//! into disjoint slices and every postings list is vertically divided into
//! per-slice sub-lists, replicating entries into each slice they overlap.
//! Duplicate results are avoided with the reference value method.

use crate::collection::Collection;
use crate::method::Method;
use crate::per_term::{PerTerm, TermPartition};
use crate::types::{Interval, Timestamp};
use tir_hint::IntervalRecord;
use tir_invidx::planner::QueryScratch;
use tir_invidx::{live, ColumnList, TemporalList};

/// Default slice count; Section 5.2 selects 50 as the smallest value in
/// the highest-throughput plateau.
pub const DEFAULT_SLICES: u32 = 50;

/// The slice grid every term of a sliced index shares: `k` equal slices
/// over the collection's time domain.
#[derive(Debug, Clone, Copy)]
pub struct SliceGrid {
    domain_min: Timestamp,
    domain_max: Timestamp,
    k: u32,
}

impl SliceGrid {
    pub(crate) fn new(coll: &Collection, k: u32) -> Self {
        assert!(k >= 1);
        let d = coll.domain();
        SliceGrid {
            domain_min: d.st,
            domain_max: d.end,
            k,
        }
    }

    /// Slice index of a raw timestamp (clamped to the domain).
    #[inline]
    pub fn slice_of(&self, t: Timestamp) -> u32 {
        tir_hint::slice_of(t, self.domain_min, self.domain_max, self.k)
    }

    /// Number of slices.
    pub fn num_slices(&self) -> u32 {
        self.k
    }
}

/// A postings list divided into per-slice id-sorted sub-lists — the one
/// slice container: `W = 2` is a tIF+Slicing term, `W = 1` the hybrid's
/// `⟨id, start⟩` copy. Sparse: only the slices between the first and last
/// covered one are materialized.
#[derive(Debug, Clone, Default)]
pub struct SlicedList<const W: usize> {
    first: u32,
    pub(crate) subs: Vec<ColumnList<W>>,
}

impl<const W: usize> SlicedList<W> {
    /// The sub-list of slice `s`, if materialized.
    fn sub(&self, s: u32) -> Option<&ColumnList<W>> {
        self.subs.get(s.checked_sub(self.first)? as usize)
    }

    /// Every materialized `(slice, sub-list)`, slices ascending
    /// (introspection for validators).
    pub fn iter(&self) -> impl Iterator<Item = (u32, &ColumnList<W>)> {
        (self.first..).zip(&self.subs)
    }

    /// Replicates the posting into every slice its interval overlaps,
    /// materializing them first.
    pub(crate) fn place(&mut self, grid: &SliceGrid, r: &IntervalRecord, span: [Timestamp; W]) {
        let (lo, hi) = (grid.slice_of(r.st), grid.slice_of(r.end));
        if self.subs.is_empty() {
            self.first = lo;
        } else if lo < self.first {
            let grow = (self.first - lo) as usize;
            let mut fresh = Vec::with_capacity(grow + self.subs.len());
            fresh.resize_with(grow, ColumnList::default);
            fresh.append(&mut self.subs);
            self.subs = fresh;
            self.first = lo;
        }
        let want = (hi - self.first) as usize + 1;
        if want > self.subs.len() {
            self.subs.resize_with(want, ColumnList::default);
        }
        for sub in &mut self.subs[(lo - self.first) as usize..want] {
            sub.insert(r.id, span);
        }
    }

    /// Tombstones every slice copy of `r`; returns true if one was alive.
    pub(crate) fn tombstone_copies(&mut self, grid: &SliceGrid, r: &IntervalRecord) -> bool {
        // The already materialized slices among the record's span.
        let n = self.subs.len();
        let from = (grid.slice_of(r.st).saturating_sub(self.first) as usize).min(n);
        let to = ((grid.slice_of(r.end) + 1).saturating_sub(self.first) as usize).clamp(from, n);
        let mut found = false;
        for sub in &mut self.subs[from..to] {
            found |= sub.tombstone(r.id);
        }
        found
    }

    /// Marks the sorted candidate set against each relevant id-sorted
    /// sub-list. A candidate may be replicated into several slices, so the
    /// planner marks hits rather than emitting them directly, and keeps
    /// each id once.
    pub(crate) fn restrict_marked(
        &self,
        grid: &SliceGrid,
        q: Interval,
        scratch: &mut QueryScratch,
    ) {
        scratch.intersect_runs(|runs| {
            for s in grid.slice_of(q.st)..=grid.slice_of(q.end) {
                if let Some(sub) = self.sub(s) {
                    runs.mark_run(&sub.ids);
                }
            }
        });
    }

    /// Bytes of the materialized sub-lists' columns.
    pub(crate) fn columns_bytes(&self) -> usize {
        self.subs.iter().map(ColumnList::size_bytes).sum()
    }
}

/// The tIF+Slicing index: a term holds its list cut into time slices.
pub type TifSlicing = PerTerm<SlicedList<2>>;

impl TifSlicing {
    /// Builds with the default slice count.
    pub fn build(coll: &Collection) -> Self {
        Self::build_with_slices(coll, DEFAULT_SLICES)
    }

    /// Builds with `k` slices over the collection's domain.
    pub fn build_with_slices(coll: &Collection, k: u32) -> Self {
        Self::build_with(coll, SliceGrid::new(coll, k))
    }
}

impl TermPartition for SlicedList<2> {
    type Shared = SliceGrid;

    fn method(_: &SliceGrid) -> Method {
        Method::Slicing
    }

    fn build(grid: &SliceGrid, records: &[IntervalRecord]) -> Self {
        let mut sl = SlicedList::default();
        for r in records {
            sl.place(grid, r, [r.st, r.end]);
        }
        sl
    }

    fn insert(&mut self, grid: &SliceGrid, r: &IntervalRecord) {
        self.place(grid, r, [r.st, r.end]);
    }

    fn tombstone(&mut self, grid: &SliceGrid, r: &IntervalRecord) -> bool {
        self.tombstone_copies(grid, r)
    }

    /// Temporal filter + reference-value de-duplication.
    fn seed_into(&self, grid: &SliceGrid, q: Interval, scratch: &mut QueryScratch) -> u64 {
        let (q_st, q_end) = (q.st, q.end);
        let mut scanned = 0u64;
        for s in grid.slice_of(q_st)..=grid.slice_of(q_end) {
            let Some(sub) = self.sub(s) else { continue };
            let [sts, ends] = &sub.cols;
            scanned += sub.ids.len() as u64;
            for i in 0..sub.ids.len() {
                if live(sub.ids[i]) && sts[i] <= q_end && ends[i] >= q_st {
                    // Reference value: report only from the slice
                    // containing max(o.st, q.st).
                    if grid.slice_of(sts[i].max(q_st)) == s {
                        scratch.cands.push(sub.ids[i]);
                    }
                }
            }
        }
        scratch.cands.sort_unstable();
        scanned
    }

    fn restrict(&self, grid: &SliceGrid, q: Interval, scratch: &mut QueryScratch) {
        self.restrict_marked(grid, q, scratch);
    }

    fn for_each_id_list(&self, mut f: impl FnMut(&[u32])) {
        self.subs.iter().for_each(|sub| f(&sub.ids));
    }

    fn size_bytes(&self) -> usize {
        self.columns_bytes()
            + self.subs.len() * std::mem::size_of::<TemporalList>()
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_counted() {
        let coll = Collection::running_example();
        let stored = |k| {
            let mut n = 0;
            let idx = TifSlicing::build_with_slices(&coll, k);
            idx.for_each_term(|_, t| n += t.iter().map(|(_, sub)| sub.len()).sum::<usize>());
            n
        };
        assert!(stored(8) > stored(1));
    }

    #[test]
    fn contract() {
        // Figure 2 of the paper uses 4 slices.
        for k in [1u32, 2, 3, 4, 8, 16] {
            crate::per_term::contract::holds(&format!("k={k}"), |c| {
                TifSlicing::build_with_slices(c, k)
            });
        }
    }
}
