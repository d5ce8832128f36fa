//! **tIF+Slicing** (Berberich et al., Section 2.2): the time domain is cut
//! into disjoint slices and every postings list is vertically divided into
//! per-slice sub-lists, replicating entries into each slice they overlap.
//! Duplicate results are avoided with the reference value method.

use std::collections::HashMap;

use crate::collection::Collection;
use crate::freq::FreqTable;
use crate::index_trait::TemporalIrIndex;
use crate::method::Method;
use crate::postings::TemporalList;
use crate::types::{Object, ObjectId, TimeTravelQuery, Timestamp};
use tir_invidx::live;
use tir_invidx::planner::{Kernel, QueryScratch};

/// Default slice count; Section 5.2 selects 50 as the smallest value in
/// the highest-throughput plateau.
pub const DEFAULT_SLICES: u32 = 50;

/// A postings list divided into per-slice sub-lists `L` — the one slice
/// container, shared with the hybrid's `⟨id, start⟩` copy. Sparse: only the
/// slices between the first and last covered one are materialized.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlicedList<L> {
    first: u32,
    subs: Vec<L>,
}

impl<L: Default> SlicedList<L> {
    /// Materializes slices `lo..=hi` and returns their sub-lists.
    pub(crate) fn cover(&mut self, lo: u32, hi: u32) -> &mut [L] {
        if self.subs.is_empty() {
            self.first = lo;
            self.subs.resize_with((hi - lo + 1) as usize, L::default);
        } else {
            if lo < self.first {
                let grow = (self.first - lo) as usize;
                let mut fresh: Vec<L> = Vec::with_capacity(grow + self.subs.len());
                fresh.resize_with(grow, L::default);
                fresh.append(&mut self.subs);
                self.subs = fresh;
                self.first = lo;
            }
            let want = (hi - self.first) as usize + 1;
            if want > self.subs.len() {
                self.subs.resize_with(want, L::default);
            }
        }
        &mut self.subs[(lo - self.first) as usize..=(hi - self.first) as usize]
    }
}

impl<L> SlicedList<L> {
    /// The sub-list of slice `s`, if materialized.
    pub(crate) fn sub(&self, s: u32) -> Option<&L> {
        self.subs.get(s.checked_sub(self.first)? as usize)
    }

    /// The already materialized sub-lists among slices `lo..=hi`.
    pub(crate) fn existing_mut(&mut self, lo: u32, hi: u32) -> &mut [L] {
        let n = self.subs.len();
        let from = (lo.saturating_sub(self.first) as usize).min(n);
        let to = ((hi + 1).saturating_sub(self.first) as usize).clamp(from, n);
        &mut self.subs[from..to]
    }

    /// Every materialized `(slice, sub-list)`, slices ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &L)> {
        (self.first..).zip(&self.subs)
    }

    /// The materialized sub-lists, slices ascending.
    pub(crate) fn subs(&self) -> &[L] {
        &self.subs
    }

    /// Sub-list slots allocated (at least `subs().len()`).
    pub(crate) fn slots(&self) -> usize {
        self.subs.capacity()
    }
}

/// The tIF+Slicing index.
#[derive(Debug, Clone)]
pub struct TifSlicing {
    domain_min: Timestamp,
    domain_max: Timestamp,
    k: u32,
    lists: HashMap<u32, SlicedList<TemporalList>>,
    freqs: FreqTable,
}

impl TifSlicing {
    /// Builds with the default slice count.
    pub fn build(coll: &Collection) -> Self {
        Self::build_with_slices(coll, DEFAULT_SLICES)
    }

    /// Builds with `k` slices over the collection's domain.
    pub fn build_with_slices(coll: &Collection, k: u32) -> Self {
        assert!(k >= 1);
        let d = coll.domain();
        let mut idx = TifSlicing {
            domain_min: d.st,
            domain_max: d.end,
            k,
            lists: HashMap::new(),
            freqs: FreqTable::from_counts(coll.freqs()),
        };
        for o in coll.objects() {
            idx.place(o);
        }
        idx
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

    /// Total stored postings, counting replication.
    pub fn num_postings(&self) -> usize {
        self.lists
            .values()
            .flat_map(|sl| sl.subs())
            .map(TemporalList::len)
            .sum()
    }

    /// Document frequency of an element as tracked by the planner.
    pub fn freq(&self, e: u32) -> u32 {
        self.freqs.get(e)
    }

    /// Calls `f(element, slice, sub-list)` for every materialized
    /// sub-list, slices ascending per element (introspection for
    /// validators).
    pub fn for_each_sublist(&self, mut f: impl FnMut(u32, u32, &TemporalList)) {
        for (&e, sl) in &self.lists {
            sl.iter().for_each(|(s, sub)| f(e, s, sub));
        }
    }

    fn place(&mut self, o: &Object) {
        let lo = self.slice_of(o.interval.st);
        let hi = self.slice_of(o.interval.end);
        for &e in &o.desc {
            for sub in self.lists.entry(e).or_default().cover(lo, hi) {
                sub.insert(o.id, o.interval.st, o.interval.end);
            }
        }
    }
}

impl TemporalIrIndex for TifSlicing {
    fn name(&self) -> &'static str {
        Method::Slicing.paper_name()
    }

    fn query_into(&self, q: &TimeTravelQuery, scratch: &mut QueryScratch, out: &mut Vec<ObjectId>) {
        scratch.reset();
        self.freqs.plan_into(&q.elems, &mut scratch.plan);
        if scratch.plan.is_empty() {
            return;
        }
        let (q_st, q_end) = (q.interval.st, q.interval.end);
        let s_lo = self.slice_of(q_st);
        let s_hi = self.slice_of(q_end);

        // Least frequent element: temporal filter + reference-value dedup.
        let first = scratch.plan[0];
        let mut scanned = 0u64;
        if let Some(sl) = self.lists.get(&first) {
            for s in s_lo..=s_hi {
                let Some(sub) = sl.sub(s) else { continue };
                scanned += sub.ids.len() as u64;
                for i in 0..sub.ids.len() {
                    if live(sub.ids[i]) && sub.sts[i] <= q_end && sub.ends[i] >= q_st {
                        // Reference value: report only from the slice
                        // containing max(o.st, q.st).
                        if self.slice_of(sub.sts[i].max(q_st)) == s {
                            scratch.cands.push(sub.ids[i]);
                        }
                    }
                }
            }
        }
        scratch.note(Kernel::Merge, scanned);
        scratch.cands.sort_unstable();

        // Remaining elements: merge-mark the sorted candidate set against
        // each relevant id-sorted sub-list. A candidate may be replicated
        // into several slices, so hits are marked rather than emitted
        // directly; compaction keeps the set sorted for the next round.
        for pi in 1..scratch.plan.len() {
            if scratch.cands.is_empty() {
                break;
            }
            let e = scratch.plan[pi];
            let mut cands = std::mem::take(&mut scratch.cands);
            scratch.begin_mark(cands.len());
            if let Some(sl) = self.lists.get(&e) {
                for s in s_lo..=s_hi {
                    let Some(sub) = sl.sub(s) else { continue };
                    scratch.mark(&cands, &sub.ids);
                }
            }
            scratch.finish_mark(&mut cands);
            scratch.cands = cands;
        }
        scratch.take_into(out);
    }

    fn insert(&mut self, o: &Object) {
        self.place(o);
        for &e in &o.desc {
            self.freqs.bump(e);
        }
    }

    fn delete(&mut self, o: &Object) -> bool {
        let lo = self.slice_of(o.interval.st);
        let hi = self.slice_of(o.interval.end);
        let mut any = false;
        for &e in &o.desc {
            if let Some(sl) = self.lists.get_mut(&e) {
                let mut found = false;
                for sub in sl.existing_mut(lo, hi) {
                    found |= sub.tombstone(o.id);
                }
                if found {
                    self.freqs.drop_one(e);
                    any = true;
                }
            }
        }
        any
    }

    fn size_bytes(&self) -> usize {
        self.lists
            .values()
            .map(|sl| {
                let subs = sl.subs().iter();
                subs.map(|l| l.size_bytes() + std::mem::size_of::<TemporalList>())
                    .sum::<usize>()
                    + std::mem::size_of::<SlicedList<TemporalList>>()
                    + 16
            })
            .sum::<usize>()
            + self.freqs.size_bytes()
    }
}

/// Tunes the slice count per Berberich et al.: among candidate counts
/// whose replication blow-up stays within `max_blowup` (factor over the
/// unreplicated size), picks the one minimizing the expected number of
/// postings read for a query of `extent` (fraction of the domain).
///
/// The expected read cost for `k` slices is
/// `E[k] = postings(k) * (extent + 1/k)`: a query overlaps about
/// `extent * k + 1` of the `k` slices and reads the entries replicated
/// into them.
pub fn tune_num_slices(coll: &Collection, candidates: &[u32], max_blowup: f64, extent: f64) -> u32 {
    let d = coll.domain();
    let base: u64 = coll.objects().iter().map(|o| o.desc.len() as u64).sum();
    let mut best = (f64::INFINITY, 1u32);
    for &k in candidates {
        assert!(k >= 1);
        let slice_of = |t: Timestamp| tir_hint::slice_of(t, d.st, d.end, k);
        let mut postings: u64 = 0;
        for o in coll.objects() {
            let copies = (slice_of(o.interval.end) - slice_of(o.interval.st) + 1) as u64;
            postings += copies * o.desc.len() as u64;
        }
        if base > 0 && postings as f64 / base as f64 > max_blowup {
            continue;
        }
        let cost = postings as f64 * (extent + 1.0 / k as f64);
        if cost < best.0 {
            best = (cost, k);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::BruteForce;

    #[test]
    fn running_example_with_four_slices() {
        // Figure 2 of the paper uses 4 slices.
        let coll = Collection::running_example();
        let idx = TifSlicing::build_with_slices(&coll, 4);
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        let mut got = idx.query(&q);
        got.sort_unstable();
        assert_eq!(got, vec![1, 3, 6]);
    }

    #[test]
    fn matches_oracle_for_many_slice_counts() {
        let coll = Collection::running_example();
        let bf = BruteForce::build(coll.objects());
        for k in [1u32, 2, 3, 4, 8, 16] {
            let idx = TifSlicing::build_with_slices(&coll, k);
            for st in 0..16u64 {
                for end in st..16 {
                    for elems in [vec![0], vec![2], vec![0, 2], vec![0, 1, 2]] {
                        let q = TimeTravelQuery::new(st, end, elems);
                        let mut got = idx.query(&q);
                        let n = got.len();
                        got.sort_unstable();
                        got.dedup();
                        assert_eq!(n, got.len(), "duplicates k={k} q={q:?}");
                        assert_eq!(got, bf.answer(&q), "k={k} q={q:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn replication_counted() {
        let coll = Collection::running_example();
        let k1 = TifSlicing::build_with_slices(&coll, 1);
        let k8 = TifSlicing::build_with_slices(&coll, 8);
        assert!(k8.num_postings() > k1.num_postings());
    }

    #[test]
    fn updates_match_oracle() {
        let coll = Collection::running_example();
        let mut idx = TifSlicing::build_with_slices(&coll, 4);
        let mut bf = BruteForce::build(coll.objects());
        let o = Object::new(8, 0, 15, vec![0, 2]);
        idx.insert(&o);
        bf.insert(&o);
        assert!(idx.delete(coll.get(3)));
        bf.delete(coll.get(3));
        assert!(!idx.delete(coll.get(3)));
        for (st, end) in [(0u64, 15u64), (5, 9), (14, 15)] {
            let q = TimeTravelQuery::new(st, end, vec![0, 2]);
            let mut got = idx.query(&q);
            got.sort_unstable();
            assert_eq!(got, bf.answer(&q));
        }
    }

    #[test]
    fn tuner_respects_budget() {
        let coll = Collection::running_example();
        // With a tight budget, huge slice counts must be rejected.
        let k = tune_num_slices(&coll, &[1, 4, 16, 64], 1.5, 0.001);
        let idx_k = TifSlicing::build_with_slices(&coll, k);
        let base = TifSlicing::build_with_slices(&coll, 1);
        assert!(idx_k.num_postings() as f64 <= 1.5 * base.num_postings() as f64);
    }
}
