//! **tIF+HINT+Slicing** (Section 3.2): a dual-copy IR-first hybrid. Each
//! postings list is stored twice — once as an id-sorted HINT used to
//! answer the time-travel part on the least frequent element, and once as
//! time-sliced sub-lists of `⟨o.id, o.tst⟩` pairs used for the follow-up
//! intersections, which touch far fewer partitions than HINT divisions.

use std::collections::HashMap;

use crate::collection::Collection;
use crate::freq::FreqTable;
use crate::index_trait::TemporalIrIndex;
use crate::method::Method;
use crate::slicing::SlicedList;
use crate::types::{Object, ObjectId, TimeTravelQuery, Timestamp};
use tir_hint::{DivisionOrder, Hint, HintConfig, IntervalRecord};
use tir_invidx::planner::{Kernel, QueryScratch};
use tir_invidx::{live, raw, TOMBSTONE};

/// Default HINT levels for the hybrid; Section 5.2 tunes `m = 5`.
pub const DEFAULT_M: u32 = 5;

/// A slice sub-list storing `⟨id, tst⟩` pairs sorted by id. The interval
/// end is omitted (Section 3.2): after the HINT pass, intersections no
/// longer check the temporal predicate, and the start alone supports the
/// reference-value de-duplication the paper falls back to.
#[derive(Debug, Clone, Default)]
struct IdStList {
    ids: Vec<u32>,
    sts: Vec<Timestamp>,
}

impl IdStList {
    fn insert(&mut self, id: u32, st: Timestamp) {
        match self.ids.last() {
            Some(&last) if raw(last) > id => {
                let pos = self.ids.partition_point(|&x| raw(x) <= id);
                self.ids.insert(pos, id);
                self.sts.insert(pos, st);
            }
            _ => {
                self.ids.push(id);
                self.sts.push(st);
            }
        }
    }

    fn size_bytes(&self) -> usize {
        self.ids.capacity() * 4 + self.sts.capacity() * 8
    }
}

/// The tIF+HINT+Slicing hybrid index.
#[derive(Debug, Clone)]
pub struct TifHintSlicing {
    hints: HashMap<u32, Hint>,
    slices: HashMap<u32, SlicedList<IdStList>>,
    freqs: FreqTable,
    domain_min: Timestamp,
    domain_max: Timestamp,
    k: u32,
    m: u32,
}

impl TifHintSlicing {
    /// Builds with the paper-tuned defaults (`m = 5`, 50 slices).
    pub fn build(coll: &Collection) -> Self {
        Self::build_with_params(coll, DEFAULT_M, crate::slicing::DEFAULT_SLICES)
    }

    /// Builds with explicit HINT levels and slice count.
    pub fn build_with_params(coll: &Collection, m: u32, k: u32) -> Self {
        assert!(k >= 1);
        let d = coll.domain();
        let mut per_elem: HashMap<u32, Vec<IntervalRecord>> = HashMap::new();
        for o in coll.objects() {
            let rec = IntervalRecord {
                id: o.id,
                st: o.interval.st,
                end: o.interval.end,
            };
            for &e in &o.desc {
                per_elem.entry(e).or_default().push(rec);
            }
        }
        let cfg = HintConfig {
            m: Some(m),
            order: DivisionOrder::ById,
            storage_opt: true,
        };
        let hints = per_elem
            .iter()
            .map(|(&e, recs)| (e, Hint::build_with_domain(recs, d.st, d.end, cfg)))
            .collect();
        let mut idx = TifHintSlicing {
            hints,
            slices: HashMap::new(),
            freqs: FreqTable::from_counts(coll.freqs()),
            domain_min: d.st,
            domain_max: d.end,
            k,
            m,
        };
        for (e, recs) in per_elem {
            for r in recs {
                idx.place_slice(e, r.id, r.st, r.end);
            }
        }
        idx
    }

    /// Slice index of a raw timestamp (clamped to the domain).
    #[inline]
    pub fn slice_of(&self, t: Timestamp) -> u32 {
        tir_hint::slice_of(t, self.domain_min, self.domain_max, self.k)
    }

    fn place_slice(&mut self, e: u32, id: u32, st: Timestamp, end: Timestamp) {
        let (lo, hi) = (self.slice_of(st), self.slice_of(end));
        for sub in self.slices.entry(e).or_default().cover(lo, hi) {
            sub.insert(id, st);
        }
    }

    /// Total stored postings across both copies.
    pub fn num_postings(&self) -> usize {
        let hint_entries: usize = self.hints.values().map(Hint::num_entries).sum();
        let slice_entries: usize = self
            .slices
            .values()
            .flat_map(|sc| sc.subs())
            .map(|l| l.ids.len())
            .sum();
        hint_entries + slice_entries
    }

    /// The configured HINT levels parameter.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Number of slices of the sliced copy.
    pub fn num_slices(&self) -> u32 {
        self.k
    }

    /// Document frequency of an element as tracked by the planner.
    pub fn freq(&self, e: u32) -> u32 {
        self.freqs.get(e)
    }

    /// Calls `f(element, hint)` for every per-element HINT, in
    /// unspecified element order (introspection for validators).
    pub fn for_each_hint(&self, mut f: impl FnMut(u32, &Hint)) {
        for (&e, h) in &self.hints {
            f(e, h);
        }
    }

    /// Calls `f(element, slice, ids, starts)` for every materialized
    /// sub-list of the sliced copy, slices ascending per element
    /// (introspection for validators).
    pub fn for_each_sublist(&self, mut f: impl FnMut(u32, u32, &[u32], &[Timestamp])) {
        for (&e, sc) in &self.slices {
            sc.iter().for_each(|(s, sub)| f(e, s, &sub.ids, &sub.sts));
        }
    }
}

impl TemporalIrIndex for TifHintSlicing {
    fn name(&self) -> &'static str {
        Method::Hybrid.paper_name()
    }

    fn query_into(&self, q: &TimeTravelQuery, scratch: &mut QueryScratch, out: &mut Vec<ObjectId>) {
        scratch.reset();
        self.freqs.plan_into(&q.elems, &mut scratch.plan);
        if scratch.plan.is_empty() {
            return;
        }
        let first = scratch.plan[0];
        let Some(h0) = self.hints.get(&first) else {
            scratch.take_into(out);
            return;
        };
        h0.range_query_into(q.interval.st, q.interval.end, &mut scratch.cands);
        scratch.note(Kernel::Merge, scratch.cands.len() as u64);

        scratch.cands.sort_unstable();

        // Remaining elements: merge-mark the sorted candidate set against
        // the sliced copies. A candidate is replicated into every slice it
        // overlaps, so hits are marked across sub-lists and compacted once
        // per round, which keeps the set sorted and emits each id once.
        let s_lo = self.slice_of(q.interval.st);
        let s_hi = self.slice_of(q.interval.end);
        for pi in 1..scratch.plan.len() {
            if scratch.cands.is_empty() {
                break;
            }
            let e = scratch.plan[pi];
            let mut cands = std::mem::take(&mut scratch.cands);
            scratch.begin_mark(cands.len());
            if let Some(sc) = self.slices.get(&e) {
                for s in s_lo..=s_hi {
                    if let Some(sub) = sc.sub(s) {
                        scratch.mark(&cands, &sub.ids);
                    }
                }
            }
            scratch.finish_mark(&mut cands);
            scratch.cands = cands;
        }
        scratch.take_into(out);
    }

    fn insert(&mut self, o: &Object) {
        let rec = IntervalRecord {
            id: o.id,
            st: o.interval.st,
            end: o.interval.end,
        };
        let cfg = HintConfig {
            m: Some(self.m),
            order: DivisionOrder::ById,
            storage_opt: true,
        };
        let (dmin, dmax) = (self.domain_min, self.domain_max);
        for &e in &o.desc {
            self.hints
                .entry(e)
                .or_insert_with(|| Hint::build_with_domain(&[], dmin, dmax, cfg))
                .insert(&rec);
            self.freqs.bump(e);
        }
        for &e in &o.desc {
            self.place_slice(e, o.id, o.interval.st, o.interval.end);
        }
    }

    fn delete(&mut self, o: &Object) -> bool {
        let rec = IntervalRecord {
            id: o.id,
            st: o.interval.st,
            end: o.interval.end,
        };
        let lo = self.slice_of(o.interval.st);
        let hi = self.slice_of(o.interval.end);
        let mut any = false;
        for &e in &o.desc {
            let mut found = false;
            if let Some(h) = self.hints.get_mut(&e) {
                found |= h.delete(&rec);
            }
            if let Some(sc) = self.slices.get_mut(&e) {
                for sub in sc.existing_mut(lo, hi) {
                    if let Ok(p) = sub.ids.binary_search_by_key(&o.id, |&x| raw(x)) {
                        if live(sub.ids[p]) {
                            sub.ids[p] |= TOMBSTONE;
                        }
                    }
                }
            }
            if found {
                self.freqs.drop_one(e);
                any = true;
            }
        }
        any
    }

    fn size_bytes(&self) -> usize {
        let hints: usize = self.hints.values().map(|h| h.size_bytes() + 16).sum();
        let slices: usize = self
            .slices
            .values()
            .map(|sc| {
                sc.subs().iter().map(IdStList::size_bytes).sum::<usize>()
                    + sc.slots() * std::mem::size_of::<IdStList>()
                    + 16
            })
            .sum();
        hints + slices + self.freqs.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::BruteForce;

    #[test]
    fn running_example() {
        let coll = Collection::running_example();
        let idx = TifHintSlicing::build_with_params(&coll, 3, 4);
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        let mut got = idx.query(&q);
        got.sort_unstable();
        assert_eq!(got, vec![1, 3, 6]);
    }

    #[test]
    fn matches_oracle_on_example_grid() {
        let coll = Collection::running_example();
        let bf = BruteForce::build(coll.objects());
        for (m, k) in [(2u32, 1u32), (3, 4), (4, 8), (5, 16)] {
            let idx = TifHintSlicing::build_with_params(&coll, m, k);
            for st in 0..16u64 {
                for end in st..16 {
                    for elems in [vec![0], vec![2], vec![0, 2], vec![0, 1, 2]] {
                        let q = TimeTravelQuery::new(st, end, elems);
                        let mut got = idx.query(&q);
                        let n = got.len();
                        got.sort_unstable();
                        got.dedup();
                        assert_eq!(n, got.len(), "duplicates m={m} k={k}");
                        assert_eq!(got, bf.answer(&q), "m={m} k={k} q={q:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn dual_structure_is_larger_than_single() {
        let coll = Collection::running_example();
        let hybrid = TifHintSlicing::build_with_params(&coll, 3, 4);
        let raw_postings: usize = coll.objects().iter().map(|o| o.desc.len()).sum();
        assert!(hybrid.num_postings() >= 2 * raw_postings);
    }

    #[test]
    fn updates_match_oracle() {
        let coll = Collection::running_example();
        let mut idx = TifHintSlicing::build_with_params(&coll, 3, 4);
        let mut bf = BruteForce::build(coll.objects());
        let o = Object::new(8, 2, 13, vec![0, 1, 2]);
        idx.insert(&o);
        bf.insert(&o);
        assert!(idx.delete(coll.get(3)));
        bf.delete(coll.get(3));
        assert!(!idx.delete(coll.get(3)));
        for elems in [vec![0], vec![0, 2], vec![0, 1, 2]] {
            for (st, end) in [(0u64, 15u64), (5, 9), (1, 2)] {
                let q = TimeTravelQuery::new(st, end, elems.clone());
                let mut got = idx.query(&q);
                got.sort_unstable();
                assert_eq!(got, bf.answer(&q));
            }
        }
    }
}
