//! **irHINT, performance variant** (Section 4.1): a single HINT hierarchy
//! over the whole collection where every division stores a *temporal
//! inverted file* of its objects. Queries traverse the hierarchy bottom-up
//! and run a condition-specialized `QueryTemporalIF` in each relevant
//! division; HINT's duplicate avoidance makes the per-division outputs
//! disjoint. Beside the hierarchy sits one index-wide membership bitmap per
//! dense element ([`ElemBitmaps`]): a non-seed query term that has one is
//! an O(1) probe per candidate instead of a search through every relevant
//! division's list.

use crate::collection::Collection;
use crate::freq::FreqTable;
use crate::index_trait::TemporalIrIndex;
use crate::method::Method;
use crate::types::{ElemId, Interval, Object, ObjectId, TimeTravelQuery};
use tir_hint::{CheckMode, DivisionKind, Domain, Hierarchy};
use tir_invidx::planner::{Kernel, Postings, QueryScratch};
use tir_invidx::{CompactTemporalInverted, ElemBitmaps, FlatInverted};

/// The performance-focused irHINT index.
#[derive(Debug, Clone)]
pub struct IrHintPerf {
    /// One temporal inverted file per division.
    tree: Hierarchy<CompactTemporalInverted>,
    freqs: FreqTable,
    /// Accelerator only: every bit is derivable from `tree`'s live
    /// original postings, and answers are the same without it.
    bitmaps: ElemBitmaps,
}

/// Gives a bitmap to each of `elems` that the density rule now admits and
/// that has none ([`ElemBitmaps::promote_qualifying`]), filled from the live
/// postings of the original divisions (an object is an original in exactly
/// one division). One pass over the hierarchy however many elements are
/// promoted, none if none is.
pub(crate) fn promote_dense<const W: usize>(
    bitmaps: &mut ElemBitmaps,
    tree: &Hierarchy<FlatInverted<W>>,
    freqs: &FreqTable,
    elems: impl IntoIterator<Item = ElemId>,
) {
    let fresh = bitmaps.promote_qualifying(elems, |e| freqs.get(e));
    if fresh.is_empty() {
        return;
    }
    tree.for_each_division(|div, _level, _j, kind| {
        if !kind.is_replica() && !div.is_empty() {
            for &e in &fresh {
                bitmaps.fill_from_postings(e, div.postings(e).ids);
            }
        }
    });
}

/// The id universe of a collection: its largest object id plus one.
pub(crate) fn universe_of(coll: &Collection) -> u32 {
    coll.objects().last().map_or(0, |o| o.id + 1)
}

impl IrHintPerf {
    /// Builds with `m` chosen by the IR-aware cost heuristic
    /// [`crate::irhint_size::choose_m_ir`].
    ///
    /// The interval-only HINT cost model over-partitions composite
    /// indexes: it prices a relevant partition at one entry touch, but an
    /// irHINT division costs `|q.d|` directory probes while its
    /// first-element postings are already `freq(e*)/n` shorter than the
    /// division. The heuristic therefore targets a fixed number of objects
    /// per bottom partition (large for this variant, whose per-division
    /// probe is priciest).
    pub fn build(coll: &Collection) -> Self {
        Self::build_with_m(coll, crate::irhint_size::choose_m_ir(coll.len(), 2048))
    }

    /// Builds with an explicit number of levels.
    pub fn build_with_m(coll: &Collection, m: u32) -> Self {
        let d = coll.domain();
        let mut index = IrHintPerf {
            tree: Hierarchy::new(Domain::new(d.st, d.end, m)),
            freqs: FreqTable::from_counts(coll.freqs()),
            bitmaps: ElemBitmaps::with_universe(universe_of(coll)),
        };
        index.place_batch(coll.objects());
        let dict = (0..).take(coll.dict_size());
        promote_dense(&mut index.bitmaps, &index.tree, &index.freqs, dict);
        index
    }

    /// Groups the batch per division, then merge-rebuilds each touched
    /// division's tIF once (a build is a merge into empty divisions).
    fn place_batch(&mut self, batch: &[Object]) {
        let mut buf: Vec<(u32, u32, [u64; 2])> = Vec::new();
        let spans = batch.iter().map(|o| (o.interval.st, o.interval.end));
        self.tree.place_batch(spans, |div, _kind, items| {
            buf.clear();
            for o in items.iter().map(|&i| &batch[i as usize]) {
                let span = [o.interval.st, o.interval.end];
                buf.extend(o.desc.iter().map(|&e| (e, o.id, span)));
            }
            div.merge_in(&mut buf);
        });
    }

    /// The number of levels minus one.
    pub fn m(&self) -> u32 {
        self.tree.domain().m()
    }

    /// Total stored postings over all division tIFs (replication included).
    pub fn num_postings(&self) -> usize {
        let mut n = 0;
        self.tree
            .for_each_division(|div, _, _, _| n += div.num_postings());
        n
    }

    /// Document frequency of an element as tracked by the planner.
    pub fn freq(&self, e: u32) -> u32 {
        self.freqs.get(e)
    }

    /// The discretized domain of the hierarchy.
    pub fn domain(&self) -> Domain {
        self.tree.domain()
    }

    /// Calls `f(level, j, kind, division tIF)` for every materialized
    /// division, in `(level, j, kind)` order (introspection for
    /// validators).
    pub fn for_each_division(
        &self,
        mut f: impl FnMut(u32, u32, DivisionKind, &CompactTemporalInverted),
    ) {
        self.tree
            .for_each_division(|div, level, j, kind| f(level, j, kind, div));
    }

    /// The dense-element bitmaps (introspection for validators).
    pub fn bitmaps(&self) -> &ElemBitmaps {
        &self.bitmaps
    }

    /// Drops every dense-element bitmap. Answers do not change: queries
    /// search the divisions' own lists until an `insert_batch` promotes
    /// again.
    pub fn drop_bitmaps(&mut self) {
        self.bitmaps.drop_all();
    }

    /// Deliberately breaks the parallel-array invariant of the first
    /// non-empty division — used by `tir-check`'s property tests to prove
    /// the validator notices.
    #[cfg(feature = "testing")]
    pub fn testing_corrupt(&mut self) {
        if let Some((div, _)) = self.tree.divisions_mut().find(|(d, _)| !d.is_empty()) {
            div.testing_corrupt_parallel();
        }
    }

    /// Flips one bit of the first dense-element bitmap (false if there is
    /// none) — the bitmap then disagrees with the postings, which
    /// `tir-check` must report.
    #[cfg(feature = "testing")]
    pub fn testing_corrupt_bitmap(&mut self) -> bool {
        self.bitmaps.testing_flip_bit()
    }
}

/// `QueryTemporalIF` (Algorithm 5): Algorithm 1 on one division's tIF
/// with the temporal comparisons reduced to `mode`, and with the
/// index-wide bitmap standing in for the division's list wherever a
/// non-seed element has one.
fn query_temporal_if(
    div: &CompactTemporalInverted,
    bitmaps: &ElemBitmaps,
    plan: &[ElemId],
    mode: CheckMode,
    q: Interval,
    scratch: &mut QueryScratch,
    out: &mut Vec<ObjectId>,
) {
    // An empty plan answers nothing; returning beats panicking a
    // serving thread if a caller ever stops pre-checking.
    let Some((&first, rest)) = plan.split_first() else {
        return;
    };
    let p = div.postings(first);
    if p.is_empty() {
        return;
    }
    scratch.cands.clear();
    mode.admit_into(p.ids, p.sts, p.ends, q.st, q.end, &mut scratch.cands);
    scratch.note(Kernel::Merge, p.ids.len() as u64);
    for &e in rest {
        if scratch.is_empty() {
            break;
        }
        scratch.intersect(match bitmaps.bitmap(e) {
            Some(words) => Postings::Bits(words),
            None => Postings::Ids(div.postings(e).ids),
        });
    }
    // Dense candidates against a bitmap leave the planner in bitmap form;
    // the next division must find it empty and in array form again.
    scratch.drain_into(out);
}

impl TemporalIrIndex for IrHintPerf {
    fn name(&self) -> &'static str {
        Method::IrHintPerf.paper_name()
    }

    fn query_into(&self, q: &TimeTravelQuery, scratch: &mut QueryScratch, out: &mut Vec<ObjectId>) {
        scratch.reset();
        self.freqs.plan_into(&q.elems, &mut scratch.plan);
        if scratch.plan.is_empty() {
            return;
        }
        // The plan is borrowed across the division visits while the
        // scratch is mutated, so move it out and restore it after.
        let plan = std::mem::take(&mut scratch.plan);
        let span = q.interval;
        self.tree
            .for_each_relevant(span.st, span.end, |div, _level, _j, _kind, mode| {
                if !div.is_empty() {
                    query_temporal_if(div, &self.bitmaps, &plan, mode, span, scratch, out);
                }
            });
        scratch.plan = plan;
        scratch.take_into(out);
    }

    fn insert(&mut self, o: &Object) {
        let span = [o.interval.st, o.interval.end];
        self.tree.place(span[0], span[1], |div, _kind| {
            for &e in &o.desc {
                div.insert(e, o.id, span);
            }
        });
        for &e in &o.desc {
            self.freqs.bump(e);
        }
        self.bitmaps.add_object(o.id, &o.desc);
    }

    fn delete(&mut self, o: &Object) -> bool {
        let mut any = false;
        self.tree
            .place_existing(o.interval.st, o.interval.end, |div, kind| {
                for &e in &o.desc {
                    if div.tombstone(e, o.id) && !kind.is_replica() {
                        any = true;
                    }
                }
            });
        if any {
            for &e in &o.desc {
                self.freqs.drop_one(e);
            }
            self.bitmaps.remove_object(o.id, &o.desc);
        }
        any
    }

    fn size_bytes(&self) -> usize {
        self.tree.size_bytes(CompactTemporalInverted::size_bytes)
            + self.freqs.size_bytes()
            + self.bitmaps.size_bytes()
    }

    fn insert_batch(&mut self, batch: &[Object]) {
        self.place_batch(batch);
        for o in batch {
            for &e in &o.desc {
                self.freqs.bump(e);
            }
            self.bitmaps.add_object(o.id, &o.desc);
        }
        let elems = batch.iter().flat_map(|o| o.desc.iter().copied());
        promote_dense(&mut self.bitmaps, &self.tree, &self.freqs, elems);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::BruteForce;

    #[test]
    fn running_example_matches_table2_layout() {
        // With m = 3, the running example produces the divisions of
        // Figure 6 / Table 2; the query answer must be o2, o4, o7.
        let coll = Collection::running_example();
        let idx = IrHintPerf::build_with_m(&coll, 3);
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        let mut got = idx.query(&q);
        got.sort_unstable();
        assert_eq!(got, vec![1, 3, 6]);
    }

    #[test]
    fn matches_oracle_on_example_grid() {
        let coll = Collection::running_example();
        let bf = BruteForce::build(coll.objects());
        for m in [0u32, 1, 2, 3, 4] {
            let idx = IrHintPerf::build_with_m(&coll, m);
            for st in 0..16u64 {
                for end in st..16 {
                    for elems in [vec![0], vec![1], vec![2], vec![0, 2], vec![0, 1, 2]] {
                        let q = TimeTravelQuery::new(st, end, elems);
                        let mut got = idx.query(&q);
                        let n = got.len();
                        got.sort_unstable();
                        got.dedup();
                        assert_eq!(n, got.len(), "duplicates m={m} q={q:?}");
                        assert_eq!(got, bf.answer(&q), "m={m} q={q:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn cost_model_build_works() {
        let coll = Collection::running_example();
        let idx = IrHintPerf::build(&coll);
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        let mut got = idx.query(&q);
        got.sort_unstable();
        assert_eq!(got, vec![1, 3, 6]);
    }

    #[test]
    fn updates_match_oracle() {
        let coll = Collection::running_example();
        let mut idx = IrHintPerf::build_with_m(&coll, 3);
        let mut bf = BruteForce::build(coll.objects());
        let o = Object::new(8, 4, 10, vec![0, 2]);
        idx.insert(&o);
        bf.insert(&o);
        assert!(idx.delete(coll.get(1)));
        bf.delete(coll.get(1));
        assert!(!idx.delete(coll.get(1)));
        for (st, end) in [(0u64, 15u64), (5, 9), (10, 12)] {
            for elems in [vec![0], vec![0, 2], vec![2]] {
                let q = TimeTravelQuery::new(st, end, elems);
                let mut got = idx.query(&q);
                got.sort_unstable();
                assert_eq!(got, bf.answer(&q));
            }
        }
    }

    #[test]
    fn replication_multiplies_description_size() {
        // Each assigned division stores |o.d| postings: the size-variant
        // motivation of Section 4.2.
        let coll = Collection::running_example();
        let idx = IrHintPerf::build_with_m(&coll, 3);
        let raw_postings: usize = coll.objects().iter().map(|o| o.desc.len()).sum();
        assert!(idx.num_postings() > raw_postings);
    }
}
