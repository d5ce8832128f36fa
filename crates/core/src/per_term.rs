//! The IR-first skeleton: one postings structure per term, one algorithm.
//!
//! Sections 2.2–3.2 of the paper describe tIF, tIF+Slicing, tIF+Sharding,
//! tIF+HINT and tIF+HINT+Slicing as *one* evaluation plan — order `q.d` by
//! ascending frequency, answer the time-travel part on the least frequent
//! term, intersect the survivors with every other term — crossed with how
//! a term's postings are organised in time. [`PerTerm`] is that plan;
//! a [`TermPartition`] is one organisation. cTIF (§7's compression future
//! work) is one more: a compressed base with an uncompressed overlay.
//!
//! Whether an object holds a term does not depend on how the term's list is
//! organised in time, so the skeleton, not the policy, answers the dense
//! non-seed steps: one index-wide membership bitmap per dense term
//! ([`ElemBitmaps`], as irHINT keeps) turns such a step into one bit test
//! per candidate, or one word-AND when the candidates are dense too. Only
//! the sparse terms reach the policy's own `restrict`.

use std::collections::HashMap;
use std::fmt::Debug;

use crate::collection::Collection;
use crate::freq::FreqTable;
use crate::index_trait::TemporalIrIndex;
use crate::irhint::universe_of;
use crate::method::Method;
use crate::types::{ElemId, Interval, Object, ObjectId, TimeTravelQuery};
use tir_hint::IntervalRecord;
use tir_invidx::planner::{Kernel, Postings, QueryScratch};
use tir_invidx::ElemBitmaps;

/// How one term's postings are organised in time — all that varies between
/// the IR-first methods.
pub trait TermPartition: Clone + Debug + Sized {
    /// What every term of one index shares: the time domain, slice count,
    /// HINT parameters.
    type Shared: Clone + Debug;

    /// The registry method an index over this policy is.
    fn method(shared: &Self::Shared) -> Method;

    /// One term's structure over its postings, given in ascending id order
    /// (none for a term first seen by an insert).
    fn build(shared: &Self::Shared, records: &[IntervalRecord]) -> Self;

    /// Adds one posting.
    fn insert(&mut self, shared: &Self::Shared, r: &IntervalRecord);

    /// Logically deletes the posting of `r`; returns true if found alive.
    fn tombstone(&mut self, shared: &Self::Shared, r: &IntervalRecord) -> bool;

    /// The seed step, on the plan's least frequent term: appends to
    /// `scratch.cands` every live id whose interval overlaps `q`, each once
    /// and in the order [`Self::restrict`] expects. Returns the number of
    /// postings scanned.
    fn seed_into(&self, shared: &Self::Shared, q: Interval, scratch: &mut QueryScratch) -> u64;

    /// One conjunction step: keeps the candidates this term also holds.
    /// The candidates are in array form, in the order the seed step and
    /// earlier steps left them, or ascending after a dense step.
    fn restrict(&self, shared: &Self::Shared, q: Interval, scratch: &mut QueryScratch);

    /// Calls `f` with every id list the term stores, tombstones and
    /// replicas included: what a newly promoted dense term's bitmap is
    /// filled from.
    fn for_each_id_list(&self, f: impl FnMut(&[u32]));

    /// Heap footprint of this term in bytes, its own header included.
    fn size_bytes(&self) -> usize;
}

/// An IR-first index: a term map of `P`s, the planner's frequency table,
/// the state all terms share, and the dense terms' bitmaps.
#[derive(Debug, Clone, Default)]
pub struct PerTerm<P: TermPartition> {
    pub(crate) terms: HashMap<ElemId, P>,
    pub(crate) freqs: FreqTable,
    pub(crate) shared: P::Shared,
    /// Accelerator only: every bit is derivable from the terms' live
    /// postings, and answers are the same without it.
    bitmaps: ElemBitmaps,
}

pub(crate) fn record(o: &Object) -> IntervalRecord {
    IntervalRecord {
        id: o.id,
        st: o.interval.st,
        end: o.interval.end,
    }
}

impl<P: TermPartition> PerTerm<P> {
    /// Groups the collection's postings per term, builds each term's
    /// structure under `shared`, and gives each dense term its bitmap from
    /// the same groups.
    pub(crate) fn build_with(coll: &Collection, shared: P::Shared) -> Self {
        let mut per_elem: HashMap<ElemId, Vec<IntervalRecord>> = HashMap::new();
        for o in coll.objects() {
            let rec = record(o);
            for &e in &o.desc {
                per_elem.entry(e).or_default().push(rec);
            }
        }
        let freqs = FreqTable::from_counts(coll.freqs());
        let mut bitmaps = ElemBitmaps::with_universe(universe_of(coll));
        for e in bitmaps.promote_qualifying(per_elem.keys().copied(), |e| freqs.get(e)) {
            let ids: Vec<u32> = per_elem[&e].iter().map(|r| r.id).collect();
            bitmaps.fill_from_postings(e, &ids);
        }
        let build = |(e, recs): (ElemId, Vec<_>)| (e, P::build(&shared, &recs));
        PerTerm {
            terms: per_elem.into_iter().map(build).collect(),
            freqs,
            shared,
            bitmaps,
        }
    }

    /// Document frequency of an element as tracked by the planner.
    pub fn freq(&self, e: ElemId) -> u32 {
        self.freqs.get(e)
    }

    /// The dense-term bitmaps (introspection for validators).
    pub fn bitmaps(&self) -> &ElemBitmaps {
        &self.bitmaps
    }

    /// Drops every dense-term bitmap. Answers do not change: every
    /// non-seed step goes to the policy's own `restrict` until an
    /// `insert_batch` promotes again.
    pub fn drop_bitmaps(&mut self) {
        self.bitmaps.drop_all();
    }

    /// Flips one bit of the first dense-term bitmap (false if there is
    /// none) — the bitmap then disagrees with the postings, which
    /// `tir-check` must report.
    #[cfg(feature = "testing")]
    pub fn testing_corrupt_bitmap(&mut self) -> bool {
        self.bitmaps.testing_flip_bit()
    }

    /// The state every term shares (introspection for validators).
    pub fn shared(&self) -> &P::Shared {
        &self.shared
    }

    /// Calls `f(element, term)` for every term, in unspecified element
    /// order (introspection for validators).
    pub fn for_each_term(&self, mut f: impl FnMut(ElemId, &P)) {
        self.terms.iter().for_each(|(&e, term)| f(e, term));
    }
}

impl<P: TermPartition> TemporalIrIndex for PerTerm<P> {
    fn name(&self) -> &'static str {
        P::method(&self.shared).paper_name()
    }

    fn query_into(&self, q: &TimeTravelQuery, scratch: &mut QueryScratch, out: &mut Vec<ObjectId>) {
        scratch.reset();
        self.freqs.plan_into(&q.elems, &mut scratch.plan);
        // The plan is borrowed across the steps while the scratch is
        // mutated, so move it out and restore it after.
        let plan = std::mem::take(&mut scratch.plan);
        if let Some((first, rest)) = plan.split_first() {
            if let Some(term) = self.terms.get(first) {
                let scanned = term.seed_into(&self.shared, q.interval, scratch);
                scratch.note(Kernel::Merge, scanned);
            }
            scratch.intersect_rest_of_plan(rest, &self.bitmaps, |scratch, e| {
                match self.terms.get(&e) {
                    Some(term) => {
                        // `cands` in array form for the policy.
                        scratch.begin_policy_step();
                        term.restrict(&self.shared, q.interval, scratch);
                    }
                    // A term no object ever contained: nothing survives.
                    None => scratch.intersect(Postings::Ids(&[])),
                }
            });
        }
        scratch.plan = plan;
        scratch.drain_into(out);
    }

    fn insert(&mut self, o: &Object) {
        let rec = record(o);
        for &e in &o.desc {
            let term = self.terms.entry(e);
            let term = term.or_insert_with(|| P::build(&self.shared, &[]));
            term.insert(&self.shared, &rec);
            self.freqs.bump(e);
        }
        self.bitmaps.add_object(o.id, &o.desc);
    }

    fn delete(&mut self, o: &Object) -> bool {
        let (rec, mut any) = (record(o), false);
        for &e in &o.desc {
            if let Some(term) = self.terms.get_mut(&e) {
                if term.tombstone(&self.shared, &rec) {
                    self.freqs.drop_one(e);
                    any = true;
                }
            }
        }
        if any {
            self.bitmaps.remove_object(o.id, &o.desc);
        }
        any
    }

    /// Inserts one by one, then promotes the batch's terms that the density
    /// rule now admits — lazily, as irHINT does: a single insert never
    /// promotes.
    fn insert_batch(&mut self, batch: &[Object]) {
        for o in batch {
            self.insert(o);
        }
        let elems = batch.iter().flat_map(|o| o.desc.iter().copied());
        for e in self
            .bitmaps
            .promote_qualifying(elems, |e| self.freqs.get(e))
        {
            if let Some(term) = self.terms.get(&e) {
                term.for_each_id_list(|ids| self.bitmaps.fill_from_postings(e, ids));
            }
        }
    }

    // Each method keeps the formula it has always reported (the gated
    // `index_bytes` is in these terms; making them true is ROADMAP item 8).
    // Their conventions, in one place: every method adds a guessed 16 bytes
    // per hash entry here, and the hybrid — once two maps — a second 16 in
    // its term; tIF counts lists at capacity plus a header each;
    // tIF+Slicing counts a header per *materialized* sub-list
    // (`subs.len()`), the hybrid per *allocated* slot (`subs.capacity()`);
    // tIF+Sharding counts shard headers at capacity; per-term HINTs leave
    // out spare partition slots; cTIF counts its two base streams with
    // their own headers, and its overlay columns and dead ids at capacity
    // plus a header each. The dense-term bitmaps count at capacity.
    fn size_bytes(&self) -> usize {
        let terms = self.terms.values().map(|t| t.size_bytes() + 16);
        terms.sum::<usize>() + self.freqs.size_bytes() + self.bitmaps.size_bytes()
    }
}

/// The contract every policy and parameter set is held to, instantiated by
/// each policy's own tests.
#[cfg(test)]
pub(crate) mod contract {
    use super::*;
    use crate::oracle::BruteForce;

    fn sorted_once<P: TermPartition>(
        idx: &PerTerm<P>,
        q: &TimeTravelQuery,
        what: &str,
    ) -> Vec<u32> {
        let mut got = idx.query(q);
        let n = got.len();
        got.sort_unstable();
        got.dedup();
        assert_eq!(n, got.len(), "duplicates {what} q={q:?}");
        got
    }

    /// Figure 1's query, then the oracle over every interval of the running
    /// example's domain × seven element sets: as built; after an insert, a
    /// delete and a repeated delete; after a deleted base object's id comes
    /// back with another interval and description; and after a far id
    /// stretches the universe until no term is dense. Each with the
    /// dense-term bitmaps (every term of eight objects is dense) and
    /// without them.
    pub(crate) fn holds<P: TermPartition>(what: &str, build: impl Fn(&Collection) -> PerTerm<P>) {
        let coll = Collection::running_example();
        for bare in [false, true] {
            let mut idx = build(&coll);
            if bare {
                idx.drop_bitmaps();
            }
            holds_on(&format!("{what} bare={bare}"), &coll, idx);
        }
    }

    fn oracle_grid<P: TermPartition>(idx: &PerTerm<P>, bf: &BruteForce, what: &str) {
        let elem_sets = [
            vec![0],
            vec![1],
            vec![2],
            vec![0, 2],
            vec![1, 2],
            vec![0, 1, 2],
            vec![5],
        ];
        for st in 0..16u64 {
            for end in st..16 {
                for elems in &elem_sets {
                    let q = TimeTravelQuery::new(st, end, elems.clone());
                    assert_eq!(sorted_once(idx, &q, what), bf.answer(&q), "{what} q={q:?}");
                }
            }
        }
    }

    fn holds_on<P: TermPartition>(what: &str, coll: &Collection, mut idx: PerTerm<P>) {
        let mut bf = BruteForce::build(coll.objects());
        let fig1 = TimeTravelQuery::new(5, 9, vec![0, 2]);
        assert_eq!(sorted_once(&idx, &fig1, what), vec![1, 3, 6], "{what}");
        oracle_grid(&idx, &bf, &format!("{what} built"));

        let o = Object::new(8, 2, 13, vec![0, 1, 2]);
        idx.insert(&o);
        bf.insert(&o);
        for victim in [3, 6] {
            assert!(idx.delete(coll.get(victim)), "{what}");
            bf.delete(coll.get(victim));
            assert!(!idx.delete(coll.get(victim)), "{what}: idempotent");
        }
        oracle_grid(&idx, &bf, &format!("{what} updated"));

        // o2 = [2, 6] {a, c} dies; its id comes back as [9, 12] {b, c, 5}:
        // dead where it was built, live where it was inserted, both in c.
        assert!(idx.delete(coll.get(1)), "{what}");
        bf.delete(coll.get(1));
        let reborn = Object::new(1, 9, 12, vec![1, 2, 5]);
        idx.insert(&reborn);
        bf.insert(&reborn);
        oracle_grid(&idx, &bf, &format!("{what} re-used id"));

        // Id 1000 grows the universe past every term's density bound.
        let far = Object::new(1000, 4, 9, vec![0, 2]);
        idx.insert(&far);
        bf.insert(&far);
        assert_eq!(idx.bitmaps().iter().count(), 0, "{what}: far id demotes");
        oracle_grid(&idx, &bf, &format!("{what} far id"));
    }
}
