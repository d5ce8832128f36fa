//! **irHINT** (Section 4): one HINT hierarchy over the whole collection
//! whose every division stores an inverted index of its objects. Queries
//! traverse the hierarchy bottom-up and run a conjunction in each relevant
//! division; HINT's duplicate avoidance makes the per-division outputs
//! disjoint. The paper's two variants are one [`IrHint`] over two division
//! stores ([`DivisionStore`]):
//!
//! | Alias | A division stores | Per-division routine |
//! |-------|-------------------|----------------------|
//! | [`IrHintPerf`] (§4.1) | a temporal inverted file ([`CompactTemporalInverted`]) | `QueryTemporalIF`, Alg. 5 |
//! | [`IrHintSize`] (§4.2) | HINT's interval columns beside an id-only inverted file ([`Decoupled`]) | range scan, then `QueryIF`, Alg. 6 |
//!
//! Beside the hierarchy sit the planner's frequency table and one
//! index-wide membership bitmap per dense element ([`ElemBitmaps`]): a
//! non-seed query term that has one is an O(1) probe per candidate instead
//! of a search through every relevant division's list.

use std::fmt::Debug;

use crate::collection::Collection;
use crate::freq::FreqTable;
use crate::index_trait::TemporalIrIndex;
use crate::method::Method;
use crate::types::{ElemId, Interval, Object, ObjectId, TimeTravelQuery};
use tir_hint::{CheckMode, Division, DivisionKind, DivisionOrder, Domain, Hierarchy};
use tir_invidx::compact::Entry;
use tir_invidx::planner::{Kernel, Postings, QueryScratch};
use tir_invidx::{CompactInverted, CompactTemporalInverted, ElemBitmaps};

/// What an irHINT division stores, and how Algorithm 5 or 6 reads it.
pub trait DivisionStore: Clone + Debug + Default {
    /// The registry method an irHINT over this store is.
    const METHOD: Method;

    /// The objects per bottom partition [`IrHint::build`] targets
    /// ([`choose_m_ir`]): large where the per-division probe is pricey.
    const OBJECTS_PER_PARTITION: usize;

    /// True if the division holds no posting, so it answers nothing.
    fn is_empty(&self) -> bool;

    /// Adds every object a bulk placement hands this `kind` division, in
    /// one pass (a build is a batch into empty divisions).
    fn store_batch<'a>(&mut self, kind: DivisionKind, objects: impl Iterator<Item = &'a Object>);

    /// Adds one object.
    fn store_one(&mut self, kind: DivisionKind, o: &Object);

    /// Logically deletes `o`; returns true if it was found alive.
    fn tombstone_object(&mut self, o: &Object) -> bool;

    /// The ids of `e`'s list, tombstones included: what a newly promoted
    /// dense element's bitmap is filled from.
    fn ids_of(&self, e: ElemId) -> &[u32];

    /// Heap bytes of the division's columns.
    fn size_bytes(&self) -> usize;

    /// The per-division routine on a relevant, non-empty `kind` division:
    /// appends to `out` every live object whose interval passes `mode`
    /// against `q` and whose description holds every element of `plan`
    /// (ascending frequency, never empty), using `bitmaps` wherever a
    /// non-seed element has one. Leaves `scratch` empty and in array form.
    fn answer_division(
        &self,
        kind: DivisionKind,
        bitmaps: &ElemBitmaps,
        plan: &[ElemId],
        mode: CheckMode,
        q: Interval,
        scratch: &mut QueryScratch,
        out: &mut Vec<ObjectId>,
    );
}

/// An irHINT index: one hierarchy of `D`s, the planner's frequency table
/// and the dense elements' bitmaps.
#[derive(Debug, Clone)]
pub struct IrHint<D> {
    tree: Hierarchy<D>,
    freqs: FreqTable,
    /// Accelerator only: every bit is derivable from `tree`'s live
    /// original postings, and answers are the same without it.
    bitmaps: ElemBitmaps,
}

/// The performance-focused irHINT (§4.1): a temporal inverted file per
/// division.
pub type IrHintPerf = IrHint<CompactTemporalInverted>;

/// The size-focused irHINT (§4.2): interval columns beside an id-only
/// inverted file per division.
pub type IrHintSize = IrHint<Decoupled>;

/// IR-aware choice of the number of HINT levels for composite indexes:
/// targets `per_part` objects per bottom-level partition, clamped to
/// `[2, 20]`.
///
/// The interval-only HINT cost model over-partitions composite indexes: it
/// prices a relevant partition at one entry touch, but an irHINT division
/// costs `|q.d|` directory probes while its first-element postings are
/// already `freq(e*)/n` shorter than the division.
pub fn choose_m_ir(n: usize, per_part: usize) -> u32 {
    let parts = (n as f64 / per_part.max(1) as f64).max(1.0);
    // analyze:allow(unguarded-cast): log2 of a value >= 1.0 is finite and non-negative, far below u32::MAX
    (parts.log2().ceil() as u32).clamp(2, 20)
}

/// The id universe of a collection: its largest object id plus one.
pub(crate) fn universe_of(coll: &Collection) -> u32 {
    coll.objects().last().map_or(0, |o| o.id + 1)
}

impl<D: DivisionStore> IrHint<D> {
    /// Builds with `m` chosen by [`choose_m_ir`] for the store's
    /// [`DivisionStore::OBJECTS_PER_PARTITION`].
    pub fn build(coll: &Collection) -> Self {
        Self::build_with_m(coll, choose_m_ir(coll.len(), D::OBJECTS_PER_PARTITION))
    }

    /// Builds with an explicit number of levels.
    pub fn build_with_m(coll: &Collection, m: u32) -> Self {
        let d = coll.domain();
        let mut index = IrHint {
            tree: Hierarchy::new(Domain::new(d.st, d.end, m)),
            freqs: FreqTable::from_counts(coll.freqs()),
            bitmaps: ElemBitmaps::with_universe(universe_of(coll)),
        };
        index.place_batch(coll.objects());
        index.promote_dense((0..).take(coll.dict_size()));
        index
    }

    /// Groups the batch per division, then adds to each touched division
    /// once.
    fn place_batch(&mut self, batch: &[Object]) {
        let spans = batch.iter().map(|o| (o.interval.st, o.interval.end));
        self.tree.place_batch(spans, |div, kind, items| {
            div.store_batch(kind, items.iter().map(|&i| &batch[i as usize]));
        });
    }

    /// Gives a bitmap to each of `elems` that the density rule now admits
    /// and that has none ([`ElemBitmaps::promote_qualifying`]), filled from
    /// the live postings of the original divisions (an object is an
    /// original in exactly one division). One pass over the hierarchy
    /// however many elements are promoted, none if none is.
    fn promote_dense(&mut self, elems: impl IntoIterator<Item = ElemId>) {
        let freqs = &self.freqs;
        let fresh = self.bitmaps.promote_qualifying(elems, |e| freqs.get(e));
        if fresh.is_empty() {
            return;
        }
        let bitmaps = &mut self.bitmaps;
        self.tree.for_each_division(|div, _level, _j, kind| {
            if !kind.is_replica() && !div.is_empty() {
                for &e in &fresh {
                    bitmaps.fill_from_postings(e, div.ids_of(e));
                }
            }
        });
    }

    /// The number of levels minus one.
    pub fn m(&self) -> u32 {
        self.tree.domain().m()
    }

    /// The discretized domain of the hierarchy.
    pub fn domain(&self) -> Domain {
        self.tree.domain()
    }

    /// Document frequency of an element as tracked by the planner.
    pub fn freq(&self, e: ElemId) -> u32 {
        self.freqs.get(e)
    }

    /// Calls `f(level, j, kind, division)` for every materialized
    /// division, in `(level, j, kind)` order (introspection for
    /// validators).
    pub fn for_each_division(&self, mut f: impl FnMut(u32, u32, DivisionKind, &D)) {
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

    /// Applies `corrupt` to the first division that holds a posting — used
    /// by `tir-check`'s property tests to prove the validator notices.
    #[cfg(feature = "testing")]
    pub fn testing_corrupt_division(&mut self, corrupt: impl FnOnce(&mut D)) {
        if let Some((div, _)) = self.tree.divisions_mut().find(|(d, _)| !d.is_empty()) {
            corrupt(div);
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

impl<D: DivisionStore> TemporalIrIndex for IrHint<D> {
    fn name(&self) -> &'static str {
        D::METHOD.paper_name()
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
            .for_each_relevant(span.st, span.end, |div, _level, _j, kind, mode| {
                if !div.is_empty() {
                    div.answer_division(kind, &self.bitmaps, &plan, mode, span, scratch, out);
                }
            });
        scratch.plan = plan;
        scratch.drain_into(out);
    }

    fn insert(&mut self, o: &Object) {
        self.tree.place(o.interval.st, o.interval.end, |div, kind| {
            div.store_one(kind, o)
        });
        for &e in &o.desc {
            self.freqs.bump(e);
        }
        self.bitmaps.add_object(o.id, &o.desc);
    }

    /// Tombstones `o` in every division that stores it; it was found if
    /// its original division (exactly one) held it alive.
    fn delete(&mut self, o: &Object) -> bool {
        let mut found = false;
        self.tree
            .place_existing(o.interval.st, o.interval.end, |div, kind| {
                let hit = div.tombstone_object(o);
                if !kind.is_replica() {
                    found = hit;
                }
            });
        if found {
            for &e in &o.desc {
                self.freqs.drop_one(e);
            }
            self.bitmaps.remove_object(o.id, &o.desc);
        }
        found
    }

    /// The hierarchy with its partition slots at capacity, plus the
    /// frequency table and the bitmaps.
    fn size_bytes(&self) -> usize {
        self.tree.size_bytes(D::size_bytes) + self.freqs.size_bytes() + self.bitmaps.size_bytes()
    }

    fn insert_batch(&mut self, batch: &[Object]) {
        self.place_batch(batch);
        for o in batch {
            for &e in &o.desc {
                self.freqs.bump(e);
            }
            self.bitmaps.add_object(o.id, &o.desc);
        }
        self.promote_dense(batch.iter().flat_map(|o| o.desc.iter().copied()));
    }
}

/// irHINT-perf's division: postings carry their object's `[start, end]`,
/// so one list answers both halves of the query.
impl DivisionStore for CompactTemporalInverted {
    const METHOD: Method = Method::IrHintPerf;
    const OBJECTS_PER_PARTITION: usize = 2048;

    fn is_empty(&self) -> bool {
        CompactTemporalInverted::is_empty(self)
    }

    /// One merge-rebuild of the division's tIF.
    fn store_batch<'a>(&mut self, _kind: DivisionKind, objects: impl Iterator<Item = &'a Object>) {
        let mut buf: Vec<Entry<2>> = Vec::new();
        for o in objects {
            let span = [o.interval.st, o.interval.end];
            buf.extend(o.desc.iter().map(|&e| (e, o.id, span)));
        }
        self.merge_in(&mut buf);
    }

    fn store_one(&mut self, _kind: DivisionKind, o: &Object) {
        for &e in &o.desc {
            self.insert(e, o.id, [o.interval.st, o.interval.end]);
        }
    }

    fn tombstone_object(&mut self, o: &Object) -> bool {
        let mut any = false;
        for &e in &o.desc {
            any |= self.tombstone(e, o.id);
        }
        any
    }

    fn ids_of(&self, e: ElemId) -> &[u32] {
        self.postings(e).ids
    }

    fn size_bytes(&self) -> usize {
        CompactTemporalInverted::size_bytes(self)
    }

    fn answer_division(
        &self,
        _kind: DivisionKind,
        bitmaps: &ElemBitmaps,
        plan: &[ElemId],
        mode: CheckMode,
        q: Interval,
        scratch: &mut QueryScratch,
        out: &mut Vec<ObjectId>,
    ) {
        query_temporal_if(self, bitmaps, plan, mode, q, scratch, out);
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
    scratch.intersect_rest_of_plan(rest, bitmaps, |scratch, e| {
        scratch.intersect(Postings::Ids(div.postings(e).ids));
    });
    // Dense candidates against a bitmap leave the planner in bitmap form;
    // the next division must find it empty and in array form again.
    scratch.drain_into(out);
}

/// irHINT-size's division: the temporal information is stored once per
/// entry, in HINT's interval columns (beneficially sorted, endpoints kept
/// per the storage optimization), beside an inverted file of object ids
/// only.
#[derive(Debug, Clone, Default)]
pub struct Decoupled {
    /// The division's entries as HINT stores them.
    pub intervals: Division,
    /// Element → ids of the division's objects holding it.
    pub ids: CompactInverted,
}

impl DivisionStore for Decoupled {
    const METHOD: Method = Method::IrHintSize;
    const OBJECTS_PER_PARTITION: usize = 128;

    fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// One merge-rebuild of the id lists. The interval columns of an empty
    /// division (every division of a build) are appended to and sorted
    /// once; a division that already holds entries takes each in place, as
    /// a single insert does — re-sorting it whole for the one or two
    /// entries a batch usually brings made irHINT-size's `insert_batch`
    /// 8–19 % slower.
    fn store_batch<'a>(&mut self, kind: DivisionKind, objects: impl Iterator<Item = &'a Object>) {
        let (order, fresh) = (DivisionOrder::Beneficial, self.intervals.is_empty());
        let mut buf: Vec<Entry<0>> = Vec::new();
        for o in objects {
            let (id, st, end) = (o.id, o.interval.st, o.interval.end);
            if fresh {
                self.intervals.push(id, st, end, kind);
            } else {
                self.intervals.insert(id, st, end, order, kind);
            }
            buf.extend(o.desc.iter().map(|&e| (e, id, [])));
        }
        if fresh {
            self.intervals.sort(order, kind);
        }
        self.ids.merge_in(&mut buf);
    }

    fn store_one(&mut self, kind: DivisionKind, o: &Object) {
        let (st, end) = (o.interval.st, o.interval.end);
        self.intervals
            .insert(o.id, st, end, DivisionOrder::Beneficial, kind);
        for &e in &o.desc {
            self.ids.insert(e, o.id, []);
        }
    }

    /// Found if the interval columns held `o` alive.
    fn tombstone_object(&mut self, o: &Object) -> bool {
        for &e in &o.desc {
            self.ids.tombstone(e, o.id);
        }
        self.intervals.tombstone(o.id)
    }

    fn ids_of(&self, e: ElemId) -> &[u32] {
        self.ids.postings(e).ids
    }

    fn size_bytes(&self) -> usize {
        self.intervals.size_bytes() + self.ids.size_bytes()
    }

    /// Algorithm 6: the range query on the interval columns (the sorted
    /// prefix cut where `mode` compares the sort key), then `QueryIF` over
    /// the id lists. Elements with an index-wide bitmap go first: a probe
    /// needs no order, so only its survivors are sorted for the lists.
    fn answer_division(
        &self,
        kind: DivisionKind,
        bitmaps: &ElemBitmaps,
        plan: &[ElemId],
        mode: CheckMode,
        q: Interval,
        scratch: &mut QueryScratch,
        out: &mut Vec<ObjectId>,
    ) {
        scratch.cands.clear();
        let (order, cands) = (DivisionOrder::Beneficial, &mut scratch.cands);
        self.intervals
            .query_into(mode, kind, order, q.st, q.end, cands);
        scratch.note(Kernel::Merge, self.intervals.len() as u64);
        for &e in plan {
            if scratch.is_empty() {
                break;
            }
            if let Some(words) = bitmaps.bitmap(e) {
                scratch.intersect(Postings::Bits(words));
            }
        }
        scratch.sort_candidates();
        for &e in plan {
            if scratch.is_empty() {
                break;
            }
            if bitmaps.bitmap(e).is_none() {
                scratch.intersect(Postings::Ids(self.ids.postings(e).ids));
            }
        }
        scratch.drain_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::BruteForce;
    use crate::prelude::{TifHint, TifHintConfig, TifHintSlicing, TifSharding, TifSlicing};

    fn sorted_once<D: DivisionStore>(idx: &IrHint<D>, q: &TimeTravelQuery, what: &str) -> Vec<u32> {
        let mut got = idx.query(q);
        let n = got.len();
        got.sort_unstable();
        got.dedup();
        assert_eq!(n, got.len(), "duplicates {what} q={q:?}");
        got
    }

    fn matches_oracle<D: DivisionStore>(idx: &IrHint<D>, bf: &BruteForce, what: &str) {
        for st in 0..16u64 {
            for end in st..16 {
                for elems in [
                    vec![0],
                    vec![1],
                    vec![2],
                    vec![0, 2],
                    vec![0, 1, 2],
                    vec![5],
                ] {
                    let q = TimeTravelQuery::new(st, end, elems);
                    assert_eq!(sorted_once(idx, &q, what), bf.answer(&q), "{what} q={q:?}");
                }
            }
        }
    }

    /// The contract both stores are held to, for m in 0..=4, with the
    /// dense-element bitmaps (every element of eight objects is dense) and
    /// without them: Figure 1's query, the oracle over every interval of
    /// the running example's domain, then again after an insert, a delete
    /// and a repeated delete, a deleted id re-inserted with another
    /// interval and description (so other divisions of the one hierarchy
    /// hold it), and an id far past the bitmaps' universe.
    fn contract<D: DivisionStore>() {
        let coll = Collection::running_example();
        let fig1 = TimeTravelQuery::new(5, 9, vec![0, 2]);
        let built = IrHint::<D>::build(&coll);
        assert_eq!(sorted_once(&built, &fig1, "build"), vec![1, 3, 6]);
        for m in 0..=4u32 {
            for bare in [false, true] {
                let what = format!("{} m={m} bare={bare}", D::METHOD);
                let mut idx = IrHint::<D>::build_with_m(&coll, m);
                if bare {
                    idx.drop_bitmaps();
                }
                let mut bf = BruteForce::build(coll.objects());
                assert_eq!(sorted_once(&idx, &fig1, &what), vec![1, 3, 6], "{what}");
                matches_oracle(&idx, &bf, &what);
                let o = Object::new(8, 4, 10, vec![0, 2]);
                idx.insert(&o);
                bf.insert(&o);
                for victim in [1, 5] {
                    assert!(idx.delete(coll.get(victim)), "{what}");
                    bf.delete(coll.get(victim));
                    assert!(!idx.delete(coll.get(victim)), "{what}: idempotent");
                }
                matches_oracle(&idx, &bf, &what);
                // o2 lived in [2, 6] holding {a, c}; it comes back late,
                // holding {b, c}.
                let reborn = Object::new(1, 12, 15, vec![1, 2]);
                let far = Object::new(5000, 3, 8, vec![0, 1, 2]);
                for o in [&reborn, &far] {
                    idx.insert(o);
                    bf.insert(o);
                    matches_oracle(&idx, &bf, &what);
                }
                assert!(idx.delete(&reborn), "{what}");
                bf.delete(&reborn);
                matches_oracle(&idx, &bf, &what);
            }
        }
    }

    #[test]
    fn perf_store_holds_the_contract() {
        contract::<CompactTemporalInverted>();
    }

    #[test]
    fn size_store_holds_the_contract() {
        contract::<Decoupled>();
    }

    #[test]
    fn replication_multiplies_description_size() {
        // Each assigned division stores |o.d| postings: the size-variant
        // motivation of Section 4.2.
        let coll = Collection::running_example();
        let idx = IrHintPerf::build_with_m(&coll, 3);
        let raw_postings: usize = coll.objects().iter().map(|o| o.desc.len()).sum();
        let mut stored = 0;
        idx.for_each_division(|_, _, _, div| stored += div.num_postings());
        assert!(stored > raw_postings);
    }

    #[test]
    fn size_variant_is_smaller_than_perf_variant() {
        // The whole point of Section 4.2: temporal data stored once per
        // division entry instead of once per (entry, element). Sixteen
        // copies of the running example, so postings and not the fixed cost
        // of a materialized partition decide the comparison.
        let example = Collection::running_example();
        let copies = (0..16).flat_map(|c| {
            let objects = example.objects().iter();
            objects.map(move |o| {
                Object::new(o.id + 8 * c, o.interval.st, o.interval.end, o.desc.clone())
            })
        });
        let coll = Collection::new(copies.collect());
        let size = IrHintSize::build_with_m(&coll, 3);
        let perf = IrHintPerf::build_with_m(&coll, 3);
        assert!(
            size.size_bytes() < perf.size_bytes(),
            "size variant {} vs perf {}",
            size.size_bytes(),
            perf.size_bytes()
        );
    }

    /// The life of a dense-element bitmap, the same in both variants and
    /// in every IR-first policy that keeps them.
    fn bitmap_lifecycle<I: TemporalIrIndex>(
        build: impl Fn(&Collection, u32) -> I,
        bitmaps: fn(&I) -> &ElemBitmaps,
    ) {
        let ids_of = |idx: &I, e: u32| -> Option<Vec<u32>> {
            let words = bitmaps(idx).bitmap(e)?;
            let ids = 0..words.len() as u32 * 64;
            Some(
                ids.filter(|id| words[*id as usize / 64] >> (id % 64) & 1 == 1)
                    .collect(),
            )
        };
        let with =
            |id: u32, desc: Vec<u32>| Object::new(id, u64::from(id), u64::from(id) + 9, desc);
        // Element 0 is in every object, 1 in none, 2..7 in a fifth each.
        let coll = Collection::new((0..64).map(|i| with(i, vec![0, 2 + i % 5])).collect());
        let mut idx = build(&coll, 3);
        assert_eq!(ids_of(&idx, 0), Some((0..64).collect()));
        assert_eq!(ids_of(&idx, 1), None);
        // Built at build; a single insert sets bits but never promotes...
        for id in 64..80 {
            idx.insert(&with(id, vec![0, 1]));
        }
        assert_eq!(ids_of(&idx, 0), Some((0..80).collect()));
        assert_eq!(
            ids_of(&idx, 1),
            None,
            "16 of 80 is dense, but promotion is lazy"
        );
        // ...a batch does, from the live postings (64 is deleted first)...
        assert!(idx.delete(&with(64, vec![0, 1])));
        idx.insert_batch(&[with(80, vec![1])]);
        assert_eq!(ids_of(&idx, 1), Some((65..=80).collect()));
        // ...and deletes clear bits, then demote once the element is twice
        // too sparse: 6 of 81 ids is not (96 >= 81), 5 is.
        for id in 65..75 {
            assert!(idx.delete(&with(id, vec![0, 1])));
        }
        assert_eq!(ids_of(&idx, 1), Some((75..=80).collect()));
        assert!(idx.delete(&with(75, vec![0, 1])));
        assert_eq!(ids_of(&idx, 1), None);
        let q = TimeTravelQuery::new(0, 200, vec![0, 1]);
        let mut got = idx.query(&q);
        got.sort_unstable();
        assert_eq!(got, (76..80).collect::<Vec<_>>());
    }

    #[test]
    fn bitmaps_are_promoted_lazily_and_demoted_with_hysteresis() {
        bitmap_lifecycle(IrHintSize::build_with_m, IrHintSize::bitmaps);
        bitmap_lifecycle(IrHintPerf::build_with_m, IrHintPerf::bitmaps);
        bitmap_lifecycle(|c, _| TifSlicing::build(c), TifSlicing::bitmaps);
        bitmap_lifecycle(|c, _| TifSharding::build(c), TifSharding::bitmaps);
        for cfg in [TifHintConfig::binary_search(), TifHintConfig::merge_sort()] {
            let build = |c: &Collection, m| TifHint::build(c, TifHintConfig { m, ..cfg });
            bitmap_lifecycle(build, TifHint::bitmaps);
        }
        let hybrid = |c: &Collection, m| TifHintSlicing::build_with_params(c, m, 4);
        bitmap_lifecycle(hybrid, TifHintSlicing::bitmaps);
    }
}
