//! **irHINT, size variant** (Section 4.2): a single HINT hierarchy where
//! every division keeps two decoupled structures — the plain interval
//! store of HINT (with all its optimizations, beneficial sorting included)
//! and a traditional inverted index holding only object ids. The temporal
//! information is stored once per division entry, shrinking the index at
//! the cost of probing two structures per division (Algorithm 6). As in the
//! performance variant, dense elements also get one index-wide membership
//! bitmap ([`ElemBitmaps`]) that a division's candidates are probed against
//! before they are sorted for the sparse elements' lists.

use crate::collection::Collection;
use crate::freq::FreqTable;
use crate::index_trait::TemporalIrIndex;
use crate::irhint_perf::{promote_dense, universe_of};
use crate::method::Method;
use crate::per_term::record;
use crate::types::{Object, ObjectId, TimeTravelQuery};
use tir_hint::{DivisionKind, Hierarchy, Hint, HintConfig, IntervalRecord};
use tir_invidx::planner::{Kernel, Postings, QueryScratch};
use tir_invidx::{CompactInverted, ElemBitmaps};

/// The size-focused irHINT index.
#[derive(Debug, Clone)]
pub struct IrHintSize {
    /// Interval store: a full-featured HINT over all objects.
    hint: Hint,
    /// Per-division inverted indexes (element → object ids): the same
    /// hierarchy over the same domain, so a division of one is the division
    /// of the other.
    inv: Hierarchy<CompactInverted>,
    freqs: FreqTable,
    /// Accelerator only: every bit is derivable from `inv`'s live original
    /// postings, and answers are the same without it.
    bitmaps: ElemBitmaps,
}

/// IR-aware choice of the number of HINT levels for composite indexes:
/// targets `per_part` objects per bottom-level partition, clamped to
/// `[2, 20]`. See [`crate::irhint_perf::IrHintPerf::build`] for why the
/// interval-only cost model over-partitions here.
pub fn choose_m_ir(n: usize, per_part: usize) -> u32 {
    let parts = (n as f64 / per_part.max(1) as f64).max(1.0);
    // analyze:allow(unguarded-cast): log2 of a value >= 1.0 is finite and non-negative, far below u32::MAX
    (parts.log2().ceil() as u32).clamp(2, 20)
}

impl IrHintSize {
    /// Builds with `m` chosen by the IR-aware cost heuristic
    /// [`choose_m_ir`] (smaller per-partition target than the performance
    /// variant: its per-division probes are cheaper, so finer partitions
    /// pay off).
    pub fn build(coll: &Collection) -> Self {
        Self::build_with_m(coll, choose_m_ir(coll.len(), 128))
    }

    /// Builds with an explicit number of levels.
    pub fn build_with_m(coll: &Collection, m: u32) -> Self {
        let records: Vec<IntervalRecord> = coll.objects().iter().map(record).collect();
        let d = coll.domain();
        let hint = Hint::build_with_domain(&records, d.st, d.end, HintConfig::with_m(m));
        let mut index = IrHintSize {
            inv: Hierarchy::new(hint.domain()),
            hint,
            freqs: FreqTable::from_counts(coll.freqs()),
            bitmaps: ElemBitmaps::with_universe(universe_of(coll)),
        };
        index.place_batch(coll.objects());
        let dict = (0..).take(coll.dict_size());
        promote_dense(&mut index.bitmaps, &index.inv, &index.freqs, dict);
        index
    }

    /// Inverted side of a batch: one merge-rebuild per touched division (a
    /// build is a merge into empty divisions).
    fn place_batch(&mut self, batch: &[Object]) {
        let mut buf: Vec<(u32, u32, [u64; 0])> = Vec::new();
        let spans = batch.iter().map(|o| (o.interval.st, o.interval.end));
        self.inv.place_batch(spans, |inv, _kind, items| {
            buf.clear();
            for o in items.iter().map(|&i| &batch[i as usize]) {
                buf.extend(o.desc.iter().map(|&e| (e, o.id, [])));
            }
            inv.merge_in(&mut buf);
        });
    }

    /// The number of levels minus one.
    pub fn m(&self) -> u32 {
        self.hint.domain().m()
    }

    /// Total inverted postings (ids only) plus interval entries.
    pub fn num_postings(&self) -> usize {
        let mut n = self.hint.num_entries();
        self.inv
            .for_each_division(|inv, _, _, _| n += inv.num_postings());
        n
    }

    /// Document frequency of an element as tracked by the planner.
    pub fn freq(&self, e: u32) -> u32 {
        self.freqs.get(e)
    }

    /// The interval store (introspection for validators).
    pub fn hint(&self) -> &Hint {
        &self.hint
    }

    /// Calls `f(level, j, kind, inverted index)` for every materialized
    /// division inverted index, in `(level, j, kind)` order (introspection
    /// for validators).
    pub fn for_each_division_index(
        &self,
        mut f: impl FnMut(u32, u32, DivisionKind, &CompactInverted),
    ) {
        self.inv
            .for_each_division(|inv, level, j, kind| f(level, j, kind, inv));
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

    /// Deliberately breaks the offset invariant of the first non-empty
    /// division index — used by `tir-check`'s property tests to prove the
    /// validator notices.
    #[cfg(feature = "testing")]
    pub fn testing_corrupt(&mut self) {
        if let Some((inv, _)) = self.inv.divisions_mut().find(|(d, _)| !d.is_empty()) {
            inv.testing_corrupt_offsets();
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

impl TemporalIrIndex for IrHintSize {
    fn name(&self) -> &'static str {
        Method::IrHintSize.paper_name()
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
        let (q_st, q_end) = (q.interval.st, q.interval.end);
        self.hint.visit_relevant(q_st, q_end, |view, mode| {
            // A division with no inverted index holds no posting, so it
            // contributes nothing — and costs a lookup, not a scan.
            let Some(inv) = self.inv.division(view.level, view.j, view.kind) else {
                return;
            };
            // Step 1 (range query on the interval store): collect the
            // division's temporally qualifying object ids.
            scratch.cands.clear();
            mode.admit_into(
                view.ids,
                view.sts,
                view.ends,
                q_st,
                q_end,
                &mut scratch.cands,
            );
            scratch.note(Kernel::Merge, view.ids.len() as u64);
            // Step 2, `QueryIF` (Algorithm 6): intersect with the postings
            // of every query element. Elements with an index-wide bitmap go
            // first: a probe needs no order, so only its survivors are
            // sorted for the lists of the division's inverted index.
            for &e in &plan {
                if scratch.is_empty() {
                    break;
                }
                if let Some(words) = self.bitmaps.bitmap(e) {
                    scratch.intersect(Postings::Bits(words));
                }
            }
            scratch.sort_candidates();
            for &e in &plan {
                if scratch.is_empty() {
                    break;
                }
                if self.bitmaps.bitmap(e).is_none() {
                    scratch.intersect(Postings::Ids(inv.postings(e).ids));
                }
            }
            scratch.drain_into(out);
        });
        scratch.plan = plan;
        scratch.take_into(out);
    }

    fn insert(&mut self, o: &Object) {
        self.hint.insert(&record(o));
        self.inv.place(o.interval.st, o.interval.end, |inv, _kind| {
            for &e in &o.desc {
                inv.insert(e, o.id, []);
            }
        });
        for &e in &o.desc {
            self.freqs.bump(e);
        }
        self.bitmaps.add_object(o.id, &o.desc);
    }

    fn delete(&mut self, o: &Object) -> bool {
        let found = self.hint.delete(&record(o));
        self.inv
            .place_existing(o.interval.st, o.interval.end, |inv, _kind| {
                for &e in &o.desc {
                    inv.tombstone(e, o.id);
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

    fn size_bytes(&self) -> usize {
        self.hint.size_bytes()
            + self.inv.size_bytes(CompactInverted::size_bytes)
            + self.freqs.size_bytes()
            + self.bitmaps.size_bytes()
    }

    fn insert_batch(&mut self, batch: &[Object]) {
        // Interval store: per-record inserts (one entry per division);
        // inverted part: one merge-rebuild per touched division.
        for o in batch {
            self.hint.insert(&record(o));
            for &e in &o.desc {
                self.freqs.bump(e);
            }
            self.bitmaps.add_object(o.id, &o.desc);
        }
        self.place_batch(batch);
        let elems = batch.iter().flat_map(|o| o.desc.iter().copied());
        promote_dense(&mut self.bitmaps, &self.inv, &self.freqs, elems);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irhint_perf::IrHintPerf;
    use crate::oracle::BruteForce;
    use crate::prelude::{TifHint, TifHintConfig, TifHintSlicing, TifSharding, TifSlicing};

    #[test]
    fn running_example() {
        let coll = Collection::running_example();
        let idx = IrHintSize::build_with_m(&coll, 3);
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
            let idx = IrHintSize::build_with_m(&coll, m);
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
    fn size_variant_is_smaller_than_perf_variant() {
        // The whole point of Section 4.2: temporal data stored once per
        // division entry instead of once per (entry, element). Sixteen
        // copies of the running example, so postings and not the fixed cost
        // of a materialized partition (four division slots in each of the
        // two hierarchies) decide the comparison.
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

    #[test]
    fn updates_match_oracle() {
        let coll = Collection::running_example();
        let mut idx = IrHintSize::build_with_m(&coll, 3);
        let mut bf = BruteForce::build(coll.objects());
        let o = Object::new(8, 0, 3, vec![0, 1]);
        idx.insert(&o);
        bf.insert(&o);
        assert!(idx.delete(coll.get(5)));
        bf.delete(coll.get(5));
        assert!(!idx.delete(coll.get(5)));
        for (st, end) in [(0u64, 15u64), (5, 9), (0, 2)] {
            for elems in [vec![0], vec![0, 1], vec![2]] {
                let q = TimeTravelQuery::new(st, end, elems);
                let mut got = idx.query(&q);
                got.sort_unstable();
                assert_eq!(got, bf.answer(&q));
            }
        }
    }
}
