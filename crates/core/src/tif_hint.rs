//! **tIF+HINT** (Section 3.1): the temporal inverted file with every
//! postings list organized as a HINT. Two query strategies:
//!
//! * [`IntersectStrategy::BinarySearch`] — Algorithm 3: each per-element
//!   HINT keeps its beneficial sorting; candidate membership is probed
//!   with binary searches while traversing bottom-up with endpoint checks;
//! * [`IntersectStrategy::MergeSort`] — Algorithm 4: divisions are sorted
//!   by object id and intersections run as merges, with no endpoint
//!   checks at all (candidates already qualify temporally).

use std::collections::HashMap;

use crate::collection::Collection;
use crate::freq::FreqTable;
use crate::index_trait::TemporalIrIndex;
use crate::method::Method;
use crate::types::{Object, ObjectId, TimeTravelQuery, Timestamp};
use tir_hint::{DivisionOrder, Hint, HintConfig, IntervalRecord};
use tir_invidx::planner::{Kernel, QueryScratch};
use tir_invidx::raw;

/// How candidate sets are intersected with the per-element HINTs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntersectStrategy {
    /// Algorithm 3: beneficial sorting + per-object binary search in the
    /// candidate set.
    BinarySearch,
    /// Algorithm 4: id-sorted divisions + merge intersections.
    MergeSort,
}

/// Configuration of [`TifHint`].
#[derive(Debug, Clone, Copy)]
pub struct TifHintConfig {
    /// Intersection strategy.
    pub strategy: IntersectStrategy,
    /// Levels (minus one) of every per-element HINT. Section 5.2 tunes
    /// `m = 10` for the binary-search variant and `m = 5` for merge-sort.
    pub m: u32,
}

impl TifHintConfig {
    /// The paper's tuned binary-search configuration (`m = 10`).
    pub fn binary_search() -> Self {
        TifHintConfig {
            strategy: IntersectStrategy::BinarySearch,
            m: 10,
        }
    }

    /// The paper's tuned merge-sort configuration (`m = 5`).
    pub fn merge_sort() -> Self {
        TifHintConfig {
            strategy: IntersectStrategy::MergeSort,
            m: 5,
        }
    }
}

/// The tIF+HINT index: one postings HINT `H[e]` per element.
#[derive(Debug, Clone)]
pub struct TifHint {
    hints: HashMap<u32, Hint>,
    freqs: FreqTable,
    domain_min: Timestamp,
    domain_max: Timestamp,
    config: TifHintConfig,
}

impl TifHint {
    /// Builds with the given strategy and `m`.
    pub fn build(coll: &Collection, config: TifHintConfig) -> Self {
        // Group interval records per element.
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
        let d = coll.domain();
        let hint_cfg = Self::hint_config(config);
        let hints = per_elem
            .into_iter()
            .map(|(e, recs)| (e, Hint::build_with_domain(&recs, d.st, d.end, hint_cfg)))
            .collect();
        TifHint {
            hints,
            freqs: FreqTable::from_counts(coll.freqs()),
            domain_min: d.st,
            domain_max: d.end,
            config,
        }
    }

    fn hint_config(config: TifHintConfig) -> HintConfig {
        match config.strategy {
            IntersectStrategy::BinarySearch => HintConfig {
                m: Some(config.m),
                order: DivisionOrder::Beneficial,
                storage_opt: true,
            },
            IntersectStrategy::MergeSort => HintConfig {
                m: Some(config.m),
                order: DivisionOrder::ById,
                storage_opt: true,
            },
        }
    }

    /// The configured strategy.
    pub fn strategy(&self) -> IntersectStrategy {
        self.config.strategy
    }

    /// Total stored entries over all postings HINTs (with replication).
    pub fn num_entries(&self) -> usize {
        self.hints.values().map(Hint::num_entries).sum()
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
}

impl TemporalIrIndex for TifHint {
    fn name(&self) -> &'static str {
        match self.config.strategy {
            IntersectStrategy::BinarySearch => Method::TifHintBs,
            IntersectStrategy::MergeSort => Method::TifHintMs,
        }
        .paper_name()
    }

    fn query_into(&self, q: &TimeTravelQuery, scratch: &mut QueryScratch, out: &mut Vec<ObjectId>) {
        scratch.reset();
        self.freqs.plan_into(&q.elems, &mut scratch.plan);
        if scratch.plan.is_empty() {
            return;
        }
        // Candidates: a plain HINT range query on H[e*].
        let first = scratch.plan[0];
        let Some(h0) = self.hints.get(&first) else {
            scratch.take_into(out);
            return;
        };
        let (q_st, q_end) = (q.interval.st, q.interval.end);
        h0.range_query_into(q_st, q_end, &mut scratch.cands);
        scratch.cands.iter_mut().for_each(|id| *id = raw(*id));
        scratch.note(Kernel::Merge, scratch.cands.len() as u64);

        // Remaining elements: traverse each relevant division of H[e].
        // Algorithm 3 probes the candidate set with take-once semantics
        // (replacing its binary searches and the candidate sort they
        // required); Algorithm 4 keeps its merge-marking pass over the
        // id-sorted divisions, which only needs the seed sorted once.
        if matches!(self.config.strategy, IntersectStrategy::MergeSort) {
            scratch.cands.sort_unstable();
        }
        for pi in 1..scratch.plan.len() {
            if scratch.cands.is_empty() {
                break;
            }
            let e = scratch.plan[pi];
            let mut cands = std::mem::take(&mut scratch.cands);
            match self.config.strategy {
                // Algorithm 3: beneficial sorting + endpoint checks.
                IntersectStrategy::BinarySearch => {
                    scratch.load_candidates(&cands, 0);
                    cands.clear();
                    let mut probed = 0u64;
                    if let Some(h) = self.hints.get(&e) {
                        h.visit_relevant(q_st, q_end, |view, mode| {
                            probed += view.ids.len() as u64;
                            mode.for_each_admitted(
                                view.ids,
                                view.sts,
                                view.ends,
                                q_st,
                                q_end,
                                |id| {
                                    if scratch.probe_take(id) {
                                        cands.push(id);
                                    }
                                },
                            );
                        });
                    }
                    scratch.note_probed(probed);
                    scratch.end_probe();
                }
                // Algorithm 4: merge-mark against id-sorted divisions, no
                // temporal checks (candidates already overlap the query).
                IntersectStrategy::MergeSort => {
                    scratch.begin_mark(cands.len());
                    if let Some(h) = self.hints.get(&e) {
                        h.visit_relevant(q_st, q_end, |view, _mode| {
                            scratch.mark(&cands, view.ids);
                        });
                    }
                    scratch.finish_mark(&mut cands);
                }
            }
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
        let cfg = Self::hint_config(self.config);
        for &e in &o.desc {
            self.hints
                .entry(e)
                .or_insert_with(|| {
                    Hint::build_with_domain(&[], self.domain_min, self.domain_max, cfg)
                })
                .insert(&rec);
            self.freqs.bump(e);
        }
    }

    fn delete(&mut self, o: &Object) -> bool {
        let rec = IntervalRecord {
            id: o.id,
            st: o.interval.st,
            end: o.interval.end,
        };
        let mut any = false;
        for &e in &o.desc {
            if let Some(h) = self.hints.get_mut(&e) {
                if h.delete(&rec) {
                    self.freqs.drop_one(e);
                    any = true;
                }
            }
        }
        any
    }

    fn size_bytes(&self) -> usize {
        self.hints
            .values()
            .map(|h| h.size_bytes() + 16)
            .sum::<usize>()
            + self.freqs.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::BruteForce;

    fn configs() -> Vec<TifHintConfig> {
        vec![
            TifHintConfig {
                strategy: IntersectStrategy::BinarySearch,
                m: 3,
            },
            TifHintConfig {
                strategy: IntersectStrategy::BinarySearch,
                m: 10,
            },
            TifHintConfig {
                strategy: IntersectStrategy::MergeSort,
                m: 3,
            },
            TifHintConfig {
                strategy: IntersectStrategy::MergeSort,
                m: 5,
            },
        ]
    }

    #[test]
    fn running_example_both_strategies() {
        let coll = Collection::running_example();
        for cfg in configs() {
            let idx = TifHint::build(&coll, cfg);
            let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
            let mut got = idx.query(&q);
            got.sort_unstable();
            assert_eq!(got, vec![1, 3, 6], "{cfg:?}");
        }
    }

    #[test]
    fn matches_oracle_on_example_grid() {
        let coll = Collection::running_example();
        let bf = BruteForce::build(coll.objects());
        for cfg in configs() {
            let idx = TifHint::build(&coll, cfg);
            for st in 0..16u64 {
                for end in st..16 {
                    for elems in [vec![0], vec![2], vec![0, 2], vec![0, 1, 2], vec![1, 2]] {
                        let q = TimeTravelQuery::new(st, end, elems);
                        let mut got = idx.query(&q);
                        let n = got.len();
                        got.sort_unstable();
                        got.dedup();
                        assert_eq!(n, got.len(), "duplicates {cfg:?} q={q:?}");
                        assert_eq!(got, bf.answer(&q), "{cfg:?} q={q:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn updates_match_oracle() {
        let coll = Collection::running_example();
        for cfg in configs() {
            let mut idx = TifHint::build(&coll, cfg);
            let mut bf = BruteForce::build(coll.objects());
            let o = Object::new(8, 3, 12, vec![0, 2]);
            idx.insert(&o);
            bf.insert(&o);
            assert!(idx.delete(coll.get(6)), "{cfg:?}");
            bf.delete(coll.get(6));
            assert!(!idx.delete(coll.get(6)));
            for (st, end) in [(0u64, 15u64), (5, 9), (12, 15)] {
                let q = TimeTravelQuery::new(st, end, vec![0, 2]);
                let mut got = idx.query(&q);
                got.sort_unstable();
                assert_eq!(got, bf.answer(&q), "{cfg:?}");
            }
        }
    }

    #[test]
    fn replication_visible_in_entry_count() {
        let coll = Collection::running_example();
        let idx = TifHint::build(
            &coll,
            TifHintConfig {
                strategy: IntersectStrategy::MergeSort,
                m: 3,
            },
        );
        let raw_postings: usize = coll.objects().iter().map(|o| o.desc.len()).sum();
        assert!(idx.num_entries() >= raw_postings);
    }
}
