//! **tIF+HINT** (Section 3.1): the temporal inverted file with every
//! postings list organized as a HINT. Two query strategies:
//!
//! * [`IntersectStrategy::BinarySearch`] — Algorithm 3: each per-element
//!   HINT keeps its beneficial sorting; candidate membership is probed
//!   with binary searches while traversing bottom-up with endpoint checks;
//! * [`IntersectStrategy::MergeSort`] — Algorithm 4: divisions are sorted
//!   by object id and intersections run as merges, with no endpoint
//!   checks at all (candidates already qualify temporally).

use crate::collection::Collection;
use crate::method::Method;
use crate::per_term::{PerTerm, TermPartition};
use crate::types::{Interval, Timestamp};
use tir_hint::{DivisionOrder, Hint, HintConfig, IntervalRecord};
use tir_invidx::planner::QueryScratch;

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

/// What the per-term HINTs of one index share: the time domain they all
/// discretize and the configuration they are built with.
#[derive(Debug, Clone, Copy)]
pub struct HintParams {
    domain_min: Timestamp,
    domain_max: Timestamp,
    config: TifHintConfig,
}

impl HintParams {
    pub(crate) fn new(coll: &Collection, config: TifHintConfig) -> Self {
        let d = coll.domain();
        HintParams {
            domain_min: d.st,
            domain_max: d.end,
            config,
        }
    }

    /// The HINT of one term over `records`.
    pub(crate) fn build_hint(&self, records: &[IntervalRecord]) -> Hint {
        let order = match self.config.strategy {
            IntersectStrategy::BinarySearch => DivisionOrder::Beneficial,
            IntersectStrategy::MergeSort => DivisionOrder::ById,
        };
        let cfg = HintConfig {
            m: Some(self.config.m),
            order,
        };
        Hint::build_with_domain(records, self.domain_min, self.domain_max, cfg)
    }
}

/// The seed step of every HINT-backed term: a plain range query on
/// `H[e*]`, which reports each live overlapping id once.
pub(crate) fn seed_from_hint(h: &Hint, q: Interval, scratch: &mut QueryScratch) -> u64 {
    h.range_query_into(q.st, q.end, &mut scratch.cands);
    scratch.cands.len() as u64
}

/// The tIF+HINT index: one postings HINT `H[e]` per element.
pub type TifHint = PerTerm<Hint>;

impl TifHint {
    /// Builds with the given strategy and `m`.
    pub fn build(coll: &Collection, config: TifHintConfig) -> Self {
        Self::build_with(coll, HintParams::new(coll, config))
    }
}

impl TermPartition for Hint {
    type Shared = HintParams;

    fn method(params: &HintParams) -> Method {
        match params.config.strategy {
            IntersectStrategy::BinarySearch => Method::TifHintBs,
            IntersectStrategy::MergeSort => Method::TifHintMs,
        }
    }

    fn build(params: &HintParams, records: &[IntervalRecord]) -> Self {
        params.build_hint(records)
    }

    fn insert(&mut self, _: &HintParams, r: &IntervalRecord) {
        Hint::insert(self, r);
    }

    fn tombstone(&mut self, _: &HintParams, r: &IntervalRecord) -> bool {
        self.delete(r)
    }

    fn seed_into(&self, params: &HintParams, q: Interval, scratch: &mut QueryScratch) -> u64 {
        let scanned = seed_from_hint(self, q, scratch);
        // Algorithm 4's merge-marking needs the seed sorted, once;
        // Algorithm 3's take-once probes need no order.
        if matches!(params.config.strategy, IntersectStrategy::MergeSort) {
            scratch.cands.sort_unstable();
        }
        scanned
    }

    /// Traverses each relevant division of `H[e]`. Algorithm 3 offers the
    /// admitted ids to the planner's take-once round (replacing its binary
    /// searches and the candidate sort they required); Algorithm 4 hands
    /// the id-sorted divisions to its marking round.
    fn restrict(&self, params: &HintParams, q: Interval, scratch: &mut QueryScratch) {
        let (q_st, q_end) = (q.st, q.end);
        match params.config.strategy {
            // Algorithm 3: beneficial sorting + endpoint checks.
            IntersectStrategy::BinarySearch => scratch.intersect_offered(|taker| {
                let mut probed = 0u64;
                self.visit_relevant(q_st, q_end, |view, mode| {
                    probed += view.ids.len() as u64;
                    mode.for_each_admitted(view.ids, view.sts, view.ends, q_st, q_end, |id| {
                        taker.offer_id(id)
                    });
                });
                probed
            }),
            // Algorithm 4: no temporal checks (candidates already overlap
            // the query).
            IntersectStrategy::MergeSort => scratch.intersect_runs(|runs| {
                self.visit_relevant(q_st, q_end, |view, _mode| runs.mark_run(view.ids));
            }),
        }
    }

    fn for_each_id_list(&self, mut f: impl FnMut(&[u32])) {
        self.for_each_division(|view, _dead| f(view.ids));
    }

    fn size_bytes(&self) -> usize {
        Hint::size_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut stored = 0;
        idx.for_each_term(|_, hint| stored += hint.num_entries());
        assert!(stored >= raw_postings);
    }

    #[test]
    fn contract() {
        use IntersectStrategy::{BinarySearch, MergeSort};
        for (strategy, m) in [
            (BinarySearch, 3),
            (BinarySearch, 10),
            (MergeSort, 3),
            (MergeSort, 5),
        ] {
            let cfg = TifHintConfig { strategy, m };
            crate::per_term::contract::holds(&format!("{cfg:?}"), |c| TifHint::build(c, cfg));
        }
    }
}
