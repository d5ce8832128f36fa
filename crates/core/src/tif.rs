//! The base temporal inverted file **tIF** (Section 2.2, Algorithm 1):
//! one time-aware postings list per element, no temporal indexing.

use crate::collection::Collection;
use crate::method::Method;
use crate::per_term::{PerTerm, TermPartition};
use crate::postings::TemporalList;
use crate::types::{ElemId, Interval};
use tir_hint::IntervalRecord;
use tir_invidx::planner::{Postings, QueryScratch};
use tir_invidx::{ContainerConfig, HybridPostings};

/// The base temporal inverted file: a term holds one [`TemporalList`].
///
/// Query evaluation follows Algorithm 1: scan the postings list of the
/// least frequent query element filtering by the temporal predicate, then
/// intersect the candidate set with each remaining list in ascending
/// frequency order. The non-seed intersections run against a
/// [`HybridPostings`] sidecar — dense elements as bitmaps, sparse ones as
/// sorted arrays — so the conjunction planner can pick bitmap kernels.
pub type Tif = PerTerm<TemporalList>;

impl TermPartition for TemporalList {
    /// The container directory backing non-seed intersections.
    type Shared = HybridPostings;

    /// The container directory already holds every dense term as a bitmap.
    const DENSE_TERM_BITMAPS: bool = false;

    fn method(_: &HybridPostings) -> Method {
        Method::Tif
    }

    fn build(_: &HybridPostings, records: &[IntervalRecord]) -> Self {
        // One push per posting, as incremental inserts grow a list: the
        // reported size counts capacity.
        let mut list = TemporalList::default();
        for r in records {
            list.insert(r.id, [r.st, r.end]);
        }
        list
    }

    fn insert(&mut self, containers: &mut HybridPostings, e: ElemId, r: &IntervalRecord) {
        TemporalList::insert(self, r.id, [r.st, r.end]);
        containers.insert(e, r.id);
    }

    fn tombstone(
        &mut self,
        containers: &mut HybridPostings,
        e: ElemId,
        r: &IntervalRecord,
    ) -> bool {
        let found = TemporalList::tombstone(self, r.id);
        if found {
            containers.tombstone(e, r.id);
        }
        found
    }

    fn seed_into(&self, _: &HybridPostings, q: Interval, scratch: &mut QueryScratch) -> u64 {
        self.seed_overlap_into(q.st, q.end, &mut scratch.cands) as u64
    }

    fn restrict(
        &self,
        containers: &HybridPostings,
        e: ElemId,
        _: Interval,
        scratch: &mut QueryScratch,
    ) {
        match containers.get(e) {
            Some(c) => scratch.intersect(Postings::Container(c)),
            None => scratch.intersect(Postings::Ids(&[])),
        }
    }

    fn for_each_id_list(&self, mut f: impl FnMut(&[u32])) {
        f(&self.ids);
    }

    fn size_bytes(&self) -> usize {
        TemporalList::size_bytes(self) + std::mem::size_of::<TemporalList>()
    }

    fn shared_size_bytes(containers: &HybridPostings) -> usize {
        containers.size_bytes()
    }
}

impl Tif {
    /// Builds the index over a collection.
    pub fn build(coll: &Collection) -> Self {
        let mut tif = Self::build_with(coll, HybridPostings::default());
        let universe = coll
            .objects()
            .iter()
            .map(|o| o.id.saturating_add(1))
            .max()
            .unwrap_or(0);
        tif.shared = HybridPostings::from_lists(
            tif.terms.iter().map(|(&e, l)| (e, l.ids.as_slice())),
            universe,
            ContainerConfig::default(),
        );
        tif
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_trait::TemporalIrIndex;
    use crate::types::TimeTravelQuery;

    #[test]
    fn empty_and_unknown_elements() {
        let coll = Collection::running_example();
        let tif = Tif::build(&coll);
        assert!(tif.query(&TimeTravelQuery::new(0, 15, vec![])).is_empty());
        assert!(tif.query(&TimeTravelQuery::new(0, 15, vec![42])).is_empty());
        assert!(tif
            .query(&TimeTravelQuery::new(0, 15, vec![0, 42]))
            .is_empty());
    }

    #[test]
    fn contract() {
        crate::per_term::contract::holds("tif", Tif::build);
    }
}
