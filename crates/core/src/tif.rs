//! The base temporal inverted file **tIF** (Section 2.2, Algorithm 1):
//! one time-aware postings list per element, no temporal indexing.

use crate::collection::Collection;
use crate::method::Method;
use crate::per_term::{PerTerm, TermPartition};
use crate::postings::TemporalList;
use crate::types::Interval;
use tir_hint::IntervalRecord;
use tir_invidx::planner::{Postings, QueryScratch};

/// The base temporal inverted file: a term holds one [`TemporalList`].
///
/// Query evaluation follows Algorithm 1: scan the postings list of the
/// least frequent query element filtering by the temporal predicate, then
/// intersect the candidate set with each remaining list in ascending
/// frequency order. A sparse term's step hands its id column to the
/// conjunction planner as a sorted array; a dense term's is answered from
/// the skeleton's membership bitmap, as for every IR-first policy.
pub type Tif = PerTerm<TemporalList>;

impl TermPartition for TemporalList {
    type Shared = ();

    fn method(_: &()) -> Method {
        Method::Tif
    }

    fn build(_: &(), records: &[IntervalRecord]) -> Self {
        // One push per posting, as incremental inserts grow a list: the
        // reported size counts capacity.
        let mut list = TemporalList::default();
        for r in records {
            list.insert(r.id, [r.st, r.end]);
        }
        list
    }

    fn insert(&mut self, _: &(), r: &IntervalRecord) {
        TemporalList::insert(self, r.id, [r.st, r.end]);
    }

    fn tombstone(&mut self, _: &(), r: &IntervalRecord) -> bool {
        TemporalList::tombstone(self, r.id)
    }

    fn seed_into(&self, _: &(), q: Interval, scratch: &mut QueryScratch) -> u64 {
        self.seed_overlap_into(q.st, q.end, &mut scratch.cands) as u64
    }

    /// The planner picks merge or gallop; it skips bit-31 tombstones.
    fn restrict(&self, _: &(), _: Interval, scratch: &mut QueryScratch) {
        scratch.intersect(Postings::Ids(&self.ids));
    }

    fn for_each_id_list(&self, mut f: impl FnMut(&[u32])) {
        f(&self.ids);
    }

    fn size_bytes(&self) -> usize {
        TemporalList::size_bytes(self) + std::mem::size_of::<TemporalList>()
    }
}

impl Tif {
    /// Builds the index over a collection.
    pub fn build(coll: &Collection) -> Self {
        Self::build_with(coll, ())
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
