//! **tIF+HINT+Slicing** (Section 3.2): a dual-copy IR-first hybrid. Each
//! postings list is stored twice — once as an id-sorted HINT used to
//! answer the time-travel part on the least frequent element, and once as
//! time-sliced sub-lists of `⟨o.id, o.tst⟩` pairs used for the follow-up
//! intersections, which touch far fewer partitions than HINT divisions.

use crate::collection::Collection;
use crate::method::Method;
use crate::per_term::{PerTerm, TermPartition};
use crate::postings::ColumnList;
use crate::slicing::{SliceGrid, SlicedList, DEFAULT_SLICES};
use crate::tif_hint::{seed_from_hint, HintParams, TifHintConfig};
use crate::types::Interval;
use tir_hint::{Hint, IntervalRecord};
use tir_invidx::planner::QueryScratch;

/// Default HINT levels for the hybrid; Section 5.2 tunes `m = 5`.
pub const DEFAULT_M: u32 = 5;

/// One term of the hybrid: its postings twice.
#[derive(Debug, Clone)]
pub struct DualCopy {
    /// The id-sorted HINT that answers the time-travel part.
    pub hint: Hint,
    /// Slice sub-lists of `⟨id, tst⟩` pairs sorted by id. The interval
    /// end is omitted (Section 3.2): after the HINT pass, intersections no
    /// longer check the temporal predicate, and the start alone supports
    /// the reference-value de-duplication the paper falls back to.
    pub slices: SlicedList<1>,
}

/// The tIF+HINT+Slicing hybrid index. Its terms share the parameters of
/// the HINT copies (merge-sort strategy) and the slice grid of the others.
pub type TifHintSlicing = PerTerm<DualCopy>;

impl TifHintSlicing {
    /// Builds with the paper-tuned defaults (`m = 5`, 50 slices).
    pub fn build(coll: &Collection) -> Self {
        Self::build_with_params(coll, DEFAULT_M, DEFAULT_SLICES)
    }

    /// Builds with explicit HINT levels and slice count.
    pub fn build_with_params(coll: &Collection, m: u32, k: u32) -> Self {
        let config = TifHintConfig {
            m,
            ..TifHintConfig::merge_sort()
        };
        let shared = (HintParams::new(coll, config), SliceGrid::new(coll, k));
        Self::build_with(coll, shared)
    }
}

/// The composition Section 3.2 describes: tIF+HINT(ms)'s seed step on the
/// HINT copy, tIF+Slicing's merge-marking on the sliced copy.
impl TermPartition for DualCopy {
    type Shared = (HintParams, SliceGrid);

    fn method(_: &Self::Shared) -> Method {
        Method::Hybrid
    }

    fn build((hints, grid): &Self::Shared, records: &[IntervalRecord]) -> Self {
        let mut slices = SlicedList::default();
        for r in records {
            slices.place(grid, r, [r.st]);
        }
        DualCopy {
            hint: hints.build_hint(records),
            slices,
        }
    }

    fn insert(&mut self, (_, grid): &Self::Shared, r: &IntervalRecord) {
        self.hint.insert(r);
        self.slices.place(grid, r, [r.st]);
    }

    fn tombstone(&mut self, (_, grid): &Self::Shared, r: &IntervalRecord) -> bool {
        self.slices.tombstone_copies(grid, r);
        self.hint.delete(r)
    }

    fn seed_into(&self, _: &Self::Shared, q: Interval, scratch: &mut QueryScratch) -> u64 {
        let scanned = seed_from_hint(&self.hint, q, scratch);
        scratch.cands.sort_unstable();
        scanned
    }

    fn restrict(&self, (_, grid): &Self::Shared, q: Interval, scratch: &mut QueryScratch) {
        self.slices.restrict_marked(grid, q, scratch);
    }

    fn for_each_id_list(&self, mut f: impl FnMut(&[u32])) {
        self.slices.subs.iter().for_each(|sub| f(&sub.ids));
    }

    fn size_bytes(&self) -> usize {
        self.hint.size_bytes()
            + 16
            + self.slices.columns_bytes()
            + self.slices.subs.capacity() * std::mem::size_of::<ColumnList<1>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num_postings(idx: &TifHintSlicing) -> usize {
        let mut n = 0;
        idx.for_each_term(|_, t| {
            n += t.hint.num_entries() + t.slices.iter().map(|(_, sub)| sub.len()).sum::<usize>()
        });
        n
    }

    #[test]
    fn dual_structure_is_larger_than_single() {
        let coll = Collection::running_example();
        let hybrid = TifHintSlicing::build_with_params(&coll, 3, 4);
        let raw_postings: usize = coll.objects().iter().map(|o| o.desc.len()).sum();
        assert!(num_postings(&hybrid) >= 2 * raw_postings);
    }

    #[test]
    fn contract() {
        for (m, k) in [(2u32, 1u32), (3, 4), (4, 8), (5, 16)] {
            crate::per_term::contract::holds(&format!("m={m} k={k}"), |c| {
                TifHintSlicing::build_with_params(c, m, k)
            });
        }
    }
}
