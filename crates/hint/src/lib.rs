//! # tir-hint
//!
//! The interval index the temporal-IR paper builds on:
//!
//! * [`Hint`] — the state-of-the-art **H**ierarchical index for
//!   **int**ervals of Christodoulou, Bouros & Mamoulis (SIGMOD 2022), with
//!   the subdivision, storage, sparse-partition and cache-miss
//!   optimizations always on, plus incremental inserts and logical
//!   deletes. Its subdivisions are ordered one of two ways
//!   ([`DivisionOrder`]): beneficially sorted, the paper's range-query
//!   setting, or by id, for the merge-sort intersections of tIF+HINT;
//! * [`Hierarchy`] — the payload-agnostic HINT hierarchy (placement rule
//!   and query walk) that [`Hint`] and both irHINT variants instantiate;
//!   DESIGN.md "HINT hierarchy and division stores" has the one-page map;
//! * [`slice_of`] — the equal-width cell formula of the Slicing technique.
//!
//! The index answers *range (overlap) queries* over closed intervals:
//! given `[q_st, q_end]`, return every stored interval `i` with
//! `i.st <= q_end && q_st <= i.end`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod domain;
pub mod hierarchy;
pub mod index;
pub mod layout;
pub mod partition;

pub use domain::{slice_of, Domain};
pub use hierarchy::Hierarchy;
pub use index::{Hint, HintConfig};
pub use layout::{CheckMode, DivisionKind, Layout};
pub use partition::{Division, DivisionOrder, DivisionView, TOMBSTONE};

/// An interval with an attached object id — the unit a [`Hint`] stores.
///
/// Intervals are closed: `[st, end]` with `st <= end`. Ids must be smaller
/// than `2^31`; the high bit is reserved for tombstones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntervalRecord {
    /// Object identifier (`< 2^31`).
    pub id: u32,
    /// Inclusive start timestamp.
    pub st: u64,
    /// Inclusive end timestamp.
    pub end: u64,
}

impl IntervalRecord {
    /// Creates a record, checking the interval invariant.
    pub fn new(id: u32, st: u64, end: u64) -> Self {
        assert!(st <= end, "invalid interval [{st}, {end}]");
        assert!(id & TOMBSTONE == 0, "id {id} uses the tombstone bit");
        IntervalRecord { id, st, end }
    }

    /// Inclusive-overlap test against a query range.
    #[inline]
    pub fn overlaps(&self, q_st: u64, q_end: u64) -> bool {
        self.st <= q_end && q_st <= self.end
    }
}

/// Reference result: ids of all records overlapping `[q_st, q_end]`,
/// sorted ascending. Used as the oracle throughout the test suites.
pub fn brute_force_overlap(records: &[IntervalRecord], q_st: u64, q_end: u64) -> Vec<u32> {
    let mut out: Vec<u32> = records
        .iter()
        .filter(|r| r.overlaps(q_st, q_end))
        .map(|r| r.id)
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_is_inclusive() {
        let r = IntervalRecord::new(1, 5, 10);
        assert!(r.overlaps(10, 20));
        assert!(r.overlaps(0, 5));
        assert!(r.overlaps(7, 7));
        assert!(!r.overlaps(11, 20));
        assert!(!r.overlaps(0, 4));
    }

    #[test]
    #[should_panic]
    fn rejects_inverted_interval() {
        let _ = IntervalRecord::new(1, 10, 5);
    }
}
