//! Object model of temporal IR: intervals, objects, and time-travel
//! queries (Section 2.1 of the paper).

use std::sync::Arc;

/// Object identifier. Must be `< 2^31`; the high bit is reserved for
/// tombstones inside the indexes.
pub type ObjectId = u32;

/// Descriptive element identifier (a term, track id, product id, …) from
/// the global dictionary.
pub type ElemId = u32;

/// Raw timestamp in the collection's time domain.
pub type Timestamp = u64;

/// A closed time interval `[st, end]` with `st <= end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive start.
    pub st: Timestamp,
    /// Inclusive end.
    pub end: Timestamp,
}

impl Interval {
    /// Creates an interval, validating `st <= end`.
    pub fn new(st: Timestamp, end: Timestamp) -> Self {
        assert!(st <= end, "invalid interval [{st}, {end}]");
        Interval { st, end }
    }

    /// Inclusive overlap test (Definition `Overlap` in Section 2.1).
    #[inline]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.st <= other.end && other.st <= self.end
    }

    /// Interval duration counting both endpoints.
    #[inline]
    pub fn duration(&self) -> u64 {
        self.end - self.st + 1
    }
}

/// A data object `⟨id, [tst, tend], d⟩`: identifier, lifespan, and
/// descriptive element set.
///
/// The description is stored sorted and duplicate-free (set semantics, as
/// assumed by the paper; bag semantics are future work there too).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Object {
    /// Object identifier.
    pub id: ObjectId,
    /// Lifespan.
    pub interval: Interval,
    /// Sorted, duplicate-free descriptive elements. Immutable once the
    /// object exists (an update is a delete plus an insert), so every clone
    /// of the object shares this one allocation.
    pub desc: Arc<[ElemId]>,
}

impl Object {
    /// Creates an object, normalizing the description to a sorted set.
    pub fn new(id: ObjectId, st: Timestamp, end: Timestamp, mut desc: Vec<ElemId>) -> Self {
        assert!(id & (1 << 31) == 0, "object id {id} uses the tombstone bit");
        desc.sort_unstable();
        desc.dedup();
        Object {
            id,
            interval: Interval::new(st, end),
            desc: desc.into(),
        }
    }

    /// True if the object's description contains every element of `elems`
    /// (`o.d ⊇ q.d`). Both sides must be sorted.
    pub fn contains_all(&self, elems: &[ElemId]) -> bool {
        debug_assert!(elems.windows(2).all(|w| w[0] <= w[1]));
        let mut it = self.desc.iter();
        'outer: for &e in elems {
            for &d in it.by_ref() {
                if d == e {
                    continue 'outer;
                }
                if d > e {
                    return false;
                }
            }
            return false;
        }
        true
    }
}

/// A time-travel IR query `q = ⟨[q.tst, q.tend], q.d⟩` (Definition 2.1):
/// retrieve all objects whose interval overlaps `[st, end]` and whose
/// description contains all of `elems`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeTravelQuery {
    /// Query interval.
    pub interval: Interval,
    /// Required elements (`q.d`); order irrelevant, duplicates ignored.
    pub elems: Vec<ElemId>,
}

impl TimeTravelQuery {
    /// Creates a query.
    pub fn new(st: Timestamp, end: Timestamp, mut elems: Vec<ElemId>) -> Self {
        elems.sort_unstable();
        elems.dedup();
        TimeTravelQuery {
            interval: Interval::new(st, end),
            elems,
        }
    }

    /// True if `o` satisfies both query predicates.
    pub fn matches(&self, o: &Object) -> bool {
        self.interval.overlaps(&o.interval) && o.contains_all(&self.elems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_inclusive_boundaries() {
        let a = Interval::new(5, 10);
        assert!(a.overlaps(&Interval::new(10, 12)));
        assert!(a.overlaps(&Interval::new(1, 5)));
        assert!(!a.overlaps(&Interval::new(11, 12)));
        assert!(!a.overlaps(&Interval::new(0, 4)));
        assert_eq!(a.duration(), 6);
    }

    #[test]
    fn object_normalizes_description() {
        let o = Object::new(1, 0, 10, vec![3, 1, 3, 2]);
        assert_eq!(*o.desc, [1, 2, 3]);
    }

    #[test]
    fn contains_all_subset_logic() {
        let o = Object::new(1, 0, 10, vec![1, 4, 9]);
        assert!(o.contains_all(&[]));
        assert!(o.contains_all(&[4]));
        assert!(o.contains_all(&[1, 9]));
        assert!(!o.contains_all(&[2]));
        assert!(!o.contains_all(&[1, 5]));
        assert!(!o.contains_all(&[9, 10]));
    }

    #[test]
    fn query_matches() {
        let o = Object::new(1, 5, 9, vec![0, 2]);
        assert!(TimeTravelQuery::new(9, 20, vec![0]).matches(&o));
        assert!(!TimeTravelQuery::new(10, 20, vec![0]).matches(&o));
        assert!(!TimeTravelQuery::new(5, 9, vec![1]).matches(&o));
        assert!(TimeTravelQuery::new(5, 9, vec![2, 0, 2]).matches(&o));
    }
}
