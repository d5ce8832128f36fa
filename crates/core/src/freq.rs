//! Element frequency tables and query planning order.
//!
//! Every index keeps its own frequency table so that query planning (sort
//! `q.d` by ascending document frequency, Section 2.2) stays correct under
//! inserts and deletes.

use crate::types::ElemId;

/// Mutable document-frequency table indexed by element id.
#[derive(Debug, Clone, Default)]
pub struct FreqTable {
    counts: Vec<u32>,
}

impl FreqTable {
    /// Copies the frequencies of a collection.
    pub fn from_counts(counts: &[u32]) -> Self {
        FreqTable {
            counts: counts.to_vec(),
        }
    }

    /// Document frequency of `e` (0 when unknown).
    #[inline]
    pub fn get(&self, e: ElemId) -> u32 {
        self.counts.get(e as usize).copied().unwrap_or(0)
    }

    /// Registers one more object containing `e`.
    pub fn bump(&mut self, e: ElemId) {
        if e as usize >= self.counts.len() {
            self.counts.resize(e as usize + 1, 0);
        }
        self.counts[e as usize] += 1;
    }

    /// Unregisters one object containing `e`.
    pub fn drop_one(&mut self, e: ElemId) {
        if let Some(c) = self.counts.get_mut(e as usize) {
            *c = c.saturating_sub(1);
        }
    }

    /// Writes the query elements sorted by ascending frequency and
    /// deduplicated — the evaluation order of Algorithm 1 — into a
    /// reusable buffer (the planner scratch's `plan` vector).
    pub fn plan_into(&self, elems: &[ElemId], out: &mut Vec<ElemId>) {
        out.clear();
        out.extend_from_slice(elems);
        out.sort_unstable();
        out.dedup();
        // (freq, elem) keys make the unstable sort a deterministic
        // total order — same result as a stable by-freq sort over the
        // id-sorted input, without the stable sort's temp allocation
        // (this runs per query on the zero-alloc hot path).
        out.sort_unstable_by_key(|&e| (self.get(e), e));
    }

    /// Heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.counts.capacity() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(t: &FreqTable, elems: &[ElemId]) -> Vec<ElemId> {
        let mut out = Vec::new();
        t.plan_into(elems, &mut out);
        out
    }

    #[test]
    fn plan_orders_by_frequency() {
        let t = FreqTable::from_counts(&[10, 2, 5]);
        assert_eq!(plan(&t, &[0, 1, 2]), vec![1, 2, 0]);
        assert_eq!(plan(&t, &[2, 2, 0]), vec![2, 0]);
        assert_eq!(plan(&t, &[]), Vec::<ElemId>::new());
    }

    #[test]
    fn bump_and_drop() {
        let mut t = FreqTable::default();
        t.bump(5);
        t.bump(5);
        assert_eq!(t.get(5), 2);
        assert_eq!(t.get(4), 0);
        t.drop_one(5);
        assert_eq!(t.get(5), 1);
        t.drop_one(9); // unknown: no-op
    }

    #[test]
    fn plan_is_stable_for_ties() {
        let t = FreqTable::from_counts(&[3, 3, 3]);
        assert_eq!(plan(&t, &[2, 0, 1]), vec![0, 1, 2]);
    }
}
