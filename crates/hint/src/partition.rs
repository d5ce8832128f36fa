//! Division payload of the plain interval HINT: one subdivision stored as
//! a structure of arrays.
//!
//! The layout realizes two of the HINT paper's optimizations (the
//! subdivisions themselves are the hierarchy's, [`crate::hierarchy`]):
//!
//! * **storage optimization** — each subdivision keeps only the endpoint
//!   arrays that some query may compare (`O_in`: both, `O_aft`: start,
//!   `R_in`: end, `R_aft`: neither);
//! * **cache-miss optimization** — ids live in their own array, so
//!   comparison-free divisions are reported without touching endpoints.

use crate::layout::{CheckMode, DivisionKind};

/// Tombstone marker: deleted entries have this bit set in their stored id.
/// Object ids must therefore be `< 2^31`.
pub const TOMBSTONE: u32 = 1 << 31;

/// How the entries inside each subdivision are ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DivisionOrder {
    /// Each subdivision uses the sort order that benefits its own
    /// comparisons: `O_in`/`O_aft` ascending by start, `R_in` descending by
    /// end (`R_aft` needs no order). Enables early-terminating scans.
    #[default]
    Beneficial,
    /// All subdivisions ascending by object id. Required by the merge-sort
    /// intersection strategies of the paper (Algorithm 4); range scans
    /// degrade to full filters.
    ById,
    /// Insertion order; the "unoptimized" baseline.
    Insertion,
}

/// One subdivision: parallel arrays of ids and (optionally elided)
/// endpoints.
#[derive(Debug, Clone, Default)]
pub struct Division {
    pub(crate) ids: Vec<u32>,
    pub(crate) sts: Vec<u64>,
    pub(crate) ends: Vec<u64>,
    /// Number of tombstoned entries; while zero, comparison-free scans
    /// copy the id array wholesale instead of branching per entry.
    pub(crate) dead: u32,
}

/// A read-only view of a division handed to composite indexes.
#[derive(Debug, Clone, Copy)]
pub struct DivisionView<'a> {
    /// Stored object ids; entries with the [`TOMBSTONE`] bit are deleted.
    pub ids: &'a [u32],
    /// Interval starts, or an empty slice if elided by the storage
    /// optimization (never needed when elided).
    pub sts: &'a [u64],
    /// Interval ends, or an empty slice if elided.
    pub ends: &'a [u64],
    /// Which subdivision this is.
    pub kind: DivisionKind,
    /// Hierarchy level of the partition holding this division.
    pub level: u32,
    /// Partition index within the level.
    pub j: u32,
}

impl Division {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The read-only view of this division as the `kind` subdivision of
    /// partition `(level, j)`.
    pub(crate) fn view(&self, kind: DivisionKind, level: u32, j: u32) -> DivisionView<'_> {
        DivisionView {
            ids: &self.ids,
            sts: &self.sts,
            ends: &self.ends,
            kind,
            level,
            j,
        }
    }

    /// Inserts `(id, st, end)` keeping the configured order (under
    /// [`DivisionOrder::ById`], at most one entry per id). `keep_st` /
    /// `keep_end` implement the storage optimization.
    pub(crate) fn insert(
        &mut self,
        id: u32,
        st: u64,
        end: u64,
        order: DivisionOrder,
        kind: DivisionKind,
        keep_st: bool,
        keep_end: bool,
    ) {
        let pos = match order {
            DivisionOrder::Insertion => self.ids.len(),
            DivisionOrder::ById => {
                let pos = self.ids.partition_point(|&x| (x & !TOMBSTONE) < id);
                if self.ids.get(pos).is_some_and(|&x| x & !TOMBSTONE == id) {
                    // The id is stored already — the tombstone a delete
                    // left: revive it in place, or merge kernels that stop
                    // at the first raw match would never see the new entry.
                    self.dead -= u32::from(self.ids[pos] != id);
                    self.ids[pos] = id;
                    if keep_st {
                        self.sts[pos] = st;
                    }
                    if keep_end {
                        self.ends[pos] = end;
                    }
                    return;
                }
                pos
            }
            DivisionOrder::Beneficial => match sort_key(kind) {
                SortKey::StAsc => self.sts.partition_point(|&x| x <= st),
                SortKey::EndDesc => self.ends.partition_point(|&x| x >= end),
                SortKey::Unordered => self.ids.len(),
            },
        };
        self.ids.insert(pos, id);
        if keep_st {
            self.sts.insert(pos, st);
        }
        if keep_end {
            self.ends.insert(pos, end);
        }
    }

    /// Marks the entry for `id` as deleted; returns true if found alive.
    pub(crate) fn tombstone(&mut self, id: u32) -> bool {
        // Divisions are small; a linear probe over the dense id array is
        // the same locate-and-mark cost the paper's logical deletes pay.
        for slot in self.ids.iter_mut() {
            if *slot == id {
                *slot |= TOMBSTONE;
                self.dead += 1;
                return true;
            }
        }
        false
    }

    /// Appends all live ids whose endpoints satisfy `mode` to `out`.
    ///
    /// `mode` must already be refined for this division's kind, so elided
    /// endpoint arrays are never consulted.
    pub(crate) fn query_into(
        &self,
        mode: CheckMode,
        kind: DivisionKind,
        order: DivisionOrder,
        q_st: u64,
        q_end: u64,
        out: &mut Vec<u32>,
    ) {
        let clean = self.dead == 0;
        match mode {
            CheckMode::None => {
                if clean {
                    out.extend_from_slice(&self.ids);
                } else {
                    out.extend(self.ids.iter().copied().filter(|id| id & TOMBSTONE == 0));
                }
            }
            CheckMode::Start => {
                debug_assert_eq!(self.sts.len(), self.ids.len());
                if order == DivisionOrder::Beneficial && sort_key(kind) == SortKey::StAsc {
                    // Spot check (O(1)): full sortedness is tir-check's
                    // job; an unsorted array still trips here early.
                    debug_assert!(
                        self.sts.windows(2).take(32).all(|w| w[0] <= w[1]),
                        "StAsc prefix scan requires starts sorted ascending"
                    );
                    let hi = self.sts.partition_point(|&st| st <= q_end);
                    if clean {
                        out.extend_from_slice(&self.ids[..hi]);
                    } else {
                        out.extend(
                            self.ids[..hi]
                                .iter()
                                .copied()
                                .filter(|id| id & TOMBSTONE == 0),
                        );
                    }
                } else {
                    for (i, &st) in self.sts.iter().enumerate() {
                        if st <= q_end && self.ids[i] & TOMBSTONE == 0 {
                            out.push(self.ids[i]);
                        }
                    }
                }
            }
            CheckMode::End => {
                debug_assert_eq!(self.ends.len(), self.ids.len());
                if order == DivisionOrder::Beneficial && sort_key(kind) == SortKey::EndDesc {
                    debug_assert!(
                        self.ends.windows(2).take(32).all(|w| w[0] >= w[1]),
                        "EndDesc prefix scan requires ends sorted descending"
                    );
                    let hi = self.ends.partition_point(|&end| end >= q_st);
                    if clean {
                        out.extend_from_slice(&self.ids[..hi]);
                    } else {
                        out.extend(
                            self.ids[..hi]
                                .iter()
                                .copied()
                                .filter(|id| id & TOMBSTONE == 0),
                        );
                    }
                } else {
                    for (i, &end) in self.ends.iter().enumerate() {
                        if end >= q_st && self.ids[i] & TOMBSTONE == 0 {
                            out.push(self.ids[i]);
                        }
                    }
                }
            }
            CheckMode::Both => {
                debug_assert_eq!(self.sts.len(), self.ids.len());
                debug_assert_eq!(self.ends.len(), self.ids.len());
                if order == DivisionOrder::Beneficial && sort_key(kind) == SortKey::StAsc {
                    // Spot check (O(1)): full sortedness is tir-check's
                    // job; an unsorted array still trips here early.
                    debug_assert!(
                        self.sts.windows(2).take(32).all(|w| w[0] <= w[1]),
                        "StAsc prefix scan requires starts sorted ascending"
                    );
                    let hi = self.sts.partition_point(|&st| st <= q_end);
                    for i in 0..hi {
                        if self.ends[i] >= q_st && self.ids[i] & TOMBSTONE == 0 {
                            out.push(self.ids[i]);
                        }
                    }
                } else {
                    for i in 0..self.ids.len() {
                        if self.sts[i] <= q_end
                            && self.ends[i] >= q_st
                            && self.ids[i] & TOMBSTONE == 0
                        {
                            out.push(self.ids[i]);
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn size_bytes(&self) -> usize {
        self.ids.capacity() * 4 + self.sts.capacity() * 8 + self.ends.capacity() * 8
    }
}

#[derive(PartialEq, Eq, Clone, Copy)]
pub(crate) enum SortKey {
    StAsc,
    EndDesc,
    Unordered,
}

/// The beneficial sort key for a subdivision: starts ascending where
/// `i.st <= q.end` prefixes are scanned, ends descending where
/// `q.st <= i.end` prefixes are scanned.
pub(crate) fn sort_key(kind: DivisionKind) -> SortKey {
    match kind {
        DivisionKind::OrigIn | DivisionKind::OrigAft => SortKey::StAsc,
        DivisionKind::ReplIn => SortKey::EndDesc,
        DivisionKind::ReplAft => SortKey::Unordered,
    }
}

/// Which endpoint arrays a subdivision materializes under the storage
/// optimization: `(keep_st, keep_end)`.
pub(crate) fn kept_endpoints(kind: DivisionKind, storage_opt: bool) -> (bool, bool) {
    if !storage_opt {
        return (true, true);
    }
    match kind {
        DivisionKind::OrigIn => (true, true),
        DivisionKind::OrigAft => (true, false),
        DivisionKind::ReplIn => (false, true),
        DivisionKind::ReplAft => (false, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beneficial_insert_keeps_st_sorted() {
        let mut d = Division::default();
        for (id, st) in [(1u32, 50u64), (2, 10), (3, 30), (4, 70), (5, 30)] {
            d.insert(
                id,
                st,
                st + 5,
                DivisionOrder::Beneficial,
                DivisionKind::OrigIn,
                true,
                true,
            );
        }
        assert!(d.sts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn beneficial_insert_keeps_end_desc_sorted() {
        let mut d = Division::default();
        for (id, end) in [(1u32, 50u64), (2, 90), (3, 30), (4, 70)] {
            d.insert(
                id,
                0,
                end,
                DivisionOrder::Beneficial,
                DivisionKind::ReplIn,
                false,
                true,
            );
        }
        assert!(d.ends.windows(2).all(|w| w[0] >= w[1]));
        assert!(d.sts.is_empty(), "storage optimization elided starts");
    }

    #[test]
    fn by_id_insert_keeps_ids_sorted() {
        let mut d = Division::default();
        for id in [5u32, 1, 3, 2, 4] {
            d.insert(
                id,
                0,
                0,
                DivisionOrder::ById,
                DivisionKind::OrigIn,
                true,
                true,
            );
        }
        assert_eq!(d.ids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn by_id_reinsert_revives_the_tombstone() {
        let mut d = Division::default();
        let put = |d: &mut Division, id, st, end| {
            d.insert(
                id,
                st,
                end,
                DivisionOrder::ById,
                DivisionKind::OrigIn,
                true,
                true,
            )
        };
        for id in [1u32, 2, 3] {
            put(&mut d, id, 0, 5);
        }
        assert!(d.tombstone(2));
        put(&mut d, 2, 1, 4);
        assert_eq!((d.ids.as_slice(), d.dead), (&[1, 2, 3][..], 0));
        assert_eq!((d.sts[1], d.ends[1]), (1, 4));
        assert!(d.tombstone(2), "alive again, so deletable again");
    }

    #[test]
    fn tombstone_hides_from_queries() {
        let mut d = Division::default();
        d.insert(
            7,
            1,
            9,
            DivisionOrder::Insertion,
            DivisionKind::OrigIn,
            true,
            true,
        );
        d.insert(
            8,
            2,
            9,
            DivisionOrder::Insertion,
            DivisionKind::OrigIn,
            true,
            true,
        );
        assert!(d.tombstone(7));
        assert!(!d.tombstone(7), "already dead");
        let mut out = Vec::new();
        d.query_into(
            CheckMode::None,
            DivisionKind::OrigIn,
            DivisionOrder::Insertion,
            0,
            10,
            &mut out,
        );
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn start_mode_prefix_scan_matches_filter() {
        let mut sorted = Division::default();
        let mut unsorted = Division::default();
        let entries = [(1u32, 5u64), (2, 15), (3, 25), (4, 35), (5, 45)];
        for &(id, st) in &entries {
            sorted.insert(
                id,
                st,
                100,
                DivisionOrder::Beneficial,
                DivisionKind::OrigAft,
                true,
                false,
            );
            unsorted.insert(
                id,
                st,
                100,
                DivisionOrder::Insertion,
                DivisionKind::OrigAft,
                true,
                false,
            );
        }
        for q_end in [0u64, 5, 20, 44, 45, 99] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            sorted.query_into(
                CheckMode::Start,
                DivisionKind::OrigAft,
                DivisionOrder::Beneficial,
                0,
                q_end,
                &mut a,
            );
            unsorted.query_into(
                CheckMode::Start,
                DivisionKind::OrigAft,
                DivisionOrder::Insertion,
                0,
                q_end,
                &mut b,
            );
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "q_end={q_end}");
        }
    }
}
