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

/// How the entries inside each subdivision are ordered. Both orders keep
/// only the endpoint arrays a query may compare (the storage
/// optimization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DivisionOrder {
    /// Each subdivision uses the sort order that benefits its own
    /// comparisons: `O_in`/`O_aft` ascending by start, `R_in` descending by
    /// end (`R_aft` needs no order). A scan cuts the sorted prefix that
    /// passes the comparison instead of testing every entry. The plain
    /// range query, tIF+HINT(bs) (its terms' HINTs) and every irHINT-size
    /// division use it.
    #[default]
    Beneficial,
    /// All subdivisions ascending by object id. Required by the merge-sort
    /// intersection strategies of the paper (Algorithm 4); range scans
    /// degrade to whole-division filters.
    ById,
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
    /// Number of stored entries, tombstoned ones included.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if no entry is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of tombstoned entries.
    pub fn dead(&self) -> usize {
        self.dead as usize
    }

    /// The read-only view of this division as the `kind` subdivision of
    /// partition `(level, j)`.
    pub fn view(&self, kind: DivisionKind, level: u32, j: u32) -> DivisionView<'_> {
        DivisionView {
            ids: &self.ids,
            sts: &self.sts,
            ends: &self.ends,
            kind,
            level,
            j,
        }
    }

    /// Appends `(id, st, end)` unordered, storing the endpoints `kind`
    /// keeps: the bulk build appends every entry, then sorts once.
    pub fn push(&mut self, id: u32, st: u64, end: u64, kind: DivisionKind) {
        self.put(self.ids.len(), id, st, end, kind);
    }

    /// Inserts `(id, st, end)` keeping the configured order (under
    /// [`DivisionOrder::ById`], at most one entry per id), storing the
    /// endpoints `kind` keeps.
    pub fn insert(&mut self, id: u32, st: u64, end: u64, order: DivisionOrder, kind: DivisionKind) {
        let pos = match order {
            DivisionOrder::ById => {
                let pos = self.ids.partition_point(|&x| (x & !TOMBSTONE) < id);
                if self.ids.get(pos).is_some_and(|&x| x & !TOMBSTONE == id) {
                    // The id is stored already — the tombstone a delete
                    // left: revive it in place, or merge kernels that stop
                    // at the first raw match would never see the new entry.
                    self.dead -= u32::from(self.ids[pos] != id);
                    self.ids[pos] = id;
                    let (keep_st, keep_end) = kept_endpoints(kind);
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
        self.put(pos, id, st, end, kind);
    }

    /// Stores `(id, st, end)` at `pos` of the columns `kind` keeps.
    fn put(&mut self, pos: usize, id: u32, st: u64, end: u64, kind: DivisionKind) {
        let (keep_st, keep_end) = kept_endpoints(kind);
        self.ids.insert(pos, id);
        if keep_st {
            self.sts.insert(pos, st);
        }
        if keep_end {
            self.ends.insert(pos, end);
        }
    }

    /// Marks the entry for `id` as deleted; returns true if found alive.
    pub fn tombstone(&mut self, id: u32) -> bool {
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
    /// endpoint arrays are never consulted. Under beneficial sorting, a
    /// mode that compares the division's sort key first cuts the sorted
    /// prefix passing that comparison; the rest of the mode is then
    /// checked on the prefix alone by [`CheckMode::admit_into`].
    pub fn query_into(
        &self,
        mode: CheckMode,
        kind: DivisionKind,
        order: DivisionOrder,
        q_st: u64,
        q_end: u64,
        out: &mut Vec<u32>,
    ) {
        let beneficial = order == DivisionOrder::Beneficial;
        let (n, rest) = match (mode, sort_key(kind)) {
            (CheckMode::Start | CheckMode::Both, SortKey::StAsc) if beneficial => {
                // Spot check (O(1)): full sortedness is tir-check's
                // job; an unsorted array still trips here early.
                debug_assert!(
                    self.sts.windows(2).take(32).all(|w| w[0] <= w[1]),
                    "StAsc prefix scan requires starts sorted ascending"
                );
                let hi = self.sts.partition_point(|&st| st <= q_end);
                let rest = if mode == CheckMode::Both {
                    CheckMode::End
                } else {
                    CheckMode::None
                };
                (hi, rest)
            }
            (CheckMode::End, SortKey::EndDesc) if beneficial => {
                debug_assert!(
                    self.ends.windows(2).take(32).all(|w| w[0] >= w[1]),
                    "EndDesc prefix scan requires ends sorted descending"
                );
                (
                    self.ends.partition_point(|&end| end >= q_st),
                    CheckMode::None,
                )
            }
            _ => (self.ids.len(), mode),
        };
        let ids = &self.ids[..n];
        if rest == CheckMode::None && self.dead == 0 {
            out.extend_from_slice(ids);
        } else {
            rest.admit_into(ids, &self.sts, &self.ends, q_st, q_end, out);
        }
    }

    /// Puts the entries in `order` once, after a run of [`Self::push`]es.
    pub fn sort(&mut self, order: DivisionOrder, kind: DivisionKind) {
        let n = self.ids.len();
        if n <= 1 {
            return;
        }
        // analyze:allow(unguarded-cast): record ids are u32 by construction, so n <= u32::MAX
        let mut perm: Vec<u32> = (0..n as u32).collect();
        match order {
            DivisionOrder::ById => {
                perm.sort_unstable_by_key(|&i| self.ids[i as usize] & !TOMBSTONE);
            }
            DivisionOrder::Beneficial => match sort_key(kind) {
                SortKey::StAsc => perm.sort_unstable_by_key(|&i| self.sts[i as usize]),
                SortKey::EndDesc => {
                    perm.sort_unstable_by_key(|&i| std::cmp::Reverse(self.ends[i as usize]))
                }
                SortKey::Unordered => return,
            },
        }
        self.ids = perm.iter().map(|&i| self.ids[i as usize]).collect();
        if !self.sts.is_empty() {
            self.sts = perm.iter().map(|&i| self.sts[i as usize]).collect();
        }
        if !self.ends.is_empty() {
            self.ends = perm.iter().map(|&i| self.ends[i as usize]).collect();
        }
    }

    /// Heap bytes of the columns, at capacity.
    pub fn size_bytes(&self) -> usize {
        self.ids.capacity() * 4 + self.sts.capacity() * 8 + self.ends.capacity() * 8
    }

    /// Desynchronizes the `dead` counter from the tombstone bits, so
    /// validator tests can confirm the corruption is reported.
    #[cfg(feature = "testing")]
    pub fn testing_corrupt_dead_counter(&mut self) {
        self.dead += 1;
    }
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum SortKey {
    StAsc,
    EndDesc,
    Unordered,
}

/// The beneficial sort key for a subdivision: starts ascending where
/// `i.st <= q.end` prefixes are scanned, ends descending where
/// `q.st <= i.end` prefixes are scanned.
fn sort_key(kind: DivisionKind) -> SortKey {
    match kind {
        DivisionKind::OrigIn | DivisionKind::OrigAft => SortKey::StAsc,
        DivisionKind::ReplIn => SortKey::EndDesc,
        DivisionKind::ReplAft => SortKey::Unordered,
    }
}

/// Which endpoint arrays a subdivision materializes under the storage
/// optimization: `(keep_st, keep_end)`.
pub(crate) fn kept_endpoints(kind: DivisionKind) -> (bool, bool) {
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
            );
        }
        assert!(d.sts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn beneficial_insert_keeps_end_desc_sorted() {
        let mut d = Division::default();
        for (id, end) in [(1u32, 50u64), (2, 90), (3, 30), (4, 70)] {
            d.insert(id, 0, end, DivisionOrder::Beneficial, DivisionKind::ReplIn);
        }
        assert!(d.ends.windows(2).all(|w| w[0] >= w[1]));
        assert!(d.sts.is_empty(), "storage optimization elided starts");
    }

    #[test]
    fn by_id_insert_keeps_ids_sorted() {
        let mut d = Division::default();
        for id in [5u32, 1, 3, 2, 4] {
            d.insert(id, 0, 0, DivisionOrder::ById, DivisionKind::OrigIn);
        }
        assert_eq!(d.ids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn by_id_reinsert_revives_the_tombstone() {
        let mut d = Division::default();
        let put = |d: &mut Division, id, st, end| {
            d.insert(id, st, end, DivisionOrder::ById, DivisionKind::OrigIn)
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
        let (order, kind) = (DivisionOrder::Beneficial, DivisionKind::OrigIn);
        d.insert(7, 1, 9, order, kind);
        d.insert(8, 2, 9, order, kind);
        assert!(d.tombstone(7));
        assert!(!d.tombstone(7), "already dead");
        let mut out = Vec::new();
        d.query_into(CheckMode::None, kind, order, 0, 10, &mut out);
        assert_eq!(out, vec![8]);
    }

    /// The sorted-prefix cut of the beneficial order answers what the
    /// whole-division filter of the id order answers over the same
    /// entries, for each mode that cuts (`Start` on `O_aft`, `End` on
    /// `R_in`, `Both` on `O_in`), with one entry tombstoned.
    #[test]
    fn prefix_cut_matches_whole_division_filter() {
        let entries = [
            (1u32, 5u64, 60u64),
            (2, 15, 20),
            (3, 25, 90),
            (4, 35, 40),
            (5, 45, 45),
        ];
        for (kind, mode) in [
            (DivisionKind::OrigAft, CheckMode::Start),
            (DivisionKind::ReplIn, CheckMode::End),
            (DivisionKind::OrigIn, CheckMode::Both),
        ] {
            let mut sorted = Division::default();
            let mut by_id = Division::default();
            for &(id, st, end) in &entries {
                sorted.insert(id, st, end, DivisionOrder::Beneficial, kind);
                by_id.insert(id, st, end, DivisionOrder::ById, kind);
            }
            assert!(sorted.tombstone(3) && by_id.tombstone(3));
            for (q_st, q_end) in [(0u64, 0u64), (0, 5), (10, 20), (21, 44), (45, 45), (46, 99)] {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                sorted.query_into(mode, kind, DivisionOrder::Beneficial, q_st, q_end, &mut a);
                by_id.query_into(mode, kind, DivisionOrder::ById, q_st, q_end, &mut b);
                a.sort_unstable();
                assert_eq!(a, b, "{kind:?} {mode:?} [{q_st}, {q_end}]");
                assert!(!a.contains(&3), "tombstoned entry reported");
            }
        }
    }
}
