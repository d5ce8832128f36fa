//! The HINT hierarchy geometry: interval-to-partition assignment, the
//! per-level relevant-partition roles of a range query, and the two small
//! vocabularies every division payload is written against —
//! [`DivisionKind`] (which of a partition's four subdivisions) and
//! [`CheckMode`] (which endpoint comparisons a query still owes there).
//! [`crate::hierarchy::Hierarchy`] is the only caller of the two walks.

use crate::partition::TOMBSTONE;

/// Which raw-endpoint comparisons a division requires for a given query.
///
/// `Start` means `i.st <= q.end` must be verified, `End` means
/// `q.st <= i.end` must be verified, `Both` means both, and `None` means
/// every (live) entry of the division is guaranteed to overlap the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// No comparison needed: report everything.
    None,
    /// Verify `i.st <= q.end`.
    Start,
    /// Verify `q.st <= i.end`.
    End,
    /// Verify both endpoint conditions.
    Both,
}

impl CheckMode {
    /// The one endpoint predicate: calls `f(id, keep)` for every id of the
    /// parallel columns in column order, `keep` saying whether the entry is
    /// live and its endpoints satisfy this mode for the query
    /// `[q_st, q_end]`. A column the mode does not need is never read, so
    /// elided (empty) endpoint columns are fine.
    #[inline]
    fn scan(
        self,
        ids: &[u32],
        sts: &[u64],
        ends: &[u64],
        q_st: u64,
        q_end: u64,
        mut f: impl FnMut(u32, bool),
    ) {
        let n = ids.len();
        let mut each = |i: usize, admitted: bool| f(ids[i], admitted & (ids[i] & TOMBSTONE == 0));
        match self {
            CheckMode::None => (0..n).for_each(|i| each(i, true)),
            CheckMode::Start => {
                let sts = &sts[..n];
                (0..n).for_each(|i| each(i, sts[i] <= q_end));
            }
            CheckMode::End => {
                let ends = &ends[..n];
                (0..n).for_each(|i| each(i, ends[i] >= q_st));
            }
            CheckMode::Both => {
                let (sts, ends) = (&sts[..n], &ends[..n]);
                (0..n).for_each(|i| each(i, (sts[i] <= q_end) & (ends[i] >= q_st)));
            }
        }
    }

    /// Appends to `out`, in column order, every live id of the parallel
    /// columns whose endpoints satisfy this mode for the query
    /// `[q_st, q_end]`; a column the mode does not need is never read, so
    /// elided endpoint columns may be empty. Compacts without a branch:
    /// every id is stored at the write cursor and the cursor advances by
    /// `live & admitted`, so a filter the predictor cannot learn (first and
    /// last partitions, tombstoned divisions) costs no mispredictions.
    /// `out` is the caller's scratch buffer; it is sized for the whole
    /// column, then cut back. For callers that want the admitted ids as an
    /// array — irHINT's candidate seed.
    #[inline]
    pub fn admit_into(
        self,
        ids: &[u32],
        sts: &[u64],
        ends: &[u64],
        q_st: u64,
        q_end: u64,
        out: &mut Vec<u32>,
    ) {
        let base = out.len();
        out.resize(base + ids.len(), 0);
        let dst = &mut out[base..];
        let mut kept = 0usize;
        self.scan(ids, sts, ends, q_st, q_end, |id, keep| {
            dst[kept] = id;
            kept += usize::from(keep);
        });
        out.truncate(base + kept);
    }

    /// Calls `f(id)` for the ids [`CheckMode::admit_into`] would append, in
    /// the same order. For callers that consume the ids one at a time and
    /// never need them as an array — Algorithm 3's candidate probes, where
    /// compacting first is a second pass over every scanned posting
    /// (measured: +29 % query time on tIF+HINT(bs), EXPERIMENTS.md "irHINT
    /// adaptive intersection").
    #[inline]
    pub fn for_each_admitted(
        self,
        ids: &[u32],
        sts: &[u64],
        ends: &[u64],
        q_st: u64,
        q_end: u64,
        mut f: impl FnMut(u32),
    ) {
        self.scan(ids, sts, ends, q_st, q_end, |id, keep| {
            if keep {
                f(id);
            }
        });
    }
}

/// The four subdivisions of a HINT partition.
///
/// Originals start inside the partition; replicas start before it.
/// `In` divisions end inside the partition, `Aft` divisions end after it.
/// Declaration order is storage order ([`DivisionKind::index`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DivisionKind {
    /// Originals ending inside the partition (`P^{O_in}`).
    OrigIn,
    /// Originals ending after the partition (`P^{O_aft}`).
    OrigAft,
    /// Replicas ending inside the partition (`P^{R_in}`).
    ReplIn,
    /// Replicas ending after the partition (`P^{R_aft}`).
    ReplAft,
}

impl DivisionKind {
    /// The four kinds in storage order (`index()` ascending): originals
    /// before replicas, so a walk that skips replicas stops early.
    pub const ALL: [DivisionKind; 4] = [
        DivisionKind::OrigIn,
        DivisionKind::OrigAft,
        DivisionKind::ReplIn,
        DivisionKind::ReplAft,
    ];

    /// Classifies one assignment: `original` — the interval starts inside
    /// the partition; `ends_inside` — it also ends inside it.
    #[inline]
    pub fn of(original: bool, ends_inside: bool) -> Self {
        match (original, ends_inside) {
            (true, true) => DivisionKind::OrigIn,
            (true, false) => DivisionKind::OrigAft,
            (false, true) => DivisionKind::ReplIn,
            (false, false) => DivisionKind::ReplAft,
        }
    }

    /// Position of this kind in [`Self::ALL`] and in a partition's
    /// division array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The paper's name for the subdivision, as validators print it.
    pub fn label(self) -> &'static str {
        match self {
            DivisionKind::OrigIn => "O_in",
            DivisionKind::OrigAft => "O_aft",
            DivisionKind::ReplIn => "R_in",
            DivisionKind::ReplAft => "R_aft",
        }
    }

    /// True for the two replica kinds (the interval starts before the
    /// partition).
    #[inline]
    pub fn is_replica(self) -> bool {
        matches!(self, DivisionKind::ReplIn | DivisionKind::ReplAft)
    }

    /// True for the two `*_in` kinds (the interval ends inside the
    /// partition).
    #[inline]
    pub fn ends_inside(self) -> bool {
        matches!(self, DivisionKind::OrigIn | DivisionKind::ReplIn)
    }
}

/// Refines a partition-level check mode to a subdivision, exploiting what
/// the subdivision's membership already guarantees:
///
/// * `*Aft` entries end after the partition, and the first relevant
///   partition contains `q.st`, so `q.st <= i.end` holds structurally.
/// * Replicas start before the partition, and the first relevant partition
///   contains `q.st`, so `i.st <= q.end` holds structurally (replica modes
///   passed here are only ever `None`/`End` by Algorithm 2).
#[inline]
pub fn refine_mode(mode: CheckMode, kind: DivisionKind) -> CheckMode {
    match kind {
        DivisionKind::OrigIn => mode,
        DivisionKind::OrigAft => match mode {
            CheckMode::Both | CheckMode::Start => CheckMode::Start,
            CheckMode::End | CheckMode::None => CheckMode::None,
        },
        DivisionKind::ReplIn => match mode {
            CheckMode::End | CheckMode::Both => CheckMode::End,
            _ => CheckMode::None,
        },
        DivisionKind::ReplAft => CheckMode::None,
    }
}

/// The pure hierarchy geometry for `m + 1` levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    m: u32,
}

/// Role of a relevant partition within its level, as seen by a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionChecks {
    /// Comparison mode for the originals divisions.
    pub originals: CheckMode,
    /// Comparison mode for the replicas divisions; `None` (the Option)
    /// means replicas must not be accessed at all (duplicate avoidance:
    /// replicas are only read in the first relevant partition per level).
    pub replicas: Option<CheckMode>,
}

impl Layout {
    /// Creates a layout with levels `0..=m`.
    pub fn new(m: u32) -> Self {
        assert!(m <= crate::domain::Domain::MAX_M);
        Layout { m }
    }

    /// Number of levels minus one.
    #[inline]
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Assigns the cell interval `[a, b]` (bottom-level cells) to its
    /// minimal cover of partitions, invoking `f(level, j, is_original)`
    /// for every assigned partition. Exactly one invocation has
    /// `is_original == true`: the partition containing cell `a`.
    ///
    /// This is the classic segment-tree style decomposition used by HINT;
    /// at most two partitions per level are produced.
    pub fn assign(&self, a: u32, b: u32, mut f: impl FnMut(u32, u32, bool)) {
        debug_assert!(a <= b);
        // analyze:allow(unguarded-cast): m <= 20 is a build-time invariant, so 1 << m fits u32
        debug_assert!(b < (1u64 << self.m) as u32);
        let a0 = a;
        let (mut a, mut b) = (a, b);
        let mut level = self.m;
        loop {
            if a == b {
                let original = (a0 >> (self.m - level)) == a;
                f(level, a, original);
                break;
            }
            if a & 1 == 1 {
                let original = (a0 >> (self.m - level)) == a;
                f(level, a, original);
                a += 1;
            }
            if b & 1 == 0 {
                let original = (a0 >> (self.m - level)) == b;
                f(level, b, original);
                b -= 1;
            }
            if a > b {
                break;
            }
            a >>= 1;
            b >>= 1;
            debug_assert!(level > 0, "assignment must terminate at level 0");
            level -= 1;
        }
    }

    /// Walks the relevant partitions of the range query `[qa, qb]` (given
    /// as bottom-level cells) bottom-up, invoking
    /// `f(level, first_j, last_j, first_checks, last_checks, middle_checks)`
    /// once per level.
    ///
    /// The three `PartitionChecks` describe respectively the first relevant
    /// partition, the last relevant partition when it differs from the
    /// first, and every partition strictly in between. The `compfirst` /
    /// `complast` flags of Algorithm 2 are maintained internally.
    pub fn for_each_relevant_level(
        &self,
        qa: u32,
        qb: u32,
        mut f: impl FnMut(u32, u32, u32, PartitionChecks, PartitionChecks, PartitionChecks),
    ) {
        debug_assert!(qa <= qb);
        let mut compfirst = true;
        let mut complast = true;
        for level in (0..=self.m).rev() {
            let shift = self.m - level;
            let first = qa >> shift;
            let last = qb >> shift;

            let first_checks = if first == last && compfirst && complast {
                PartitionChecks {
                    originals: CheckMode::Both,
                    replicas: Some(CheckMode::End),
                }
            } else if first == last && complast {
                // compfirst is false
                PartitionChecks {
                    originals: CheckMode::Start,
                    replicas: Some(CheckMode::None),
                }
            } else if compfirst {
                PartitionChecks {
                    originals: CheckMode::End,
                    replicas: Some(CheckMode::End),
                }
            } else {
                PartitionChecks {
                    originals: CheckMode::None,
                    replicas: Some(CheckMode::None),
                }
            };
            let last_checks = if complast {
                PartitionChecks {
                    originals: CheckMode::Start,
                    replicas: None,
                }
            } else {
                PartitionChecks {
                    originals: CheckMode::None,
                    replicas: None,
                }
            };
            let middle_checks = PartitionChecks {
                originals: CheckMode::None,
                replicas: None,
            };

            f(level, first, last, first_checks, last_checks, middle_checks);

            if first & 1 == 0 {
                compfirst = false;
            }
            if last & 1 == 1 {
                complast = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_assign(m: u32, a: u32, b: u32) -> Vec<(u32, u32, bool)> {
        let layout = Layout::new(m);
        let mut out = Vec::new();
        layout.assign(a, b, |l, j, o| out.push((l, j, o)));
        out
    }

    #[test]
    fn paper_figure4_assignment() {
        // Interval i = [1, 4] with m = 3 goes to P3,1 (original), P3,4 and
        // P2,1 (replicas) per Figure 4 of the paper.
        let mut got = collect_assign(3, 1, 4);
        got.sort_unstable();
        assert_eq!(got, vec![(2, 1, false), (3, 1, true), (3, 4, false)]);
    }

    #[test]
    fn point_interval_assigned_to_single_leaf() {
        assert_eq!(collect_assign(3, 5, 5), vec![(3, 5, true)]);
    }

    #[test]
    fn full_domain_goes_to_root() {
        assert_eq!(collect_assign(3, 0, 7), vec![(0, 0, true)]);
    }

    #[test]
    fn exactly_one_original() {
        for (a, b) in [(0u32, 0), (0, 7), (1, 6), (2, 5), (3, 3), (6, 7), (1, 2)] {
            let got = collect_assign(3, a, b);
            assert_eq!(
                got.iter().filter(|(_, _, o)| *o).count(),
                1,
                "interval [{a},{b}]"
            );
        }
    }

    #[test]
    fn assignment_covers_exactly_the_interval() {
        // The union of assigned partition ranges must be exactly [a, b]
        // and pairwise disjoint.
        let m = 5;
        let n = 1u32 << m;
        for a in 0..n {
            for b in a..n {
                let mut covered = vec![0u8; n as usize];
                for (l, j, _) in collect_assign(m, a, b) {
                    let w = 1u32 << (m - l);
                    for c in j * w..j * w + w {
                        covered[c as usize] += 1;
                    }
                }
                for c in 0..n {
                    let want = u8::from(c >= a && c <= b);
                    assert_eq!(covered[c as usize], want, "a={a} b={b} cell={c}");
                }
            }
        }
    }

    #[test]
    fn at_most_two_partitions_per_level() {
        let m = 6;
        let n = 1u32 << m;
        for a in (0..n).step_by(3) {
            for b in (a..n).step_by(5) {
                let mut per_level = vec![0u8; (m + 1) as usize];
                for (l, _, _) in collect_assign(m, a, b) {
                    per_level[l as usize] += 1;
                }
                assert!(per_level.iter().all(|&c| c <= 2), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn relevant_walk_visits_expected_partitions() {
        // Query q of Figure 4 spans cells [4, 7]: relevant partitions are
        // P3,4..P3,7, P2,2..P2,3, P1,1 and P0,0.
        let layout = Layout::new(3);
        let mut seen = Vec::new();
        layout.for_each_relevant_level(4, 7, |l, f, la, _, _, _| seen.push((l, f, la)));
        assert_eq!(seen, vec![(3, 4, 7), (2, 2, 3), (1, 1, 1), (0, 0, 0)]);
    }

    #[test]
    fn compfirst_clears_after_even_first() {
        // qa = 4 at level 3 -> first partition 4 (even) -> no start-side
        // comparisons at level 2 and above.
        let layout = Layout::new(3);
        let mut first_modes = Vec::new();
        layout.for_each_relevant_level(4, 7, |l, _, _, fc, _, _| first_modes.push((l, fc)));
        // level 3: first==4, last==7, compfirst&&complast, f != l
        assert_eq!(first_modes[0].1.originals, CheckMode::End);
        // level 2: compfirst cleared (4 even); last 7 odd cleared complast too
        assert_eq!(first_modes[1].1.originals, CheckMode::None);
        assert_eq!(first_modes[2].1.originals, CheckMode::None);
    }

    #[test]
    fn kind_tables_agree() {
        for (i, kind) in DivisionKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert_eq!(
                DivisionKind::of(!kind.is_replica(), kind.ends_inside()),
                kind
            );
        }
    }

    #[test]
    fn refine_mode_rules() {
        use CheckMode::*;
        use DivisionKind::*;
        assert_eq!(refine_mode(Both, OrigIn), Both);
        assert_eq!(refine_mode(Both, OrigAft), Start);
        assert_eq!(refine_mode(End, OrigAft), None);
        assert_eq!(refine_mode(End, ReplIn), End);
        assert_eq!(refine_mode(End, ReplAft), None);
        assert_eq!(refine_mode(None, OrigIn), None);
    }
}
