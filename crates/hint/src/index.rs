//! The HINT interval index: a [`Hierarchy`] whose divisions store interval
//! columns, with bottom-up range queries.

use crate::domain::Domain;
use crate::hierarchy::Hierarchy;
use crate::layout::CheckMode;
use crate::partition::{Division, DivisionOrder, DivisionView, TOMBSTONE};
use crate::IntervalRecord;

/// Build-time configuration of a [`Hint`] index. Every index keeps only
/// the endpoint arrays a query may compare (the storage optimization).
#[derive(Debug, Clone, Copy, Default)]
pub struct HintConfig {
    /// Number of levels minus one; `None` selects `m` with the cost model
    /// of [`crate::cost::choose_m`].
    pub m: Option<u32>,
    /// Ordering of entries inside subdivisions.
    pub order: DivisionOrder,
}

impl HintConfig {
    /// Configuration with a fixed `m`.
    pub fn with_m(m: u32) -> Self {
        HintConfig {
            m: Some(m),
            ..Default::default()
        }
    }
}

/// The hierarchical interval index of Christodoulou et al., as summarized
/// in Section 2.3 of the temporal-IR paper.
///
/// ```
/// use tir_hint::{Hint, HintConfig, IntervalRecord};
///
/// let recs = vec![
///     IntervalRecord { id: 1, st: 2, end: 9 },
///     IntervalRecord { id: 2, st: 12, end: 14 },
/// ];
/// let hint = Hint::build(&recs, HintConfig::with_m(4));
/// let mut hits = hint.range_query(8, 13);
/// hits.sort_unstable();
/// assert_eq!(hits, vec![1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Hint {
    tree: Hierarchy<Division>,
    order: DivisionOrder,
    live: usize,
}

impl Hint {
    /// Builds the index over `records`, deriving the domain from the data.
    ///
    /// An empty input produces a valid index over the unit domain.
    pub fn build(records: &[IntervalRecord], config: HintConfig) -> Self {
        let (min, max) = records.iter().fold((u64::MAX, 0u64), |(lo, hi), r| {
            (lo.min(r.st), hi.max(r.end))
        });
        let (min, max) = if records.is_empty() {
            (0, 0)
        } else {
            (min, max)
        };
        Self::build_with_domain(records, min, max, config)
    }

    /// Builds the index over `records` with an explicit raw domain.
    pub fn build_with_domain(
        records: &[IntervalRecord],
        domain_min: u64,
        domain_max: u64,
        config: HintConfig,
    ) -> Self {
        let m = config
            .m
            .unwrap_or_else(|| crate::cost::choose_m(records, domain_min, domain_max));
        let domain = Domain::new(domain_min, domain_max.max(domain_min), m);
        for r in records {
            assert!(r.id & TOMBSTONE == 0, "ids must be < 2^31");
            assert!(r.st <= r.end, "invalid interval");
        }
        // Bulk load: every division receives its records in input order,
        // then is sorted once.
        let mut tree: Hierarchy<Division> = Hierarchy::new(domain);
        let spans = records.iter().map(|r| (r.st, r.end));
        tree.place_batch(spans, |d, kind, items| {
            for r in items.iter().map(|&i| &records[i as usize]) {
                d.push(r.id, r.st, r.end, kind);
            }
        });
        for (d, kind) in tree.divisions_mut() {
            d.sort(config.order, kind);
        }
        Hint {
            tree,
            order: config.order,
            live: records.len(),
        }
    }

    /// The discretized domain this index covers.
    pub fn domain(&self) -> Domain {
        self.tree.domain()
    }

    /// Number of hierarchy levels (`m + 1`).
    pub fn num_levels(&self) -> usize {
        self.tree.num_levels()
    }

    /// The ordering configured for subdivision entries.
    pub fn division_order(&self) -> DivisionOrder {
        self.order
    }

    /// The partition indexes materialized at `level`, ascending (empty
    /// for out-of-range levels). Introspection for validators.
    pub fn level_keys(&self, level: u32) -> &[u32] {
        self.tree.level_keys(level)
    }

    /// Visits every materialized division (empty ones included) with its
    /// view and tombstone count, in `(level, j, kind)` order.
    /// Introspection for validators and serializers.
    pub fn for_each_division(&self, mut f: impl FnMut(DivisionView<'_>, usize)) {
        self.tree
            .for_each_division(|d, level, j, kind| f(d.view(kind, level, j), d.dead()));
    }

    /// Deliberately desynchronizes a division's `dead` counter from its
    /// tombstone bits — used by `tir-check`'s property tests to prove the
    /// validator notices. Picks the first non-empty division.
    #[cfg(feature = "testing")]
    pub fn testing_corrupt_dead_counter(&mut self) {
        if let Some((d, _)) = self.tree.divisions_mut().find(|(d, _)| !d.is_empty()) {
            d.testing_corrupt_dead_counter();
        }
    }

    /// Number of live (non-deleted) indexed intervals.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live interval is indexed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of materialized (non-empty) partitions over all levels.
    pub fn num_partitions(&self) -> usize {
        self.tree.num_partitions()
    }

    /// Total number of stored entries, counting replication.
    pub fn num_entries(&self) -> usize {
        let mut n = 0;
        self.tree.for_each_division(|d, _, _, _| n += d.len());
        n
    }

    /// Approximate heap footprint in bytes. Spare partition slots are left
    /// out, as this index has always reported (the committed per-term HINT
    /// sizes and the gated `index_bytes` are in these terms; ROADMAP item 8
    /// records what the slack is worth).
    pub fn size_bytes(&self) -> usize {
        self.tree.size_bytes(Division::size_bytes) + std::mem::size_of::<Self>()
            - self.tree.spare_partitions() * std::mem::size_of::<[Division; 4]>()
    }

    /// Inserts one interval, maintaining subdivision order incrementally.
    pub fn insert(&mut self, r: &IntervalRecord) {
        assert!(r.id & TOMBSTONE == 0, "ids must be < 2^31");
        assert!(r.st <= r.end, "invalid interval");
        let order = self.order;
        self.tree.place(r.st, r.end, |d, kind| {
            d.insert(r.id, r.st, r.end, order, kind)
        });
        self.live += 1;
    }

    /// Logically deletes the interval (tombstone on every stored entry).
    /// Returns true if the object was found in its original division.
    ///
    /// The caller must pass the same record that was inserted; the index
    /// uses its endpoints to locate the partitions that store it.
    pub fn delete(&mut self, r: &IntervalRecord) -> bool {
        let mut found = false;
        self.tree.place_existing(r.st, r.end, |d, kind| {
            let hit = d.tombstone(r.id);
            if !kind.is_replica() {
                found = hit;
            }
        });
        if found {
            self.live -= 1;
        }
        found
    }

    /// Returns the ids of all live intervals overlapping `[q_st, q_end]`
    /// (closed, inclusive overlap). Each result appears exactly once.
    pub fn range_query(&self, q_st: u64, q_end: u64) -> Vec<u32> {
        let mut out = Vec::new();
        self.range_query_into(q_st, q_end, &mut out);
        out
    }

    /// As [`Self::range_query`] but reusing an output buffer.
    pub fn range_query_into(&self, q_st: u64, q_end: u64, out: &mut Vec<u32>) {
        let order = self.order;
        self.tree
            .for_each_relevant(q_st, q_end, |d, _level, _j, kind, mode| {
                d.query_into(mode, kind, order, q_st, q_end, out)
            });
    }

    /// Visits every non-empty relevant division of the query together with
    /// the endpoint checks it requires.
    ///
    /// This is the extension hook used by the composite indexes of the
    /// paper: Algorithm 3 interleaves candidate-membership tests with the
    /// endpoint checks, and Algorithm 4 merge-intersects id-sorted division
    /// views while ignoring the checks entirely.
    pub fn visit_relevant<F>(&self, q_st: u64, q_end: u64, mut f: F)
    where
        F: FnMut(DivisionView<'_>, CheckMode),
    {
        self.tree
            .for_each_relevant(q_st, q_end, |d, level, j, kind, mode| {
                if !d.is_empty() {
                    f(d.view(kind, level, j), mode);
                }
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force_overlap;

    fn sample() -> Vec<IntervalRecord> {
        vec![
            IntervalRecord {
                id: 0,
                st: 0,
                end: 3,
            },
            IntervalRecord {
                id: 1,
                st: 2,
                end: 9,
            },
            IntervalRecord {
                id: 2,
                st: 5,
                end: 5,
            },
            IntervalRecord {
                id: 3,
                st: 7,
                end: 15,
            },
            IntervalRecord {
                id: 4,
                st: 0,
                end: 15,
            },
            IntervalRecord {
                id: 5,
                st: 12,
                end: 13,
            },
            IntervalRecord {
                id: 6,
                st: 9,
                end: 10,
            },
        ]
    }

    fn assert_matches_oracle(hint: &Hint, recs: &[IntervalRecord], q_st: u64, q_end: u64) {
        let mut got = hint.range_query(q_st, q_end);
        got.sort_unstable();
        let want = brute_force_overlap(recs, q_st, q_end);
        assert_eq!(got, want, "query [{q_st},{q_end}]");
    }

    #[test]
    fn matches_oracle_exhaustively_small() {
        for m in [0u32, 1, 2, 3, 4] {
            let recs = sample();
            let hint = Hint::build(&recs, HintConfig::with_m(m));
            for q_st in 0..=16u64 {
                for q_end in q_st..=16 {
                    assert_matches_oracle(&hint, &recs, q_st, q_end);
                }
            }
        }
    }

    #[test]
    fn matches_oracle_all_orders() {
        for order in [DivisionOrder::Beneficial, DivisionOrder::ById] {
            let recs = sample();
            let cfg = HintConfig { m: Some(3), order };
            let hint = Hint::build(&recs, cfg);
            for q_st in 0..=16u64 {
                for q_end in q_st..=16 {
                    assert_matches_oracle(&hint, &recs, q_st, q_end);
                }
            }
        }
    }

    #[test]
    fn no_duplicates_ever() {
        let recs = sample();
        let hint = Hint::build(&recs, HintConfig::with_m(4));
        for q_st in 0..=16u64 {
            for q_end in q_st..=16 {
                let mut got = hint.range_query(q_st, q_end);
                let n = got.len();
                got.sort_unstable();
                got.dedup();
                assert_eq!(n, got.len(), "duplicates for [{q_st},{q_end}]");
            }
        }
    }

    #[test]
    fn incremental_insert_equals_bulk_build() {
        let recs = sample();
        let bulk = Hint::build(&recs, HintConfig::with_m(3));
        let mut inc = Hint::build_with_domain(&[], 0, 15, HintConfig::with_m(3));
        for r in &recs {
            inc.insert(r);
        }
        for q_st in 0..=16u64 {
            for q_end in q_st..=16 {
                let mut a = bulk.range_query(q_st, q_end);
                let mut b = inc.range_query(q_st, q_end);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn delete_hides_interval() {
        let recs = sample();
        let mut hint = Hint::build(&recs, HintConfig::with_m(3));
        assert!(hint.delete(&recs[4]));
        assert!(!hint.delete(&recs[4]), "double delete");
        assert_eq!(hint.len(), recs.len() - 1);
        for q_st in 0..=16u64 {
            for q_end in q_st..=16 {
                let got = hint.range_query(q_st, q_end);
                assert!(!got.contains(&4), "deleted id resurfaced");
                let want = brute_force_overlap(&recs[..4], q_st, q_end)
                    .into_iter()
                    .chain(brute_force_overlap(&recs[5..], q_st, q_end))
                    .collect::<std::collections::BTreeSet<_>>();
                let got: std::collections::BTreeSet<_> = got.into_iter().collect();
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn queries_clamp_outside_domain() {
        let recs = sample();
        let hint = Hint::build(&recs, HintConfig::with_m(3));
        let mut got = hint.range_query(0, u64::MAX);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5, 6]);
        assert!(hint.range_query(1000, 2000).is_empty() || !recs.is_empty());
    }

    #[test]
    fn empty_index_is_fine() {
        let hint = Hint::build(&[], HintConfig::default());
        assert!(hint.is_empty());
        assert!(hint.range_query(0, 100).is_empty());
    }

    #[test]
    fn size_and_counters_plausible() {
        let recs = sample();
        let hint = Hint::build(&recs, HintConfig::with_m(3));
        assert_eq!(hint.len(), recs.len());
        assert!(hint.num_entries() >= recs.len());
        assert!(hint.size_bytes() > 0);
        assert!(hint.num_partitions() > 0);
    }
}
