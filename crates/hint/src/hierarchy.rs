//! The one sparse HINT hierarchy, generic over what a division stores.
//!
//! A HINT is two decisions that do not depend on the payload: *which
//! `(level, partition, subdivision)` holds an interval* and *which
//! subdivisions a range query reads under which endpoint checks*. Both are
//! written here once; [`crate::Hint`] (`D` = interval columns), irHINT-perf
//! (`D` = a temporal inverted file) and irHINT-size (`D` = the interval
//! columns and an id-only inverted file, side by side) are instantiations.

use crate::domain::Domain;
use crate::layout::{refine_mode, CheckMode, DivisionKind, Layout};

/// Sparse storage of one hierarchy level: partitions sorted by their index
/// within the level, each holding its four divisions indexed by
/// [`DivisionKind::index`]. Only touched partitions are materialized, which
/// is both the skewness & sparsity optimization of the HINT paper and the
/// reason per-term HINTs (Section 3 of the temporal-IR paper) stay small.
#[derive(Debug, Clone)]
struct Level<D> {
    keys: Vec<u32>,
    parts: Vec<[D; 4]>,
}

impl<D: Default> Level<D> {
    fn get_or_insert(&mut self, j: u32) -> &mut [D; 4] {
        let i = match self.keys.binary_search(&j) {
            Ok(i) => i,
            Err(i) => {
                self.keys.insert(i, j);
                self.parts.insert(i, Default::default());
                i
            }
        };
        &mut self.parts[i]
    }
}

/// A HINT hierarchy over a [`Domain`] whose divisions store a `D`.
#[derive(Debug, Clone)]
pub struct Hierarchy<D> {
    domain: Domain,
    levels: Vec<Level<D>>,
}

impl<D> Hierarchy<D> {
    /// An empty hierarchy with `domain.m() + 1` levels.
    pub fn new(domain: Domain) -> Self {
        let levels = (0..=domain.m())
            .map(|_| Level {
                keys: Vec::new(),
                parts: Vec::new(),
            })
            .collect();
        Hierarchy { domain, levels }
    }

    /// The discretized domain this hierarchy covers.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Number of hierarchy levels (`m + 1`).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The partition indexes materialized at `level`, ascending (empty
    /// for out-of-range levels). Introspection for validators.
    pub fn level_keys(&self, level: u32) -> &[u32] {
        self.levels
            .get(level as usize)
            .map_or(&[], |l| l.keys.as_slice())
    }

    /// Number of materialized partitions over all levels.
    pub fn num_partitions(&self) -> usize {
        self.levels.iter().map(|l| l.keys.len()).sum()
    }

    /// Heap bytes of the sparse levels plus `payload(d)` for every
    /// materialized division: key and partition slots at their real
    /// capacity.
    pub fn size_bytes(&self, payload: impl Fn(&D) -> usize) -> usize {
        self.levels
            .iter()
            .map(|l| {
                l.keys.capacity() * 4
                    + l.parts.capacity() * std::mem::size_of::<[D; 4]>()
                    + l.parts.iter().flatten().map(&payload).sum::<usize>()
            })
            .sum()
    }

    /// Partition slots allocated beyond the materialized partitions
    /// (`Vec` growth slack), over all levels.
    pub fn spare_partitions(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.parts.capacity() - l.parts.len())
            .sum()
    }

    /// Visits every materialized division (empty ones included) as
    /// `f(division, level, j, kind)`, in `(level, j, kind)` order.
    /// Introspection for validators.
    pub fn for_each_division(&self, mut f: impl FnMut(&D, u32, u32, DivisionKind)) {
        for (level, lvl) in (0u32..).zip(&self.levels) {
            for (&j, part) in lvl.keys.iter().zip(&lvl.parts) {
                for kind in DivisionKind::ALL {
                    f(&part[kind.index()], level, j, kind);
                }
            }
        }
    }

    /// Every materialized division with its kind, mutably, in
    /// `(level, j, kind)` order (whole-index passes such as the post-build
    /// sort).
    pub fn divisions_mut(&mut self) -> impl Iterator<Item = (&mut D, DivisionKind)> {
        self.levels
            .iter_mut()
            .flat_map(|l| l.parts.iter_mut())
            .flat_map(|part| part.iter_mut().zip(DivisionKind::ALL))
    }

    /// The one placement rule: the minimal cover of `[st, end]`'s cells
    /// ([`Layout::assign`]), each partition classified as holding an
    /// original (the interval starts inside it) or a replica, ending
    /// inside or after it.
    fn for_each_assigned(
        domain: Domain,
        st: u64,
        end: u64,
        mut f: impl FnMut(u32, u32, DivisionKind),
    ) {
        let (a, b) = (domain.cell(st), domain.cell(end));
        Layout::new(domain.m()).assign(a, b, |level, j, original| {
            let ends_inside = b <= domain.partition_last_cell(level, j);
            f(level, j, DivisionKind::of(original, ends_inside));
        });
    }

    /// Calls `f(division, kind)` for every *already materialized* division
    /// that stores the interval `[st, end]` — the lookup-only placement
    /// deletes use.
    pub fn place_existing(&mut self, st: u64, end: u64, mut f: impl FnMut(&mut D, DivisionKind)) {
        let levels = &mut self.levels;
        Self::for_each_assigned(self.domain, st, end, |level, j, kind| {
            let lvl = &mut levels[level as usize];
            if let Ok(i) = lvl.keys.binary_search(&j) {
                f(&mut lvl.parts[i][kind.index()], kind);
            }
        });
    }

    /// The one query walk (Algorithm 2 of the HINT paper): bottom-up over
    /// the levels, the materialized partitions between the first and last
    /// relevant one, replicas only in the first relevant partition
    /// (duplicate avoidance), each division's check mode refined by what
    /// its kind already guarantees. Calls
    /// `f(division, level, j, kind, mode)`; empty divisions are handed out
    /// too, so `f` decides what empty means for its payload.
    pub fn for_each_relevant(
        &self,
        q_st: u64,
        q_end: u64,
        mut f: impl FnMut(&D, u32, u32, DivisionKind, CheckMode),
    ) {
        assert!(q_st <= q_end, "invalid query range");
        let qa = self.domain.cell(q_st);
        let qb = self.domain.cell(q_end);
        let layout = Layout::new(self.domain.m());
        layout.for_each_relevant_level(qa, qb, |level, first, last, fc, lc, mc| {
            let lvl = &self.levels[level as usize];
            debug_assert!(
                lvl.keys.windows(2).take(32).all(|w| w[0] < w[1]),
                "level {level} keys must be strictly ascending for binary search"
            );
            let lo = lvl.keys.partition_point(|&k| k < first);
            for (&j, part) in lvl.keys[lo..].iter().zip(&lvl.parts[lo..]) {
                if j > last {
                    break;
                }
                let checks = if j == first {
                    fc
                } else if j == last {
                    lc
                } else {
                    mc
                };
                for kind in DivisionKind::ALL {
                    let mode = if kind.is_replica() {
                        match checks.replicas {
                            Some(mode) => mode,
                            None => break,
                        }
                    } else {
                        checks.originals
                    };
                    f(&part[kind.index()], level, j, kind, refine_mode(mode, kind));
                }
            }
        });
    }
}

impl<D: Default> Hierarchy<D> {
    /// Calls `f(division, kind)` for every division that stores the
    /// interval `[st, end]`, materializing partitions as needed — the
    /// placement of a single insert.
    pub fn place(&mut self, st: u64, end: u64, mut f: impl FnMut(&mut D, DivisionKind)) {
        let levels = &mut self.levels;
        Self::for_each_assigned(self.domain, st, end, |level, j, kind| {
            let part = levels[level as usize].get_or_insert(j);
            f(&mut part[kind.index()], kind);
        });
    }

    /// Bulk placement: assigns every `(st, end)` of `spans`, sorts the
    /// assignments once by `(level, j, kind, item)`, and calls
    /// `f(division, kind, items)` once per touched division with the
    /// ascending positions (within `spans`) of the items it receives —
    /// `O(E log E)` for a build, and one merge per division for a batch
    /// insert, instead of one sorted-vector insertion per assignment.
    pub fn place_batch(
        &mut self,
        spans: impl IntoIterator<Item = (u64, u64)>,
        mut f: impl FnMut(&mut D, DivisionKind, &[u32]),
    ) {
        // One u64 sort key per assignment: level above the partition index
        // (`j < 2^30`, `Domain::MAX_M`) above two bits of kind.
        let mut assigned: Vec<(u64, u32)> = Vec::new();
        for (item, (st, end)) in (0u32..).zip(spans) {
            Self::for_each_assigned(self.domain, st, end, |level, j, kind| {
                let key = u64::from(level) << 32 | u64::from(j) << 2 | kind.index() as u64;
                assigned.push((key, item));
            });
        }
        assigned.sort_unstable();
        let mut items: Vec<u32> = Vec::new();
        for run in assigned.chunk_by(|a, b| a.0 == b.0) {
            let key = run[0].0;
            let kind = DivisionKind::ALL[(key & 3) as usize];
            // analyze:allow(unguarded-cast): the mask keeps the 30 bits of partition index the key was packed from
            let j = (key >> 2 & 0x3FFF_FFFF) as u32;
            items.clear();
            items.extend(run.iter().map(|&(_, item)| item));
            let part = self.levels[(key >> 32) as usize].get_or_insert(j);
            f(&mut part[kind.index()], kind, &items);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Entries = Vec<(u32, u64, u64)>;

    fn spans() -> Vec<(u64, u64)> {
        vec![(0, 3), (2, 9), (5, 5), (7, 15), (0, 15), (12, 13), (9, 10)]
    }

    #[test]
    fn batch_and_single_placement_agree() {
        let domain = Domain::new(0, 15, 4);
        let mut single: Hierarchy<Entries> = Hierarchy::new(domain);
        for (id, &(st, end)) in (0u32..).zip(&spans()) {
            single.place(st, end, |d, _| d.push((id, st, end)));
        }
        let mut batch: Hierarchy<Entries> = Hierarchy::new(domain);
        batch.place_batch(spans(), |d, _, items| {
            for &i in items {
                let (st, end) = spans()[i as usize];
                d.push((i, st, end));
            }
        });
        let dump = |h: &Hierarchy<Entries>| {
            let mut all = Vec::new();
            h.for_each_division(|d, level, j, kind| all.push((level, j, kind.index(), d.clone())));
            all
        };
        assert_eq!(dump(&single), dump(&batch));
        assert_eq!(single.num_partitions(), batch.num_partitions());
    }

    #[test]
    fn place_existing_never_materializes() {
        let mut h: Hierarchy<Entries> = Hierarchy::new(Domain::new(0, 15, 4));
        h.place_existing(2, 9, |_, _| panic!("nothing is materialized yet"));
        assert_eq!(h.num_partitions(), 0);
        let (mut placed, mut found) = (0, 0);
        h.place(2, 9, |d, _| {
            d.push((1, 2, 9));
            placed += 1;
        });
        h.place_existing(2, 9, |d, _| found += d.len());
        assert_eq!(found, placed);
    }
}
