//! A 1D-grid interval index: the structure underlying the Slicing
//! technique of Berberich et al. and the classic flat baseline HINT is
//! compared against.
//!
//! The domain is divided into `k` equal-width cells; every interval is
//! replicated into each cell it overlaps. Duplicate results are avoided
//! with the *reference value* method of Dittrich & Seeger: an interval is
//! reported only from the cell containing `max(i.st, q.st)`.

use crate::IntervalRecord;

/// The equal-width slicing policy, written once: index of the cell (of `k`
/// over the raw domain `[min, max]`) that holds timestamp `t`, clamped to
/// the domain. Shared by [`Grid1D`] and the sliced postings lists of
/// `tir-core`.
#[inline]
pub fn slice_of(t: u64, min: u64, max: u64, k: u32) -> u32 {
    let t = t.clamp(min, max);
    let span = (max - min) as u128 + 1;
    // analyze:allow(unguarded-cast): quotient is < k, and k is already a u32
    (((t - min) as u128 * k as u128) / span) as u32
}

/// Flat 1D-grid over `[min, max]` with `k` cells.
#[derive(Debug, Clone)]
pub struct Grid1D {
    min: u64,
    max: u64,
    k: u32,
    cells: Vec<Vec<IntervalRecord>>,
    live: usize,
}

impl Grid1D {
    /// Builds a grid with `k >= 1` cells over the raw domain of `records`
    /// (or `[0, 0]` when empty).
    pub fn build(records: &[IntervalRecord], k: u32) -> Self {
        let (min, max) = records.iter().fold((u64::MAX, 0u64), |(lo, hi), r| {
            (lo.min(r.st), hi.max(r.end))
        });
        let (min, max) = if records.is_empty() {
            (0, 0)
        } else {
            (min, max)
        };
        Self::build_with_domain(records, min, max, k)
    }

    /// Builds a grid with an explicit domain.
    pub fn build_with_domain(records: &[IntervalRecord], min: u64, max: u64, k: u32) -> Self {
        assert!(k >= 1);
        let mut grid = Grid1D {
            min,
            max: max.max(min),
            k,
            cells: vec![Vec::new(); k as usize],
            live: 0,
        };
        for r in records {
            grid.insert(r);
        }
        grid
    }

    /// Cell index of a raw timestamp (clamped to the domain).
    #[inline]
    pub fn cell_of(&self, t: u64) -> u32 {
        slice_of(t, self.min, self.max, self.k)
    }

    /// Inserts an interval into every cell it overlaps.
    pub fn insert(&mut self, r: &IntervalRecord) {
        assert!(r.st <= r.end);
        let lo = self.cell_of(r.st);
        let hi = self.cell_of(r.end);
        for c in lo..=hi {
            self.cells[c as usize].push(*r);
        }
        self.live += 1;
    }

    /// Logically deletes an interval by removing all its copies.
    pub fn delete(&mut self, r: &IntervalRecord) -> bool {
        let lo = self.cell_of(r.st);
        let hi = self.cell_of(r.end);
        let mut found = false;
        for c in lo..=hi {
            let cell = &mut self.cells[c as usize];
            if let Some(pos) = cell.iter().position(|x| x.id == r.id) {
                cell.swap_remove(pos);
                found = true;
            }
        }
        if found {
            self.live -= 1;
        }
        found
    }

    /// Number of live intervals.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no interval is stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total stored entries counting replication.
    pub fn num_entries(&self) -> usize {
        self.cells.iter().map(Vec::len).sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.cells
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<IntervalRecord>())
            .sum::<usize>()
            + self.cells.capacity() * std::mem::size_of::<Vec<IntervalRecord>>()
    }

    /// The raw contents of one cell (replicated entries included).
    pub fn cell_contents(&self, c: u32) -> &[IntervalRecord] {
        self.cells.get(c as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of grid cells.
    pub fn num_cells(&self) -> u32 {
        self.k
    }

    /// All ids overlapping `[q_st, q_end]`, duplicate-free via the
    /// reference value method.
    pub fn range_query(&self, q_st: u64, q_end: u64) -> Vec<u32> {
        assert!(q_st <= q_end);
        let mut out = Vec::new();
        let lo = self.cell_of(q_st);
        let hi = self.cell_of(q_end);
        for c in lo..=hi {
            for r in &self.cells[c as usize] {
                if r.st <= q_end && r.end >= q_st {
                    // Reference value: report from the cell holding
                    // max(i.st, q.st) only.
                    let refv = r.st.max(q_st);
                    if self.cell_of(refv) == c {
                        out.push(r.id);
                    }
                }
            }
        }
        out
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
                end: 30,
            },
            IntervalRecord {
                id: 1,
                st: 5,
                end: 6,
            },
            IntervalRecord {
                id: 2,
                st: 10,
                end: 20,
            },
            IntervalRecord {
                id: 3,
                st: 29,
                end: 30,
            },
            IntervalRecord {
                id: 4,
                st: 15,
                end: 15,
            },
        ]
    }

    #[test]
    fn matches_oracle_for_all_k() {
        let recs = sample();
        for k in [1u32, 2, 3, 7, 31] {
            let g = Grid1D::build(&recs, k);
            for q_st in 0..=31u64 {
                for q_end in q_st..=31 {
                    let mut got = g.range_query(q_st, q_end);
                    let n = got.len();
                    got.sort_unstable();
                    got.dedup();
                    assert_eq!(n, got.len(), "duplicates k={k} [{q_st},{q_end}]");
                    assert_eq!(got, brute_force_overlap(&recs, q_st, q_end), "k={k}");
                }
            }
        }
    }

    #[test]
    fn delete_removes_all_copies() {
        let recs = sample();
        let mut g = Grid1D::build(&recs, 8);
        assert!(g.delete(&recs[0]));
        assert!(!g.delete(&recs[0]));
        assert!(!g.range_query(0, 31).contains(&0));
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn replication_grows_with_k() {
        let recs = sample();
        let g1 = Grid1D::build(&recs, 1);
        let g16 = Grid1D::build(&recs, 16);
        assert!(g16.num_entries() > g1.num_entries());
        assert_eq!(g1.num_entries(), recs.len());
    }
}
