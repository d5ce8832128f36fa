//! Discretization of a raw timestamp domain onto HINT's `[0, 2^m - 1]` grid.
//!
//! HINT assigns intervals to partitions of a hierarchically divided
//! *discrete* domain, but endpoint comparisons are always performed on the
//! raw `u64` timestamps. The mapping implemented here is monotone
//! (`t1 <= t2` implies `cell(t1) <= cell(t2)`), which is exactly the
//! property required for HINT's "no comparisons needed in intermediate
//! partitions" guarantee to carry over to raw-endpoint comparisons.
//!
//! [`slice_of`] is the flat counterpart: the equal-width cells of the
//! Slicing technique over the same raw domain.

/// A discretized time domain: raw timestamps in `[min, max]` are mapped to
/// cells `0..2^m` by subtracting `min` and right-shifting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Domain {
    min: u64,
    max: u64,
    m: u32,
    shift: u32,
}

impl Domain {
    /// Maximum supported number of levels minus one; cells are `u32`.
    pub const MAX_M: u32 = 30;

    /// Creates a domain covering raw timestamps `[min, max]` with `2^m`
    /// cells at the bottom level.
    ///
    /// # Panics
    /// Panics if `min > max` or `m > Domain::MAX_M`.
    pub fn new(min: u64, max: u64, m: u32) -> Self {
        assert!(min <= max, "empty domain: min {min} > max {max}");
        assert!(m <= Self::MAX_M, "m={m} exceeds MAX_M={}", Self::MAX_M);
        let span = max - min; // last raw offset in the domain
        let bits = 64 - span.leading_zeros(); // bits needed to address `span`
        let shift = bits.saturating_sub(m);
        Domain { min, max, m, shift }
    }

    /// The number of levels is `m + 1` (levels `0..=m`).
    #[inline]
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Smallest raw timestamp covered.
    #[inline]
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest raw timestamp covered.
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Maps a raw timestamp to its bottom-level cell, clamping timestamps
    /// outside `[min, max]` to the domain borders (queries may legitimately
    /// extend past the indexed span).
    #[inline]
    pub fn cell(&self, t: u64) -> u32 {
        let t = t.clamp(self.min, self.max);
        // analyze:allow(unguarded-cast): shift is chosen at build time so the cell count fits u32
        ((t - self.min) >> self.shift) as u32
    }

    /// Number of cells at the bottom level.
    #[inline]
    pub fn num_cells(&self) -> u32 {
        1u32 << self.m
    }

    /// Last bottom-level cell covered by partition `j` of level `level`.
    #[inline]
    pub fn partition_last_cell(&self, level: u32, j: u32) -> u32 {
        debug_assert!(level <= self.m);
        let width = 1u32 << (self.m - level);
        j * width + (width - 1)
    }

    /// First bottom-level cell covered by partition `j` of level `level`.
    #[inline]
    pub fn partition_first_cell(&self, level: u32, j: u32) -> u32 {
        debug_assert!(level <= self.m);
        j << (self.m - level)
    }
}

/// The equal-width slicing policy, written once: index of the cell (of `k`
/// over the raw domain `[min, max]`) that holds timestamp `t`, clamped to
/// the domain. The sliced postings lists of `tir-core` cut their slices
/// with it.
#[inline]
pub fn slice_of(t: u64, min: u64, max: u64, k: u32) -> u32 {
    let t = t.clamp(min, max);
    let span = (max - min) as u128 + 1;
    // analyze:allow(unguarded-cast): quotient is < k, and k is already a u32
    (((t - min) as u128 * k as u128) / span) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_when_domain_fits() {
        let d = Domain::new(0, 7, 3);
        for t in 0..=7 {
            assert_eq!(d.cell(t), t as u32);
        }
        assert_eq!(d.num_cells(), 8);
    }

    #[test]
    fn clamps_out_of_range() {
        let d = Domain::new(10, 17, 3);
        assert_eq!(d.cell(0), 0);
        assert_eq!(d.cell(10), 0);
        assert_eq!(d.cell(17), 7);
        assert_eq!(d.cell(1000), 7);
    }

    #[test]
    fn coarsens_large_domains() {
        let d = Domain::new(0, 1023, 3);
        assert_eq!(d.cell(0), 0);
        assert_eq!(d.cell(127), 0);
        assert_eq!(d.cell(128), 1);
        assert_eq!(d.cell(1023), 7);
    }

    #[test]
    fn monotone() {
        let d = Domain::new(3, 1_000_000, 10);
        let mut prev = 0;
        for t in (3..=1_000_000).step_by(997) {
            let c = d.cell(t);
            assert!(c >= prev);
            assert!(c < d.num_cells());
            prev = c;
        }
    }

    #[test]
    fn partition_cells() {
        let d = Domain::new(0, 15, 4);
        assert_eq!(d.partition_first_cell(4, 5), 5);
        assert_eq!(d.partition_last_cell(4, 5), 5);
        assert_eq!(d.partition_first_cell(2, 1), 4);
        assert_eq!(d.partition_last_cell(2, 1), 7);
        assert_eq!(d.partition_first_cell(0, 0), 0);
        assert_eq!(d.partition_last_cell(0, 0), 15);
    }

    #[test]
    fn single_point_domain() {
        let d = Domain::new(42, 42, 0);
        assert_eq!(d.cell(42), 0);
        assert_eq!(d.num_cells(), 1);
    }

    #[test]
    fn slices_are_equal_width_and_clamped() {
        assert_eq!(slice_of(0, 0, 99, 4), 0);
        assert_eq!(slice_of(24, 0, 99, 4), 0);
        assert_eq!(slice_of(25, 0, 99, 4), 1);
        assert_eq!(slice_of(99, 0, 99, 4), 3);
        assert_eq!(slice_of(1000, 0, 99, 4), 3);
        assert_eq!(slice_of(7, 10, 10, 3), 0);
    }

    #[test]
    #[should_panic]
    fn rejects_inverted_domain() {
        let _ = Domain::new(5, 4, 3);
    }
}
