//! Sorted-set intersection kernels for id-sorted postings.
//!
//! All kernels operate on `u32` id slices sorted ascending by their *raw*
//! id (tombstone bit masked out). The candidate side is always clean
//! (query-time sets never contain tombstones); the postings side may
//! contain logically deleted entries, which are skipped.

/// Tombstone marker shared with the interval indexes: deleted postings
/// have this bit set.
pub const TOMBSTONE: u32 = 1 << 31;

/// True if the stored id is live (not tombstoned).
#[inline]
pub fn live(id: u32) -> bool {
    id & TOMBSTONE == 0
}

/// The id with the tombstone bit masked out.
#[inline]
pub fn raw(id: u32) -> u32 {
    id & !TOMBSTONE
}

/// Debug helper: checks that a slice is sorted ascending by raw id.
pub fn is_sorted_by_raw(ids: &[u32]) -> bool {
    ids.windows(2).all(|w| raw(w[0]) <= raw(w[1]))
}

/// Shared O(n) sortedness precondition for every kernel, compiled out in
/// release builds: `debug_assert_sorted!(xs)` for clean candidate sets,
/// `debug_assert_sorted!(xs, raw)` for postings sorted by raw id
/// (tombstone bit ignored).
#[macro_export]
macro_rules! debug_assert_sorted {
    ($ids:expr) => {
        debug_assert!(
            $ids.windows(2).all(|w| w[0] <= w[1]),
            "candidate slice not sorted ascending"
        )
    };
    ($ids:expr, raw) => {
        debug_assert!(
            $crate::kernels::is_sorted_by_raw($ids),
            "postings slice not sorted by raw id"
        )
    };
}

/// Classic merge (zipper) intersection: appends every candidate that has a
/// live posting to `out`. Linear in `cands.len() + postings.len()`.
#[inline]
pub fn intersect_merge_into(cands: &[u32], postings: &[u32], out: &mut Vec<u32>) {
    debug_assert_sorted!(cands);
    debug_assert_sorted!(postings, raw);
    let (mut i, mut j) = (0, 0);
    while i < cands.len() && j < postings.len() {
        let c = cands[i];
        let p = raw(postings[j]);
        match c.cmp(&p) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if live(postings[j]) {
                    out.push(c);
                }
                i += 1;
                j += 1;
            }
        }
    }
}

/// Galloping (exponential-search) intersection, efficient when `cands` is
/// much smaller than `postings`: `O(|cands| * log |postings|)`.
#[inline]
pub fn intersect_gallop_into(cands: &[u32], postings: &[u32], out: &mut Vec<u32>) {
    debug_assert_sorted!(cands);
    debug_assert_sorted!(postings, raw);
    let mut lo = 0usize;
    for &c in cands {
        // Gallop to find the first posting with raw id >= c.
        let mut step = 1usize;
        let mut hi = lo;
        while hi < postings.len() && raw(postings[hi]) < c {
            lo = hi + 1;
            hi = lo + step;
            step <<= 1;
        }
        let hi = hi.min(postings.len());
        let idx = lo + postings[lo..hi].partition_point(|&p| raw(p) < c);
        if idx < postings.len() && raw(postings[idx]) == c {
            if live(postings[idx]) {
                out.push(c);
            }
            lo = idx + 1;
        } else {
            lo = idx;
        }
        if lo >= postings.len() {
            break;
        }
    }
}

/// Reversed gallop for the opposite skew — postings much smaller than
/// the candidate set: iterates the postings (skipping tombstones) and
/// gallops through `cands`. `O(|postings| * log |cands|)` where a merge
/// would scan `|cands| + |postings|`; at a 40:1 cands:postings ratio
/// that is ~3x less work.
#[inline]
pub fn intersect_gallop_rev_into(cands: &[u32], postings: &[u32], out: &mut Vec<u32>) {
    debug_assert_sorted!(cands);
    debug_assert_sorted!(postings, raw);
    let mut lo = 0usize;
    for &p in postings {
        if !live(p) {
            continue;
        }
        let c = raw(p);
        // Gallop to find the first candidate >= c.
        let mut step = 1usize;
        let mut hi = lo;
        while hi < cands.len() && cands[hi] < c {
            lo = hi + 1;
            hi = lo + step;
            step <<= 1;
        }
        let hi = hi.min(cands.len());
        let idx = lo + cands[lo..hi].partition_point(|&x| x < c);
        if idx < cands.len() && cands[idx] == c {
            out.push(c);
            lo = idx + 1;
        } else {
            lo = idx;
        }
        if lo >= cands.len() {
            break;
        }
    }
}

/// Ratio above which [`intersect_adaptive_into`] switches from merging to
/// galloping. Retuned 16 → 8 on the vectorized-kernel density grid: the
/// 8-lane gallop probe already beats both merge forms at an 8:1
/// postings:cands ratio ((1‰,8‰): 8.0µs vs 10.8µs scalar merge; (8‰,64‰):
/// 106µs vs 133µs vector merge) and ties at 4:1, where the old scalar
/// crossover sat near 16:1 (BENCH_kernels.json).
pub const GALLOP_RATIO: usize = 8;

/// Picks merge or gallop (either direction) based on the size ratio of
/// the inputs.
#[inline]
pub fn intersect_adaptive_into(cands: &[u32], postings: &[u32], out: &mut Vec<u32>) {
    if cands.len().saturating_mul(GALLOP_RATIO) < postings.len() {
        intersect_gallop_into(cands, postings, out);
    } else if postings.len().saturating_mul(GALLOP_RATIO) < cands.len() {
        intersect_gallop_rev_into(cands, postings, out);
    } else {
        intersect_merge_into(cands, postings, out);
    }
}

/// Marks `hits[i] = true` for every candidate `cands[i]` that has a live
/// posting. Used when a candidate may occur in several postings runs (e.g.
/// replicated slice sub-lists) and must still be emitted once.
#[inline]
pub fn mark_hits(cands: &[u32], postings: &[u32], hits: &mut [bool]) {
    debug_assert_eq!(cands.len(), hits.len());
    debug_assert_sorted!(cands);
    debug_assert_sorted!(postings, raw);
    let (mut i, mut j) = (0, 0);
    while i < cands.len() && j < postings.len() {
        let c = cands[i];
        let p = raw(postings[j]);
        match c.cmp(&p) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if live(postings[j]) {
                    hits[i] = true;
                }
                i += 1;
                j += 1;
            }
        }
    }
}

/// Galloping variant of [`mark_hits`] for candidate sets much smaller
/// than the postings run: per candidate, an exponential search through
/// `postings` replaces the zipper's element-by-element scan —
/// `O(|cands| * log |postings|)` against `O(|cands| + |postings|)`. On
/// the slicing benchmark this is the dominant mark shape (slice
/// sub-lists run to tens of thousands of ids against a few hundred
/// surviving candidates).
#[inline]
pub fn mark_hits_gallop(cands: &[u32], postings: &[u32], hits: &mut [bool]) {
    debug_assert_eq!(cands.len(), hits.len());
    debug_assert_sorted!(cands);
    debug_assert_sorted!(postings, raw);
    let mut lo = 0usize;
    for (i, &c) in cands.iter().enumerate() {
        let mut step = 1usize;
        let mut hi = lo;
        while hi < postings.len() && raw(postings[hi]) < c {
            lo = hi + 1;
            hi = lo + step;
            step <<= 1;
        }
        let hi = hi.min(postings.len());
        let idx = lo + postings[lo..hi].partition_point(|&p| raw(p) < c);
        if idx < postings.len() && raw(postings[idx]) == c {
            if live(postings[idx]) {
                hits[i] = true;
            }
            lo = idx + 1;
        } else {
            lo = idx;
        }
        if lo >= postings.len() {
            break;
        }
    }
}

/// Reversed-gallop variant of [`mark_hits`] for postings much smaller
/// than the candidate set: iterates the live postings and gallops
/// through `cands`, marking matches by index —
/// `O(|postings| * log |cands|)` against the merge's full
/// `O(|cands| + |postings|)` scan. Same marking semantics: per call,
/// the first occurrence of each matching candidate value is marked per
/// matching posting.
#[inline]
pub fn mark_hits_gallop_rev(cands: &[u32], postings: &[u32], hits: &mut [bool]) {
    debug_assert_eq!(cands.len(), hits.len());
    debug_assert_sorted!(cands);
    debug_assert_sorted!(postings, raw);
    let mut lo = 0usize;
    for &p in postings {
        if !live(p) {
            continue;
        }
        let c = raw(p);
        let mut step = 1usize;
        let mut hi = lo;
        while hi < cands.len() && cands[hi] < c {
            lo = hi + 1;
            hi = lo + step;
            step <<= 1;
        }
        let hi = hi.min(cands.len());
        let idx = lo + cands[lo..hi].partition_point(|&x| x < c);
        if idx < cands.len() && cands[idx] == c {
            hits[idx] = true;
            lo = idx + 1;
        } else {
            lo = idx;
        }
        if lo >= cands.len() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_all(cands: &[u32], postings: &[u32], want: &[u32]) {
        for f in [
            intersect_merge_into as fn(&[u32], &[u32], &mut Vec<u32>),
            intersect_gallop_into,
            intersect_gallop_rev_into,
            intersect_adaptive_into,
        ] {
            let mut out = Vec::new();
            f(cands, postings, &mut out);
            assert_eq!(out, want);
        }
    }

    #[test]
    fn basic_intersection() {
        check_all(&[1, 3, 5, 7], &[2, 3, 4, 7, 9], &[3, 7]);
        check_all(&[], &[1, 2], &[]);
        check_all(&[1, 2], &[], &[]);
        check_all(&[5], &[5], &[5]);
    }

    #[test]
    fn skips_tombstones() {
        let postings = [1, 2 | TOMBSTONE, 3, 7 | TOMBSTONE];
        check_all(&[1, 2, 3, 7], &postings, &[1, 3]);
    }

    #[test]
    fn reversed_gallop_handles_large_candidate_sets() {
        let cands: Vec<u32> = (0..10_000).map(|i| i * 3).collect();
        let postings = [0u32, 2999 * 3, (5000 * 3) | TOMBSTONE, 9999 * 3, 30_001];
        let mut out = Vec::new();
        intersect_gallop_rev_into(&cands, &postings, &mut out);
        assert_eq!(out, vec![0, 2999 * 3, 9999 * 3]);
        // The adaptive dispatch picks it at this skew and must agree.
        let mut adaptive = Vec::new();
        intersect_adaptive_into(&cands, &postings, &mut adaptive);
        assert_eq!(adaptive, out);
    }

    #[test]
    fn gallop_handles_large_gaps() {
        let postings: Vec<u32> = (0..10_000).map(|i| i * 3).collect();
        let cands = [0u32, 2999 * 3, 9999 * 3, 30_001];
        let mut out = Vec::new();
        intersect_gallop_into(&cands, &postings, &mut out);
        assert_eq!(out, vec![0, 2999 * 3, 9999 * 3]);
    }
}
