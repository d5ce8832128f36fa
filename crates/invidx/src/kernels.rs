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

/// Classic merge (zipper) intersection: calls `hit(i, cands[i])` for
/// every candidate that has a live posting, in candidate order. Linear in
/// `cands.len() + postings.len()`.
#[inline]
pub fn merge_matches(cands: &[u32], postings: &[u32], mut hit: impl FnMut(usize, u32)) {
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
                    hit(i, c);
                }
                i += 1;
                j += 1;
            }
        }
    }
}

/// Galloping (exponential-search) intersection, efficient when `cands` is
/// much smaller than `postings`: per candidate, an exponential search
/// through `postings` — `O(|cands| * log |postings|)`. Same sink as
/// [`merge_matches`].
#[inline]
pub fn gallop_matches(cands: &[u32], postings: &[u32], mut hit: impl FnMut(usize, u32)) {
    debug_assert_sorted!(cands);
    debug_assert_sorted!(postings, raw);
    let mut lo = 0usize;
    for (i, &c) in cands.iter().enumerate() {
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
                hit(i, c);
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
/// that is ~3x less work. Same sink as [`merge_matches`].
#[inline]
pub fn gallop_rev_matches(cands: &[u32], postings: &[u32], mut hit: impl FnMut(usize, u32)) {
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
            hit(idx, c);
            lo = idx + 1;
        } else {
            lo = idx;
        }
        if lo >= cands.len() {
            break;
        }
    }
}

/// [`merge_matches`], appending every matching candidate to `out`.
#[inline]
pub fn intersect_merge_into(cands: &[u32], postings: &[u32], out: &mut Vec<u32>) {
    merge_matches(cands, postings, |_, c| out.push(c));
}

/// [`gallop_matches`], appending every matching candidate to `out`.
#[inline]
pub fn intersect_gallop_into(cands: &[u32], postings: &[u32], out: &mut Vec<u32>) {
    gallop_matches(cands, postings, |_, c| out.push(c));
}

/// [`gallop_rev_matches`], appending every matching candidate to `out`.
#[inline]
pub fn intersect_gallop_rev_into(cands: &[u32], postings: &[u32], out: &mut Vec<u32>) {
    gallop_rev_matches(cands, postings, |_, c| out.push(c));
}

/// Size ratio above which a sorted conjunction step (the planner's
/// `intersect`, and every run or decoded block a run round marks)
/// gallops through the longer side instead of merging. Retuned 16 → 8 on the vectorized-kernel density grid: the
/// 8-lane gallop probe already beats both merge forms at an 8:1
/// postings:cands ratio ((1‰,8‰): 8.0µs vs 10.8µs scalar merge; (8‰,64‰):
/// 106µs vs 133µs vector merge) and ties at 4:1, where the old scalar
/// crossover sat near 16:1 (BENCH_kernels.json).
pub const GALLOP_RATIO: usize = 8;

/// The span rule of [`order_ids_ascending`]: the bitmap pass runs when
/// the answer's id span, in 64-bit words, is at most this many times the
/// answer's length; wider spans go to the comparison sort, whose cost
/// does not depend on the span. Swept on answers of 8 ascending runs
/// (ns per id, bitmap pass / `sort_unstable`, best of five; EXPERIMENTS.md
/// "Reply path" has every row):
///
/// | ids · words per id | 1 | 2 | 4 | 8 | 16 | 32 |
/// |---|---|---|---|---|---|---|
/// | 64 | 2.7 / 4.5 | 3.3 / 6.2 | 4.0 / 4.8 | 5.5 / 4.8 | 8.9 / 4.7 | 15.1 / 5.6 |
/// | 1 024 | 2.4 / 7.3 | 2.9 / 7.5 | 3.5 / 7.4 | 5.0 / 7.5 | 12.3 / 7.6 | 21.2 / 7.3 |
/// | 16 384 | 5.7 / 11.6 | 9.4 / 11.5 | 12.3 / 11.5 | 15.9 / 11.6 | 22.3 / 11.6 | 30.5 / 11.5 |
///
/// The drain walks every word of the span, so the pass loses once most
/// are empty — past 4–8 words per id for short answers, and near 4 for
/// long ones, whose arena no longer fits the second-level cache. At 4
/// the pass wins every row but the last (−7 %), the served mean is level
/// with 1 and 2 (in situ, same section), and the arena holds at most 32
/// bytes per reported id.
pub const ORDER_SPAN_WORDS_PER_ID: usize = 4;

/// Puts an answer — exactly-once ids in any order — into ascending order
/// without comparing ids with each other. An answer that already ascends
/// (every tIF answer) is returned as it is. Otherwise, when the span
/// rule ([`ORDER_SPAN_WORDS_PER_ID`]) holds, one bit per id is set in
/// `arena` (offset by the smallest id, so only the span counts, not the
/// ids' magnitude) and the words are drained in order; else the ids are
/// `sort_unstable`d.
///
/// `arena` must be all-zero on entry and is all-zero on return, whatever
/// its length. A bit found already set means an id came twice: the
/// answer then takes the comparison sort with the duplicate kept, so the
/// callers' exactly-once checks still see it.
pub fn order_ids_ascending(ids: &mut [u32], arena: &mut Vec<u64>) {
    if ids.is_sorted() {
        return;
    }
    let (mut lo, mut hi) = (u32::MAX, 0);
    for &id in ids.iter() {
        lo = lo.min(id);
        hi = hi.max(id);
    }
    let span_words = ((hi - lo) / 64) as usize + 1;
    if span_words > ids.len().saturating_mul(ORDER_SPAN_WORDS_PER_ID) {
        ids.sort_unstable();
        return;
    }
    if arena.len() < span_words {
        arena.resize(span_words, 0);
    }
    let words = &mut arena[..span_words];
    let mut twice = 0u64;
    for &id in ids.iter() {
        let at = id - lo;
        let bit = 1u64 << (at % 64);
        let word = &mut words[(at / 64) as usize];
        twice |= *word & bit;
        *word |= bit;
    }
    if twice != 0 {
        words.fill(0);
        ids.sort_unstable();
        return;
    }
    let mut filled = 0usize;
    let mut base = lo;
    for word in words {
        let mut m = *word;
        if m != 0 {
            *word = 0;
            while m != 0 {
                ids[filled] = base + m.trailing_zeros();
                filled += 1;
                m &= m - 1;
            }
        }
        // The last word's successor may not fit a u32; it is never read.
        base = base.wrapping_add(64);
    }
    debug_assert_eq!(filled, ids.len(), "arena was not all-zero on entry");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_all(cands: &[u32], postings: &[u32], want: &[u32]) {
        for f in [
            intersect_merge_into as fn(&[u32], &[u32], &mut Vec<u32>),
            intersect_gallop_into,
            intersect_gallop_rev_into,
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
    }

    #[test]
    fn gallop_handles_large_gaps() {
        let postings: Vec<u32> = (0..10_000).map(|i| i * 3).collect();
        let cands = [0u32, 2999 * 3, 9999 * 3, 30_001];
        let mut out = Vec::new();
        intersect_gallop_into(&cands, &postings, &mut out);
        assert_eq!(out, vec![0, 2999 * 3, 9999 * 3]);
    }

    /// Orders `input` on `arena` and checks it against the comparison
    /// sort, and that the arena is left all-zero at whatever length.
    fn check_order(input: &[u32], arena: &mut Vec<u64>) {
        let mut want = input.to_vec();
        want.sort_unstable();
        let mut got = input.to_vec();
        order_ids_ascending(&mut got, arena);
        assert_eq!(got, want, "input {input:?}");
        assert!(arena.iter().all(|&w| w == 0), "arena dirty after {input:?}");
    }

    #[test]
    fn ordering_matches_the_comparison_sort() {
        let mut arena = Vec::new();
        check_order(&[], &mut arena);
        check_order(&[7], &mut arena);
        check_order(&[u32::MAX], &mut arena);
        let ascending: Vec<u32> = (0..500).map(|i| i * 3).collect();
        check_order(&ascending, &mut arena);
        assert!(
            arena.is_empty(),
            "an ascending answer never touches the arena"
        );
        let descending: Vec<u32> = ascending.iter().rev().copied().collect();
        check_order(&descending, &mut arena);
        assert!(
            !arena.is_empty(),
            "a dense descending answer takes the bitmap pass"
        );
        // k ascending runs laid end to end, as a walk over k divisions
        // reports them; residues mod k keep the ids distinct.
        for k in [2u32, 7, 32] {
            let runs: Vec<u32> = (0..k)
                .flat_map(|r| (0..200).map(move |i| i * k + (k - 1 - r)))
                .collect();
            check_order(&runs, &mut arena);
        }
        // Word boundaries: ids 63, 64, 127, 128 around the base.
        check_order(&[128, 64, 63, 127, 0, 1, 65], &mut arena);
        check_order(&[1_000_063, 1_000_000, 1_000_064, 1_000_001], &mut arena);
    }

    #[test]
    fn ordering_counts_the_span_not_the_magnitude() {
        // A renumbered catalog (ids past 4,000,000 beside small ones):
        // too wide a span for the answer's length, so the comparison sort
        // — and an arena that stays as small as it was.
        let mut arena = Vec::new();
        let sparse: Vec<u32> = (0..300)
            .map(|i| if i % 2 == 0 { 4_000_900 - i } else { i })
            .collect();
        check_order(&sparse, &mut arena);
        assert!(arena.is_empty(), "the fallback never grows the arena");
        // The same ids all past 4,000,000: a narrow span, the bitmap pass,
        // and an arena sized by the span alone.
        let far: Vec<u32> = (0..300).map(|i| 4_000_900 - i * 2).collect();
        check_order(&far, &mut arena);
        assert!((1..=10).contains(&arena.len()), "{} words", arena.len());
        // Ids up to u32::MAX: neither the base nor the word count wraps.
        let top: Vec<u32> = (0..200).map(|i| u32::MAX - 199 + (i * 7) % 200).collect();
        check_order(&top, &mut arena);
        check_order(&[u32::MAX, 0], &mut arena);
        check_order(&[u32::MAX, u32::MAX - 1, u32::MAX - 64], &mut arena);
    }

    #[test]
    fn ordering_keeps_an_id_that_came_twice() {
        // An index reporting an id twice is a bug its callers must keep
        // seeing: the duplicate survives, on either path, and the bits the
        // pass had set by then are cleared again.
        let mut arena = Vec::new();
        let mut dense: Vec<u32> = (0..400).rev().collect();
        dense.push(123);
        check_order(&dense, &mut arena);
        let mut got = dense.clone();
        order_ids_ascending(&mut got, &mut arena);
        assert_eq!(got.iter().filter(|&&id| id == 123).count(), 2);
        assert!(
            !got.windows(2).all(|w| w[0] < w[1]),
            "not strictly ascending"
        );
        check_order(&[9, 9], &mut arena);
        check_order(&[5, 4_000_000, 5, 3], &mut arena);
        check_order(&[u32::MAX, 1, u32::MAX], &mut arena);
    }
}
