//! Differential property tests for the vectorized kernel tier: every
//! SIMD wrapper against its scalar kernel against a `BTreeSet` oracle,
//! under tombstones and lane-boundary lengths. The wrappers always produce
//! the result (falling back to scalar internally), so the same assertions
//! hold on hosts without the vector ISA and under `TIR_SIMD=off`.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tir_invidx::{
    intersect_gallop_into, intersect_merge_into, kernels, order_ids_ascending, simd, BlockPostings,
    PlanStats, QueryScratch, TOMBSTONE,
};

fn sorted_unique(max: u32, len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..max, 0..len).prop_map(|s| s.into_iter().collect())
}

/// Tombstones postings by mask; returns the raw array plus the live set.
fn tombstoned(ids: &[u32], dead: &[bool]) -> (Vec<u32>, BTreeSet<u32>) {
    let raw: Vec<u32> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            if *dead.get(i).unwrap_or(&false) {
                id | TOMBSTONE
            } else {
                id
            }
        })
        .collect();
    let live: BTreeSet<u32> = raw
        .iter()
        .filter(|&&id| id & TOMBSTONE == 0)
        .copied()
        .collect();
    (raw, live)
}

/// One planner run round over `bp`'s blocks with `dead` listed: the
/// surviving candidates and the round's counters.
fn block_round(bp: &BlockPostings, cands: &[u32], dead: &[u32]) -> (Vec<u32>, PlanStats) {
    let mut s = QueryScratch::default();
    s.cands.extend_from_slice(cands);
    s.intersect_runs(|runs| runs.mark_blocks(bp, dead));
    let mut out = Vec::new();
    s.take_into(&mut out);
    (out, s.last_stats())
}

fn oracle(cands: &[u32], live: &BTreeSet<u32>) -> Vec<u32> {
    cands.iter().copied().filter(|c| live.contains(c)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn simd_merge_matches_scalar_and_oracle(
        cands in sorted_unique(4000, 200),
        postings in sorted_unique(4000, 200),
        dead in prop::collection::vec(any::<bool>(), 200),
    ) {
        let (raw, live) = tombstoned(&postings, &dead);
        let want = oracle(&cands, &live);
        let mut scalar = Vec::new();
        intersect_merge_into(&cands, &raw, &mut scalar);
        prop_assert_eq!(&scalar, &want, "scalar merge disagrees with oracle");
        // Forced variant: the gated wrapper would route these sizes to
        // scalar, and the vector tails are exactly what needs coverage.
        let mut vector = Vec::new();
        simd::merge_into_forced(&cands, &raw, &mut vector);
        prop_assert_eq!(&vector, &want, "simd merge disagrees with oracle");
        vector.clear();
        simd::merge_into(&cands, &raw, &mut vector);
        prop_assert_eq!(&vector, &want, "gated merge wrapper disagrees with oracle");
    }

    #[test]
    fn simd_gallop_matches_scalar_and_oracle(
        cands in sorted_unique(4000, 60),
        postings in sorted_unique(4000, 400),
        dead in prop::collection::vec(any::<bool>(), 400),
    ) {
        let (raw, live) = tombstoned(&postings, &dead);
        let want = oracle(&cands, &live);
        let mut scalar = Vec::new();
        intersect_gallop_into(&cands, &raw, &mut scalar);
        prop_assert_eq!(&scalar, &want, "scalar gallop disagrees with oracle");
        let mut vector = Vec::new();
        simd::gallop_into_forced(&cands, &raw, &mut vector);
        prop_assert_eq!(&vector, &want, "simd gallop disagrees with oracle");
        vector.clear();
        simd::gallop_into(&cands, &raw, &mut vector);
        prop_assert_eq!(&vector, &want, "gated gallop wrapper disagrees with oracle");
    }

    #[test]
    fn reversed_gallop_matches_scalar_and_oracle(
        cands in sorted_unique(4000, 400),
        postings in sorted_unique(4000, 60),
        dead in prop::collection::vec(any::<bool>(), 60),
    ) {
        let (raw, live) = tombstoned(&postings, &dead);
        let want = oracle(&cands, &live);
        let mut scalar = Vec::new();
        intersect_merge_into(&cands, &raw, &mut scalar);
        prop_assert_eq!(&scalar, &want, "scalar merge disagrees with oracle");
        let mut rev = Vec::new();
        tir_invidx::intersect_gallop_rev_into(&cands, &raw, &mut rev);
        prop_assert_eq!(&rev, &want, "reversed gallop disagrees with oracle");
    }

    #[test]
    fn every_algorithm_marks_the_merges_indexes(
        short in sorted_unique(4000, 60),
        long in sorted_unique(4000, 400),
        forward in any::<bool>(),
        dead in prop::collection::vec(any::<bool>(), 400),
    ) {
        let (cands, postings) = if forward { (short, long) } else { (long, short) };
        // Under the marking sink a run round uses, each algorithm must
        // flag exactly the indexes the zipper flags, in either skew.
        let (raw, _) = tombstoned(&postings, &dead);
        let mut merge = vec![false; cands.len()];
        kernels::merge_matches(&cands, &raw, |i, _| merge[i] = true);
        let mut gallop = vec![false; cands.len()];
        kernels::gallop_matches(&cands, &raw, |i, _| gallop[i] = true);
        prop_assert_eq!(&gallop, &merge, "gallop marks disagree with merge marks");
        let mut rev = vec![false; cands.len()];
        kernels::gallop_rev_matches(&cands, &raw, |i, _| rev[i] = true);
        prop_assert_eq!(&rev, &merge, "reversed gallop marks disagree with merge marks");
    }

    #[test]
    fn block_decode_round_trips_and_contains_agrees(
        ids in prop::collection::btree_set(0u32..1_000_000, 1..600),
        probes in prop::collection::vec(0u32..1_000_000, 0..40),
    ) {
        let set: BTreeSet<u32> = ids.clone();
        let ids: Vec<u32> = ids.into_iter().collect();
        let bp = BlockPostings::encode(&ids);
        prop_assert_eq!(bp.len(), ids.len());
        let mut got = Vec::new();
        let mut blk = Vec::new();
        for b in 0..bp.num_blocks() {
            bp.decode_block_into(b, &mut blk);
            got.extend_from_slice(&blk);
        }
        prop_assert_eq!(&got, &ids, "block decode round-trip");
        for p in probes.into_iter().chain(ids.iter().copied().take(8)) {
            prop_assert_eq!(bp.contains(p), set.contains(&p), "contains({p})");
        }
    }

    /// The block round against the oracle and the merge, with a random
    /// subset of the encoded ids listed dead.
    #[test]
    fn block_intersect_matches_oracle(
        cands in sorted_unique(1_000_000, 120),
        ids in prop::collection::btree_set(0u32..1_000_000, 1..600),
        dead_mask in prop::collection::vec(any::<bool>(), 600),
    ) {
        let ids: Vec<u32> = ids.into_iter().collect();
        let bp = BlockPostings::encode(&ids);
        let (stored, live) = tombstoned(&ids, &dead_mask);
        let dead: Vec<u32> = stored.iter().filter(|&&id| id & TOMBSTONE != 0).map(|&id| id & !TOMBSTONE).collect();
        let want = oracle(&cands, &live);
        let mut merged = Vec::new();
        intersect_merge_into(&cands, &stored, &mut merged);
        let (out, st) = block_round(&bp, &cands, &dead);
        prop_assert_eq!(&out, &want);
        prop_assert_eq!(&out, &merged);
        prop_assert!(st.blocks_decoded <= bp.num_blocks() as u64);
        prop_assert_eq!(st.steps(), st.blocks_decoded, "one step per decoded block");
        prop_assert_eq!(st.kernel_scanned_sum(), st.scanned);
    }

    /// The comparison-free ordering pass against `sort_unstable`: distinct
    /// ids dealt into 1..=9 ascending runs, at a base anywhere in `u32`,
    /// over spans on both sides of the span rule — optionally with ids
    /// repeated, which must come back repeated. One arena serves every
    /// case of the sequence and must be all-zero between them.
    #[test]
    fn order_ids_matches_sort_unstable(
        cases in prop::collection::vec(
            (
                prop::collection::btree_set(0..200_000u32, 0..300),
                1..10usize,
                any::<u32>(),
                1..40u32,
                any::<u64>(),
                0..3usize,
            ),
            1..6,
        ),
    ) {
        let mut arena = Vec::new();
        for (set, runs, base, stretch, deal, repeats) in cases {
            // `stretch` widens the span past the rule for some cases; the
            // base is pulled down so the largest id still fits.
            let top = 200_000u64 * u64::from(stretch);
            let base = u64::from(base).min(u64::from(u32::MAX) - top) as u32;
            let mut by_run = vec![Vec::new(); runs];
            let mut deal = deal;
            for &id in &set {
                deal = deal.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                by_run[(deal >> 33) as usize % runs].push(base + id * stretch);
            }
            let mut ids = by_run.concat();
            for r in 0..repeats.min(ids.len()) {
                ids.push(ids[r * 7 % ids.len()]);
            }
            let mut want = ids.clone();
            want.sort_unstable();
            order_ids_ascending(&mut ids, &mut arena);
            prop_assert_eq!(&ids, &want);
            prop_assert!(arena.iter().all(|&w| w == 0), "arena left dirty");
        }
    }
}

/// Exhaustive lane-boundary sweep: every length around the 4/8/16-lane
/// and 64-bit word edges, for aligned and offset id patterns, on every
/// kernel. Catches off-by-one bugs in vector tails that random lengths
/// rarely hit.
#[test]
fn lane_boundary_lengths_agree_with_the_oracle() {
    let lengths = [
        0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129,
    ];
    for &n in &lengths {
        for &m in &lengths {
            for stride in [1u32, 2, 3] {
                let cands: Vec<u32> = (0..n as u32).map(|i| i * stride).collect();
                let postings: Vec<u32> = (0..m as u32).map(|i| i * 2).collect();
                let live: BTreeSet<u32> = postings.iter().copied().collect();
                let want = oracle(&cands, &live);
                let mut out = Vec::new();
                simd::merge_into_forced(&cands, &postings, &mut out);
                assert_eq!(out, want, "merge n={n} m={m} stride={stride}");
                out.clear();
                simd::gallop_into_forced(&cands, &postings, &mut out);
                assert_eq!(out, want, "gallop n={n} m={m} stride={stride}");
                let bp = BlockPostings::encode(&postings);
                let (out, _) = block_round(&bp, &cands, &[]);
                assert_eq!(out, want, "blocks n={n} m={m} stride={stride}");
            }
        }
    }
}

/// Empty and singleton inputs on every wrapper: the degenerate shapes
/// the vector paths must hand off to scalar without touching memory.
#[test]
fn empty_and_singleton_edges() {
    let mut out = Vec::new();
    simd::merge_into_forced(&[], &[], &mut out);
    assert!(out.is_empty());
    simd::gallop_into_forced(&[], &[1, 2, 3], &mut out);
    assert!(out.is_empty());
    simd::merge_into_forced(&[5], &[], &mut out);
    assert!(out.is_empty());
    simd::merge_into_forced(&[5], &[5], &mut out);
    assert_eq!(out, [5]);
    out.clear();
    simd::gallop_into_forced(&[5], &[4, 5, 6], &mut out);
    assert_eq!(out, [5]);
    let (out, st) = block_round(&BlockPostings::encode(&[]), &[5], &[]);
    assert!(out.is_empty() && st.blocks_decoded == 0);
    let bp = BlockPostings::encode(&[42]);
    assert!(bp.contains(42) && !bp.contains(41));
    let (out, st) = block_round(&bp, &[41, 42, 43], &[]);
    assert_eq!(out, [42]);
    assert_eq!(st.blocks_decoded, 1);
    let (out, st) = block_round(&bp, &[43, 44], &[]);
    assert!(out.is_empty());
    assert_eq!(
        st.blocks_decoded, 0,
        "skip bounds answer disjoint ranges without decoding"
    );
}
