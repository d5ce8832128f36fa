//! Property tests: intersection kernels against a naive set model, the flat
//! per-division store and the dense-element bitmaps against map models.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use tir_invidx::{
    intersect_gallop_into, intersect_merge_into, ElemBitmaps, FlatInverted, Postings, QueryScratch,
    ELEM_BITMAP_DEN, TOMBSTONE,
};

fn sorted_unique(max: u32, len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..max, 0..len).prop_map(|s| s.into_iter().collect())
}

/// Applies a tombstone mask, keeping raw-id order, and returns the raw
/// array plus the live-id set model.
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

/// The present-only words of a live-id set, as [`ElemBitmaps`] hands them
/// to the planner: no more words than the largest member needs.
fn bits_of(live: &BTreeSet<u32>) -> Vec<u64> {
    let mut words = vec![0u64; live.last().map_or(0, |&id| id as usize / 64 + 1)];
    for &id in live {
        words[id as usize / 64] |= 1 << (id % 64);
    }
    words
}

/// One op of [`flat_store_model`]: `0` rebuilds the store from the batch,
/// `1` inserts it entry by entry, `2` merges it in, `3` tombstones its keys.
/// An entry whose key is stored tombstoned re-uses the id: `1` and `2`
/// revive it.
type FlatOp = (u8, Vec<(u32, u32, u64, u64)>);

/// Drives one [`FlatInverted`] instantiation through `ops` beside a
/// `BTreeMap` model keyed by `(element, raw id)`. After every op each
/// element's postings are the model's, in raw-id order, tombstone bits and
/// endpoints included, every column is parallel to the ids, and the runs
/// keep [`runs_lie_apart`].
fn flat_store_model<const W: usize>(ops: &[FlatOp]) -> Result<(), TestCaseError> {
    let mut store = FlatInverted::<W>::new();
    let mut model: BTreeMap<(u32, u32), (bool, [u64; W])> = BTreeMap::new();
    for (op, batch) in ops {
        if *op == 0 {
            model.clear();
        }
        // Descriptions are sets: an `(element, id)` stored alive is never
        // added twice, and one stored tombstoned — a re-used id — is
        // revived with the new endpoints.
        let mut fresh: Vec<(u32, u32, [u64; W])> = Vec::new();
        for &(e, id, a, b) in batch {
            let span = std::array::from_fn(|c| if c == 0 { a.min(b) } else { a.max(b) });
            if *op != 3 && !model.get(&(e, id)).is_some_and(|m| m.0) {
                model.insert((e, id), (true, span));
                fresh.push((e, id, span));
            }
        }
        match *op {
            0 => store = FlatInverted::build(&mut fresh),
            1 => fresh
                .iter()
                .for_each(|&(e, id, span)| store.insert(e, id, span)),
            2 => store.merge_in(&mut fresh),
            _ => {
                for &(e, id, _, _) in batch {
                    let was_live = model
                        .get_mut(&(e, id))
                        .is_some_and(|m| std::mem::take(&mut m.0));
                    prop_assert_eq!(store.tombstone(e, id), was_live, "tombstone({}, {})", e, id);
                }
            }
        }
        prop_assert_eq!(store.num_postings(), model.len());
        runs_lie_apart(&store)?;
        match *op {
            0 | 2 => prop_assert!(
                store.is_packed(),
                "a build or merge leaves the store packed"
            ),
            1 if !fresh.is_empty() => {
                prop_assert!(!store.is_packed(), "a single insert makes the store roomy")
            }
            _ => {}
        }
        for col in &store.list().cols {
            prop_assert_eq!(col.len(), store.list().len(), "column not parallel to ids");
        }
        for e in 0..13u32 {
            let p = store.postings(e);
            let want: Vec<_> = model.range((e, 0)..=(e, u32::MAX)).collect();
            prop_assert_eq!(p.ids.len(), want.len(), "elem {}", e);
            for (i, (&(_, id), &(live, span))) in want.into_iter().enumerate() {
                prop_assert_eq!(
                    p.ids[i],
                    if live { id } else { id | TOMBSTONE },
                    "elem {}",
                    e
                );
                if W == 2 {
                    prop_assert_eq!([p.sts[i], p.ends[i]].as_slice(), span.as_slice());
                }
            }
        }
    }
    Ok(())
}

/// The layout invariant of a flat store: a strictly ascending directory;
/// each element's run a prefix of the slots it owns; the slots pairwise
/// disjoint and inside the list; packed, the runs tiling the list in
/// directory order with no slot to spare; and roomy, a list that compacts
/// before it grows much past its postings — never longer than three times
/// them plus twice the growth of the longest run.
fn runs_lie_apart<const W: usize>(store: &FlatInverted<W>) -> Result<(), TestCaseError> {
    let n = store.elements().len();
    prop_assert!(store.elements().windows(2).all(|w| w[0] < w[1]));
    prop_assert!(store.directory_len() == n + 1 || store.directory_len() == 3 * n);
    let mut slots = Vec::with_capacity(n);
    for i in 0..n {
        let (run, own) = (store.elem_run(i), store.elem_slots(i));
        prop_assert!(
            run.start == own.start && run.end <= own.end,
            "run {:?} of {:?}",
            run,
            own
        );
        if store.is_packed() {
            prop_assert_eq!(&run, &own);
            prop_assert_eq!(
                run.start,
                slots.last().map_or(0, |s: &std::ops::Range<usize>| s.end)
            );
        }
        slots.push(own);
    }
    slots.sort_unstable_by_key(|s| s.start);
    for w in slots.windows(2) {
        prop_assert!(
            w[0].end <= w[1].start,
            "slots {:?} and {:?} overlap",
            w[0],
            w[1]
        );
    }
    let used = slots.last().map_or(0, |s| s.end);
    prop_assert!(used <= store.list().len());
    if store.is_packed() {
        prop_assert_eq!(used, store.list().len());
    }
    let longest = (0..n).map(|i| store.elem_run(i).len()).max().unwrap_or(0);
    prop_assert!(
        store.list().len() <= 3 * store.num_postings() + 4 * longest + 2,
        "{} slots for {} postings",
        store.list().len(),
        store.num_postings()
    );
    Ok(())
}

/// Ops that drive one element among many through a long stream of single
/// inserts: a build over 12 elements, then fresh ids past the run (each an
/// append), ids inside it, and tombstone-then-reinsert revivals, ending in
/// a `merge_in` that packs the store again.
fn one_element_stream() -> impl Strategy<Value = Vec<FlatOp>> {
    (
        prop::collection::vec((0u32..12, 0u32..64, 0u64..100, 0u64..100), 1..48),
        0u32..12,
        prop::collection::vec((0u8..3, 0u32..64, 0u64..100), 1..160),
        prop::collection::vec((0u32..12, 0u32..300, 0u64..100, 0u64..100), 1..8),
    )
        .prop_map(move |(built, hot, steps, merged)| {
            let mut ops: Vec<FlatOp> = vec![(0, built)];
            let mut next = 64u32;
            for (kind, pick, t) in steps {
                match kind {
                    0 => {
                        ops.push((1, vec![(hot, next, t, t + 1)]));
                        next += 1;
                    }
                    1 => ops.push((1, vec![(hot, pick, t, t + 2)])),
                    _ => {
                        let id = pick % next;
                        ops.push((3, vec![(hot, id, 0, 0)]));
                        ops.push((1, vec![(hot, id, t, t + 3)]));
                    }
                }
            }
            ops.push((2, merged));
            ops
        })
}

/// Ops that spread a long stream of single inserts over every element: a
/// build over 12 elements, then fresh ids and ids inside the runs into
/// elements picked at random, so full runs keep moving, holes pile up and
/// the list compacts, ending in a `merge_in` that packs the store again.
fn spread_stream() -> impl Strategy<Value = Vec<FlatOp>> {
    (
        prop::collection::vec((0u32..12, 0u32..64, 0u64..100, 0u64..100), 1..96),
        prop::collection::vec((0u32..12, any::<bool>(), 0u32..64, 0u64..100), 1..400),
    )
        .prop_map(|(built, steps)| {
            let mut ops: Vec<FlatOp> = vec![(0, built)];
            for (k, (e, fresh, pick, t)) in (64u32..).zip(steps) {
                ops.push((1, vec![(e, if fresh { k } else { pick }, t, t + 1)]));
            }
            ops.push((2, vec![(0, 1000, 0, 1)]));
            ops
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn kernels_agree_with_set_model(
        cands in sorted_unique(300, 80),
        postings in sorted_unique(300, 80),
        dead in prop::collection::vec(any::<bool>(), 80),
    ) {
        // Tombstone some postings.
        let postings: Vec<u32> = postings
            .iter()
            .enumerate()
            .map(|(i, &id)| if *dead.get(i).unwrap_or(&false) { id | TOMBSTONE } else { id })
            .collect();
        let live_set: BTreeSet<u32> = postings
            .iter()
            .filter(|&&id| id & TOMBSTONE == 0)
            .copied()
            .collect();
        let want: Vec<u32> = cands.iter().copied().filter(|c| live_set.contains(c)).collect();
        for f in [
            intersect_merge_into as fn(&[u32], &[u32], &mut Vec<u32>),
            intersect_gallop_into,
        ] {
            let mut out = Vec::new();
            f(&cands, &postings, &mut out);
            prop_assert_eq!(&out, &want);
        }
    }

    #[test]
    fn planner_scratch_agrees_with_set_model(
        seed in sorted_unique(2048, 400),
        lists in prop::collection::vec(
            (sorted_unique(2048, 400), prop::collection::vec(any::<bool>(), 400), any::<bool>()),
            0..5,
        ),
    ) {
        let mut scratch = QueryScratch::default();
        scratch.reset();
        scratch.cands.extend_from_slice(&seed);

        let mut model: BTreeSet<u32> = seed.iter().copied().collect();
        for (ids, dead, as_bits) in &lists {
            let (raw, live) = tombstoned(ids, dead);
            if *as_bits {
                // Present-only words: the live ids, and possibly fewer
                // words than the candidates' universe.
                scratch.intersect(Postings::Bits(&bits_of(&live)));
            } else {
                scratch.intersect(Postings::Ids(&raw));
            }
            model = model.intersection(&live).copied().collect();
        }

        let mut out = Vec::new();
        scratch.drain_into(&mut out);
        out.sort_unstable();
        let want: Vec<u32> = model.into_iter().collect();
        prop_assert_eq!(out, want);

        // Per-query counter invariant: the per-kernel scanned columns
        // must sum to the running total.
        let stats = scratch.last_stats();
        prop_assert_eq!(stats.kernel_scanned_sum(), stats.scanned);
        if !lists.is_empty() {
            prop_assert!(stats.steps() >= 1);
        }
    }

    #[test]
    fn flat_store_matches_model(
        ops in prop::collection::vec(
            (0u8..4, prop::collection::vec((0u32..12, 0u32..64, 0u64..100, 0u64..100), 1..24)),
            1..12,
        ),
    ) {
        flat_store_model::<0>(&ops)?;
        flat_store_model::<2>(&ops)?;
    }

    #[test]
    fn flat_store_matches_model_under_one_element_streams(ops in one_element_stream()) {
        flat_store_model::<0>(&ops)?;
        flat_store_model::<2>(&ops)?;
    }

    #[test]
    fn flat_store_matches_model_under_spread_streams(ops in spread_stream()) {
        flat_store_model::<0>(&ops)?;
        flat_store_model::<2>(&ops)?;
    }

    /// The sidecar against a map model through arbitrary sequences of
    /// objects going live (near ids and far ones, which grow the universe
    /// and demote), objects deleted, elements promoted from postings that
    /// arrive in several tombstone-carrying chunks, and everything dropped.
    #[test]
    fn elem_bitmaps_match_model(
        ops in prop::collection::vec(
            (0u8..8, 0u32..40, prop::collection::btree_set(0u32..5, 1..4), any::<bool>()),
            1..80,
        ),
    ) {
        let mut bitmaps = ElemBitmaps::with_universe(0);
        let mut objects: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        let mut universe = 0u32;
        let mut next_id = 0u32;
        for (op, pick, desc, far) in ops {
            let members = |objects: &BTreeMap<u32, BTreeSet<u32>>, e: u32| -> BTreeSet<u32> {
                objects.iter().filter(|(_, d)| d.contains(&e)).map(|(&id, _)| id).collect()
            };
            match op {
                // An object goes live under a fresh id: mostly the next
                // one, now and then one far past the universe.
                0..=3 => {
                    next_id += if far && op == 0 { 200 + pick * 40 } else { 1 + pick % 3 };
                    let elems: Vec<u32> = desc.iter().copied().collect();
                    bitmaps.add_object(next_id, &elems);
                    objects.insert(next_id, desc);
                    universe = universe.max(next_id + 1);
                }
                // A live object is deleted.
                4 | 5 => {
                    if let Some(&id) = objects.keys().nth(pick as usize % objects.len().max(1)) {
                        let elems: Vec<u32> = objects[&id].iter().copied().collect();
                        bitmaps.remove_object(id, &elems);
                        objects.remove(&id);
                    }
                }
                // The owner's lazy promotion pass: every element the rule
                // admits gets a bitmap, filled from its postings in two
                // chunks with tombstoned strangers mixed in.
                6 => {
                    for e in 0..5 {
                        let ids = members(&objects, e);
                        if bitmaps.bitmap(e).is_none() && bitmaps.qualifies(ids.len() as u32) {
                            bitmaps.promote(e);
                            let mut postings: Vec<u32> = ids.iter().copied().collect();
                            postings.push((universe + 7) | TOMBSTONE);
                            let (a, b) = postings.split_at(postings.len() / 2);
                            bitmaps.fill_from_postings(e, b);
                            bitmaps.fill_from_postings(e, a);
                        }
                    }
                }
                _ => bitmaps.drop_all(),
            }

            prop_assert_eq!(bitmaps.universe(), universe);
            let mut last = None;
            for (e, count, words) in bitmaps.iter() {
                prop_assert!(last < Some(e), "directory not strictly ascending");
                last = Some(e);
                let got: BTreeSet<u32> = (0..words.len() as u32 * 64)
                    .filter(|id| words[*id as usize / 64] >> (id % 64) & 1 == 1)
                    .collect();
                prop_assert_eq!(&got, &members(&objects, e), "element {}", e);
                prop_assert_eq!(count as usize, got.len());
                prop_assert_eq!(bitmaps.bitmap(e), Some(words));
                // Kept only while at most twice as sparse as promotion asks.
                prop_assert!(
                    u64::from(count) * 2 * u64::from(ELEM_BITMAP_DEN) >= u64::from(universe),
                    "element {} kept with {} of {} ids", e, count, universe
                );
            }
        }
    }

}

#[test]
fn planner_edge_cases_hold_on_every_operand() {
    let ids: Vec<u32> = (0..100).map(|i| i * 3).collect();
    let disjoint: Vec<u32> = (0..100).map(|i| i * 3 + 1).collect();
    let all_dead: Vec<u32> = ids.iter().map(|&id| id | TOMBSTONE).collect();
    for (postings, want) in [
        (ids.clone(), ids.clone()), // identical sets
        (disjoint, Vec::new()),     // disjoint sets
        (Vec::new(), Vec::new()),   // empty postings
        (all_dead, Vec::new()),     // fully tombstoned
    ] {
        let (_, live) = tombstoned(&postings, &[]);
        let words = bits_of(&live);
        for side in [Postings::Ids(&postings), Postings::Bits(&words)] {
            let mut scratch = QueryScratch::default();
            scratch.reset();
            scratch.cands.extend_from_slice(&ids);
            scratch.intersect(side);
            let mut out = Vec::new();
            scratch.drain_into(&mut out);
            out.sort_unstable();
            assert_eq!(out, want, "{side:?}");
            // Empty candidate seed stays empty against anything.
            scratch.reset();
            scratch.intersect(side);
            let mut out = Vec::new();
            scratch.drain_into(&mut out);
            assert!(out.is_empty());
        }
    }
}
