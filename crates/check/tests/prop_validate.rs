//! Property tests for the validators: a structure that went through any
//! random build + insert + delete sequence must validate clean, and a
//! deliberately corrupted structure must report at least one violation.

use proptest::prelude::*;
use tir_check::{Validate, Violation};
use tir_core::prelude::*;
use tir_core::{with_method, PerTerm, TermPartition};
use tir_hint::{Hint, HintConfig, IntervalRecord};
use tir_invidx::{BlockPostings, Kernel, PlanStats};

const DOMAIN: u64 = 2000;
const DICT: u32 = 10;

fn arb_records(max: usize) -> impl Strategy<Value = Vec<IntervalRecord>> {
    prop::collection::vec((0..DOMAIN, 0..DOMAIN), 1..max).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (a, b))| IntervalRecord::new(i as u32, a.min(b), a.max(b)))
            .collect()
    })
}

fn arb_collection(max_objects: usize) -> impl Strategy<Value = Collection> {
    prop::collection::vec(
        (
            0..DOMAIN,
            0..DOMAIN,
            prop::collection::btree_set(0..DICT, 1..5),
        ),
        1..max_objects,
    )
    .prop_map(|raw| {
        let objects = raw
            .into_iter()
            .enumerate()
            .map(|(i, (a, b, desc))| {
                Object::new(i as u32, a.min(b), a.max(b), desc.into_iter().collect())
            })
            .collect();
        Collection::new(objects)
    })
}

/// Inserts `extra` under fresh ids — the first half one by one, the rest
/// as one batch, which may promote dense-term bitmaps — deletes the masked
/// base objects, and validates what is left.
fn updated<I: TemporalIrIndex + Validate>(
    mut idx: I,
    coll: &Collection,
    extra: &Collection,
    del_mask: &[bool],
) -> Vec<Violation> {
    let fresh: Vec<Object> = extra
        .objects()
        .iter()
        .map(|o| Object::new(o.id + 1000, o.interval.st, o.interval.end, o.desc.to_vec()))
        .collect();
    let (singles, batch) = fresh.split_at(fresh.len() / 2);
    singles.iter().for_each(|o| idx.insert(o));
    idx.insert_batch(batch);
    for (o, &kill) in coll.objects().iter().zip(del_mask) {
        if kill {
            idx.delete(o);
        }
    }
    idx.validate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hint_validates_after_random_updates(
        base in arb_records(40),
        extra in arb_records(10),
        del_mask in prop::collection::vec(any::<bool>(), 40),
        m in 1u32..7,
    ) {
        let mut h = Hint::build(&base, HintConfig::with_m(m));
        for r in &extra {
            let r = IntervalRecord::new(r.id + 1000, r.st, r.end);
            h.insert(&r);
        }
        for (r, &kill) in base.iter().zip(del_mask.iter()) {
            if kill {
                h.delete(r);
            }
        }
        let v = h.validate();
        prop_assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn corrupted_hint_reports_a_violation(base in arb_records(30), m in 1u32..6) {
        let mut h = Hint::build(&base, HintConfig::with_m(m));
        h.testing_corrupt_dead_counter();
        let v = h.validate();
        prop_assert!(!v.is_empty(), "corrupted dead counter went unnoticed");
    }

    #[test]
    fn irhint_perf_validates_after_random_updates(
        coll in arb_collection(30),
        extra in arb_collection(8),
        del_mask in prop::collection::vec(any::<bool>(), 30),
        m in 1u32..7,
    ) {
        let mut idx = IrHintPerf::build_with_m(&coll, m);
        for o in extra.objects() {
            let o = Object::new(o.id + 1000, o.interval.st, o.interval.end, o.desc.to_vec());
            idx.insert(&o);
        }
        for (o, &kill) in coll.objects().iter().zip(del_mask.iter()) {
            if kill {
                idx.delete(o);
            }
        }
        let v = idx.validate();
        prop_assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn corrupted_irhint_reports_a_violation(coll in arb_collection(20), m in 1u32..6) {
        // Each store broken in its own structure, seen through the one
        // generic walk: a parallel endpoint column of irHINT-perf's tIF...
        let mut idx = IrHintPerf::build_with_m(&coll, m);
        idx.testing_corrupt_division(|d| d.testing_corrupt_parallel());
        let v = idx.validate();
        prop_assert!(!v.is_empty(), "corrupted parallel arrays went unnoticed");
        // ...and irHINT-size's id-only offset directory and its interval
        // columns' tombstone counter.
        let mut idx = IrHintSize::build_with_m(&coll, m);
        idx.testing_corrupt_division(|d| d.ids.testing_corrupt_offsets());
        let v = idx.validate();
        prop_assert!(!v.is_empty(), "corrupted offsets went unnoticed");
        let mut idx = IrHintSize::build_with_m(&coll, m);
        idx.testing_corrupt_division(|d| d.intervals.testing_corrupt_dead_counter());
        let v = idx.validate();
        prop_assert!(
            v.iter().any(|v| v.path.ends_with("/intervals")),
            "corrupted dead counter went unnoticed: {:?}", v
        );
        // One flipped bit in a dense-element bitmap: the divisions are
        // sound, the sidecar no longer says what they say. Element 0 is
        // given to every object, so it is dense and has a bitmap.
        let with_0 = |o: &Object| {
            let desc = o.desc.iter().copied().chain([0]).collect();
            Object::new(o.id, o.interval.st, o.interval.end, desc)
        };
        let coll = Collection::new(coll.objects().iter().map(with_0).collect());
        let mut perf = IrHintPerf::build_with_m(&coll, m);
        let mut size = IrHintSize::build_with_m(&coll, m);
        prop_assert!(perf.testing_corrupt_bitmap() && size.testing_corrupt_bitmap());
        for v in [perf.validate(), size.validate()] {
            prop_assert!(
                v.iter().any(|v| v.path.contains("/bitmaps/")),
                "flipped bitmap bit went unnoticed: {:?}", v
            );
        }
    }

    #[test]
    fn corrupted_per_term_bitmap_reports_a_violation(coll in arb_collection(20)) {
        // Element 0 in every object: dense, so every policy keeps a bitmap
        // for it — one flipped bit must be reported for each.
        let with_0 = |o: &Object| {
            let desc = o.desc.iter().copied().chain([0]).collect();
            Object::new(o.id, o.interval.st, o.interval.end, desc)
        };
        let coll = Collection::new(coll.objects().iter().map(with_0).collect());
        fn flipped<P>(mut idx: PerTerm<P>) -> Result<(), TestCaseError>
        where
            P: TermPartition,
            PerTerm<P>: Validate,
        {
            prop_assert!(idx.validate().is_empty(), "{:?}", idx.validate());
            prop_assert!(idx.testing_corrupt_bitmap());
            let v = idx.validate();
            prop_assert!(
                v.iter().any(|v| v.path.contains("/bitmaps/")),
                "{}: flipped bitmap bit went unnoticed: {:?}", idx.name(), v
            );
            Ok(())
        }
        flipped(Tif::build(&coll))?;
        flipped(TifSlicing::build(&coll))?;
        flipped(TifSharding::build(&coll))?;
        flipped(TifHint::build(&coll, TifHintConfig::binary_search()))?;
        flipped(TifHint::build(&coll, TifHintConfig::merge_sort()))?;
        flipped(TifHintSlicing::build(&coll))?;
        flipped(CompressedTif::build(&coll))?;
    }

    #[test]
    fn every_method_validates_after_random_updates(
        coll in arb_collection(30),
        extra in arb_collection(8),
        del_mask in prop::collection::vec(any::<bool>(), 30),
    ) {
        for m in Method::ALL {
            let v = with_method!(m, |I, build| updated(build(&coll), &coll, &extra, &del_mask));
            prop_assert!(v.is_empty(), "{}: violations: {:?}", m, v);
        }
    }

    #[test]
    fn overlapping_flat_runs_are_reported(
        entries in prop::collection::vec((0u32..6, 0u32..50, 0u64..100), 2..40),
        singles in prop::collection::vec((0u32..6, 0u32..80, 0u64..100), 0..40),
        coll in arb_collection(20),
        m in 1u32..6,
    ) {
        // A flat store, packed as built and roomy after single inserts,
        // with element 1 handed element 0's run: each run stays sorted, so
        // only the overlap check can see it. The same store with its last
        // directory entry moved past the list must fail the offset check.
        let mut built: Vec<(u32, u32, [u64; 2])> =
            entries.iter().map(|&(e, id, t)| (e, id, [t, t + 1])).collect();
        built.extend([(0, 0, [0, 1]), (1, 0, [0, 1])]);
        let mut store = tir_invidx::FlatInverted::build(&mut built);
        for &(e, id, t) in &singles {
            store.insert(e, id, [t, t + 5]);
        }
        prop_assert!(store.validate().is_empty(), "violations: {:?}", store.validate());
        prop_assert_eq!(store.is_packed(), singles.is_empty());
        let mut shifted = store.clone();
        shifted.testing_corrupt_offsets();
        prop_assert!(
            !shifted.validate().is_empty(),
            "a directory entry past the list went unnoticed"
        );
        prop_assert!(store.testing_overlap_runs());
        let v = store.validate();
        prop_assert!(
            v.iter().any(|v| v.path == "compact/runs" && v.message.contains("overlapping")),
            "overlapping runs went unnoticed: {:?}", v
        );
        // The same corruption in an irHINT-perf division after single
        // inserts. Elements 0 and 1 are in every object, so every division
        // holds two runs.
        let with_01 = |o: &Object, id: u32| {
            let desc = o.desc.iter().copied().chain([0, 1]).collect();
            Object::new(id, o.interval.st, o.interval.end, desc)
        };
        let base = Collection::new(coll.objects().iter().map(|o| with_01(o, o.id)).collect());
        let mut idx = IrHintPerf::build_with_m(&base, m);
        for o in coll.objects() {
            idx.insert(&with_01(o, o.id + 1000));
        }
        prop_assert!(idx.validate().is_empty());
        let mut overlapped = false;
        idx.testing_corrupt_division(|d| overlapped = d.testing_overlap_runs());
        prop_assert!(overlapped);
        let v = idx.validate();
        prop_assert!(
            v.iter().any(|v| v.path.ends_with("compact/runs")),
            "overlapping division runs went unnoticed: {:?}", v
        );
    }

    #[test]
    fn block_postings_validate_and_catch_corruption(
        ids in prop::collection::btree_set(0u32..100_000, 1..400),
    ) {
        let ids: Vec<u32> = ids.into_iter().collect();
        let mut bp = BlockPostings::encode(&ids);
        prop_assert!(bp.validate().is_empty(), "violations: {:?}", bp.validate());
        bp.testing_corrupt_skip_bound();
        prop_assert!(!bp.validate().is_empty(), "skip-bound desync went unnoticed");
    }

    #[test]
    fn plan_stats_validate_and_catch_desync(
        notes in prop::collection::vec((0u8..4, 0u64..1000), 0..32),
        bump in 1u64..100,
    ) {
        let mut stats = PlanStats::default();
        for &(k, scanned) in &notes {
            let kernel = match k {
                0 => Kernel::Merge,
                1 => Kernel::Gallop,
                2 => Kernel::BitmapProbe,
                _ => Kernel::WordAnd,
            };
            stats.note(kernel, scanned);
        }
        let v = stats.validate();
        prop_assert!(v.is_empty(), "violations: {v:?}");
        // The fields no kernel writes must stay 0.
        let mut runs = stats;
        runs.run_intersect_steps = bump;
        prop_assert!(!runs.validate().is_empty(), "a run step went unnoticed");
        let mut vector = stats;
        vector.simd_merge_steps = bump;
        prop_assert!(!vector.validate().is_empty(), "a vector merge went unnoticed");
        stats.scanned += bump;
        prop_assert!(!stats.validate().is_empty(), "scanned desync went unnoticed");
    }

    #[test]
    fn irhint_size_validates_after_random_updates(
        coll in arb_collection(30),
        del_mask in prop::collection::vec(any::<bool>(), 30),
        m in 1u32..7,
    ) {
        let mut idx = IrHintSize::build_with_m(&coll, m);
        for (o, &kill) in coll.objects().iter().zip(del_mask.iter()) {
            if kill {
                idx.delete(o);
            }
        }
        let v = idx.validate();
        prop_assert!(v.is_empty(), "violations: {v:?}");
    }
}
