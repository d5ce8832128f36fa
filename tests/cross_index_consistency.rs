//! Integration tests spanning crates: generated datasets (tir-datagen)
//! indexed by every method (tir-core) must agree with the oracle and with
//! each other, before and after updates.

use temporal_ir::core::prelude::*;
use temporal_ir::core::{PerTerm, TermPartition};
use temporal_ir::datagen::{
    eclog_like, generate, selectivity_binned, wikipedia_like, workload, ElemSource, Extent,
    SyntheticConfig, WorkloadSpec,
};
use temporal_ir::invidx::ElemBitmaps;

fn all_indexes(coll: &Collection) -> Vec<Box<dyn TemporalIrIndex + Send + Sync>> {
    Method::ALL.iter().map(|m| m.build(coll)).collect()
}

fn assert_all_agree(coll: &Collection, queries: &[TimeTravelQuery], ctx: &str) {
    let oracle = BruteForce::build(coll.objects());
    for index in all_indexes(coll) {
        for q in queries {
            let mut got = index.query(q);
            let n = got.len();
            got.sort_unstable();
            got.dedup();
            assert_eq!(n, got.len(), "[{ctx}] {} emitted duplicates", index.name());
            assert_eq!(
                got,
                oracle.answer(q),
                "[{ctx}] {} vs oracle, q={q:?}",
                index.name()
            );
        }
    }
}

/// The same objects as a catalog looks after deletes and later inserts:
/// every third id a hole, the upper half renumbered far above `len`.
fn with_sparse_ids(coll: &Collection) -> Collection {
    let half = coll.len() as u32 / 2;
    let survivors = coll.objects().iter().filter(|o| o.id % 3 != 0).cloned();
    Collection::new(
        survivors
            .map(|mut o| {
                if o.id > half {
                    o.id += 4_000_000;
                }
                o
            })
            .collect(),
    )
}

/// `dense100k` in miniature — the benchmark's served corpus, 50 objects per
/// dictionary term — so a dozen terms are dense enough for irHINT's
/// index-wide bitmaps and the universe is thousands of ids, not dozens.
fn dense_terms() -> Collection {
    let mut cfg = SyntheticConfig::default().scaled(0.1);
    cfg.cardinality = 4_000;
    cfg.dict_size = 80;
    cfg.seed = 11;
    generate(&cfg)
}

/// Queries over [`dense_terms`] whose terms are all dense, whose terms are
/// all sparse, and — drawn from a seed object's description — whose rare
/// seed term is followed by dense ones, at a selective and a broad extent.
fn dense_terms_queries(coll: &Collection) -> Vec<TimeTravelQuery> {
    let mut queries = Vec::new();
    for extent in [Extent::Fraction(0.001), Extent::Fraction(0.1)] {
        for (source, num_elems) in [
            (ElemSource::SeedObject, 3),
            (ElemSource::SeedObject, 5),
            (
                ElemSource::FreqBin {
                    lo_pct: 12.5,
                    hi_pct: 100.0,
                },
                3,
            ),
            (
                ElemSource::FreqBin {
                    lo_pct: 0.0,
                    hi_pct: 5.0,
                },
                2,
            ),
        ] {
            let spec = WorkloadSpec {
                extent,
                num_elems,
                source,
            };
            queries.extend(workload(coll, &spec, 8, 23));
        }
    }
    assert!(queries.len() >= 48);
    queries
}

#[test]
fn agree_on_synthetic_default_shape() {
    let coll = generate(&SyntheticConfig::default().scaled(0.002));
    let mut queries = Vec::new();
    for extent in [
        Extent::Stabbing,
        Extent::Fraction(0.001),
        Extent::Fraction(0.05),
        Extent::Fraction(1.0),
    ] {
        for num_elems in [1usize, 3, 5] {
            queries.extend(workload(
                &coll,
                &WorkloadSpec {
                    extent,
                    num_elems,
                    source: ElemSource::SeedObject,
                },
                5,
                77,
            ));
        }
    }
    assert!(queries.len() >= 50);
    assert_all_agree(&coll, &queries, "synthetic");
    // No builder may assume `id == position`.
    assert_all_agree(&with_sparse_ids(&coll), &queries, "synthetic, sparse ids");
    // Dense terms answered from irHINT's bitmaps — and, once the ids are
    // sparse, from no bitmap: 4K objects are not dense in 4M ids.
    let dense = dense_terms();
    let queries = dense_terms_queries(&dense);
    assert_all_agree(&dense, &queries, "dense terms");
    assert_all_agree(
        &with_sparse_ids(&dense),
        &queries,
        "dense terms, sparse ids",
    );
}

#[test]
fn agree_on_eclog_shape() {
    let coll = eclog_like(0.01, 5);
    let queries = workload(&coll, &WorkloadSpec::default(), 30, 5);
    assert_all_agree(&coll, &queries, "eclog");
}

#[test]
fn agree_on_wikipedia_shape() {
    let coll = wikipedia_like(0.003, 5);
    let queries = workload(&coll, &WorkloadSpec::default(), 30, 5);
    assert_all_agree(&coll, &queries, "wikipedia");
}

#[test]
fn agree_on_frequency_bin_workloads() {
    let coll = eclog_like(0.01, 9);
    let mut queries = Vec::new();
    for (lo, hi) in [(0.0, 0.1), (0.1, 1.0), (1.0, 10.0), (10.0, 100.0)] {
        queries.extend(workload(
            &coll,
            &WorkloadSpec {
                extent: Extent::Fraction(0.001),
                num_elems: 2,
                source: ElemSource::FreqBin {
                    lo_pct: lo,
                    hi_pct: hi,
                },
            },
            10,
            13,
        ));
    }
    assert!(!queries.is_empty());
    assert_all_agree(&coll, &queries, "freq-bins");
}

#[test]
fn agree_on_selectivity_binned_workloads() {
    let coll = eclog_like(0.008, 21);
    let probe = Tif::build(&coll);
    let bins = selectivity_binned(&coll, &probe, 8, 3);
    let queries: Vec<TimeTravelQuery> = bins.into_iter().flatten().collect();
    assert!(queries.len() >= 16);
    assert_all_agree(&coll, &queries, "selectivity");
}

/// One object with an id in the millions must cost an index with dense-term
/// bitmaps nothing: the id universe is `max_id + 1`, no term of a 4K-object
/// corpus is dense in it, so the bitmaps go instead of growing to cover it.
#[test]
fn far_id_insert_drops_dense_bitmaps() {
    let coll = dense_terms();
    let queries = dense_terms_queries(&coll);
    let far = Object::new(4_000_000, 10, 20, coll.get(0).desc.clone());
    let mut oracle = BruteForce::build(coll.objects());
    oracle.insert(&far);

    fn check<I: TemporalIrIndex>(
        mut index: I,
        bitmaps: fn(&I) -> &ElemBitmaps,
        far: &Object,
        oracle: &BruteForce,
        queries: &[TimeTravelQuery],
    ) {
        let (n, bytes) = (bitmaps(&index).iter().count(), bitmaps(&index).size_bytes());
        assert!(n >= 8 && bytes >= n * 4_000 / 8, "{n} bitmaps, {bytes} B");
        let hierarchy_bytes = index.size_bytes() - bytes;
        index.insert(far);
        assert_eq!(bitmaps(&index).iter().count(), 0, "{}", index.name());
        let grown = index.size_bytes() as f64 / hierarchy_bytes as f64;
        assert!(grown < 1.02, "{}: {grown:.3}x its hierarchy", index.name());
        for q in queries {
            let mut got = index.query(q);
            got.sort_unstable();
            assert_eq!(got, oracle.answer(q), "{} q={q:?}", index.name());
        }
    }
    let perf = IrHintPerf::build(&coll);
    check(perf, IrHintPerf::bitmaps, &far, &oracle, &queries);
    let size = IrHintSize::build(&coll);
    check(size, IrHintSize::bitmaps, &far, &oracle, &queries);
    check(Tif::build(&coll), Tif::bitmaps, &far, &oracle, &queries);
    let slicing = TifSlicing::build(&coll);
    check(slicing, TifSlicing::bitmaps, &far, &oracle, &queries);
    let sharding = TifSharding::build(&coll);
    check(sharding, TifSharding::bitmaps, &far, &oracle, &queries);
    for cfg in [TifHintConfig::binary_search(), TifHintConfig::merge_sort()] {
        let hint = TifHint::build(&coll, cfg);
        check(hint, TifHint::bitmaps, &far, &oracle, &queries);
    }
    let hybrid = TifHintSlicing::build(&coll);
    check(hybrid, TifHintSlicing::bitmaps, &far, &oracle, &queries);
}

/// A dense term's step in an IR-first index leaves the candidates as a
/// bitmap when they are dense too (a word-AND: more candidates than the
/// universe / 32). If the next term qualifies for a bitmap but never got
/// one — it crossed the density bound through single inserts, and only
/// `insert_batch` promotes — the policy's own merge-mark, take-once or
/// sorted-array round must run on the candidates handed back in array form.
#[test]
fn a_sparse_step_after_a_word_and_sees_the_handed_back_candidates() {
    // 800 objects at build. Element 0 seeds (80 objects); element 1 is dense
    // (267); element 2 is in 89, under the 100 the density rule asks of 800
    // ids. Elements 3..10 fill in, so every object has a description.
    let build_objects = (0..800u32).map(|i| {
        let st = u64::from(i * 37 % 900);
        let mut desc = vec![3 + i % 7];
        desc.extend(
            [(0, 10), (1, 3), (2, 9)]
                .iter()
                .filter(|(_, k)| i % k == 0)
                .map(|(e, _)| e),
        );
        Object::new(i, st, st + u64::from(i % 50), desc)
    });
    let coll = Collection::new(build_objects.collect());
    // Then 300 single inserts with element 2: 389 of 1100 ids, dense but
    // never promoted. The plan stays 0 (80) < 1 (267) < 2 (389).
    let singles: Vec<Object> = (800..1100u32)
        .map(|i| Object::new(i, u64::from(i % 900), u64::from(i % 900) + 20, vec![2]))
        .collect();
    let mut oracle = BruteForce::build(coll.objects());
    singles.iter().for_each(|o| oracle.insert(o));
    // Objects with 0 and 1 but not 2 (every 30th but not every 90th) reach
    // the last step; only it can drop them.
    let queries = [
        TimeTravelQuery::new(0, 2000, vec![0, 1, 2]),
        TimeTravelQuery::new(0, 450, vec![0, 1, 2]),
    ];
    assert_eq!(oracle.answer(&queries[0]).len(), 9);

    fn check<P: TermPartition>(
        mut index: PerTerm<P>,
        singles: &[Object],
        oracle: &BruteForce,
        queries: &[TimeTravelQuery],
    ) {
        singles.iter().for_each(|o| index.insert(o));
        let name = index.name();
        let bitmaps = index.bitmaps();
        assert!(bitmaps.bitmap(1).is_some(), "{name}: element 1 is dense");
        assert!(
            bitmaps.qualifies(index.freq(2)),
            "{name}: element 2 qualifies"
        );
        assert!(
            bitmaps.bitmap(2).is_none(),
            "{name}: but was never promoted"
        );
        let mut scratch = QueryScratch::default();
        for q in queries {
            let mut got = Vec::new();
            index.query_into(q, &mut scratch, &mut got);
            assert!(
                scratch.last_stats().word_and_steps >= 1,
                "{name}: the dense step must word-AND, q={q:?}"
            );
            got.sort_unstable();
            assert_eq!(got, oracle.answer(q), "{name} q={q:?}");
        }
    }
    check(Tif::build(&coll), &singles, &oracle, &queries);
    check(TifSlicing::build(&coll), &singles, &oracle, &queries);
    check(TifSharding::build(&coll), &singles, &oracle, &queries);
    for cfg in [TifHintConfig::binary_search(), TifHintConfig::merge_sort()] {
        check(TifHint::build(&coll, cfg), &singles, &oracle, &queries);
    }
    check(TifHintSlicing::build(&coll), &singles, &oracle, &queries);
}

#[test]
fn queries_past_the_indexed_domain_are_safe() {
    let coll = eclog_like(0.005, 2);
    let d = coll.domain();
    let oracle = BruteForce::build(coll.objects());
    let probe_elem = coll
        .objects()
        .iter()
        .flat_map(|o| o.desc.iter().copied())
        .next()
        .unwrap();
    let queries = vec![
        TimeTravelQuery::new(0, u64::MAX, vec![probe_elem]),
        TimeTravelQuery::new(d.end + 10, d.end + 20, vec![probe_elem]),
        TimeTravelQuery::new(0, 0, vec![probe_elem]),
    ];
    for idx in all_indexes(&coll) {
        for q in &queries {
            let mut got = idx.query(q);
            got.sort_unstable();
            got.dedup();
            assert_eq!(got, oracle.answer(q), "{} q={q:?}", idx.name());
        }
    }
}

#[test]
fn batch_insert_override_equals_one_by_one() {
    // The irHINT variants override insert_batch with a merge-rebuild; for
    // every method the batch path must be indistinguishable from the
    // per-object one.
    let coll = generate(&SyntheticConfig::default().scaled(0.001));
    let (offline, batch) = coll.split_for_updates(0.2);
    let queries = workload(&coll, &WorkloadSpec::default(), 25, 19);

    let mut batched = all_indexes(&offline);
    let mut single = all_indexes(&offline);
    for idx in batched.iter_mut() {
        idx.insert_batch(&batch);
    }
    for idx in single.iter_mut() {
        for o in &batch {
            idx.insert(o);
        }
    }
    let oracle = BruteForce::build(coll.objects());
    for q in &queries {
        let want = oracle.answer(q);
        for idx in batched.iter().chain(&single) {
            let mut got = idx.query(q);
            got.sort_unstable();
            assert_eq!(got, want, "{} q={q:?}", idx.name());
        }
    }
}
