//! Integration tests spanning crates: generated datasets (tir-datagen)
//! indexed by every method (tir-core) must agree with the oracle and with
//! each other, before and after updates.

use temporal_ir::core::prelude::*;
use temporal_ir::datagen::{
    eclog_like, generate, selectivity_binned, wikipedia_like, workload, ElemSource, Extent,
    SyntheticConfig, WorkloadSpec,
};

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

#[test]
fn agree_after_90_10_update_split() {
    // The Table 6 protocol: index 90% offline, insert the rest, then
    // delete some — answers must track the oracle throughout.
    let coll = generate(&SyntheticConfig::default().scaled(0.001));
    let (offline, batch) = coll.split_for_updates(0.10);

    let mut indexes = all_indexes(&offline);
    let mut oracle = BruteForce::build(offline.objects());
    for o in &batch {
        oracle.insert(o);
        for idx in indexes.iter_mut() {
            idx.insert(o);
        }
    }
    // Delete every 7th original object.
    for i in (0..offline.len()).step_by(7) {
        let victim = offline.get(i as u32);
        assert!(oracle.delete(victim));
        for idx in indexes.iter_mut() {
            assert!(idx.delete(victim), "{} failed to delete {i}", idx.name());
        }
    }
    let queries = workload(&coll, &WorkloadSpec::default(), 25, 31);
    for idx in &indexes {
        for q in &queries {
            let mut got = idx.query(q);
            got.sort_unstable();
            assert_eq!(got, oracle.answer(q), "{} after updates", idx.name());
        }
    }
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
