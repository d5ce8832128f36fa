//! Degenerate-input integration tests: every index must behave on empty
//! collections, single objects, identical intervals, point domains and
//! adversarial queries.

use temporal_ir::core::prelude::*;

fn build_all(coll: &Collection) -> Vec<Box<dyn TemporalIrIndex + Send + Sync>> {
    Method::ALL.iter().map(|m| m.build(coll)).collect()
}

#[test]
fn empty_collection() {
    let coll = Collection::new(vec![]);
    for idx in build_all(&coll) {
        assert!(
            idx.query(&TimeTravelQuery::new(0, 100, vec![0])).is_empty(),
            "{}",
            idx.name()
        );
        assert!(idx.query(&TimeTravelQuery::new(0, 100, vec![])).is_empty());
    }
}

#[test]
fn empty_collection_supports_inserts() {
    let coll = Collection::with_domain_hint(vec![], 0, 1000);
    let q = TimeTravelQuery::new(40, 60, vec![1, 2]);
    for mut idx in build_all(&coll) {
        idx.insert(&Object::new(0, 50, 55, vec![1, 2, 3]));
        idx.insert(&Object::new(1, 70, 90, vec![1, 2]));
        let got = idx.query(&q);
        assert_eq!(got, vec![0], "{}", idx.name());
    }
}

#[test]
fn single_object_all_queries() {
    let coll = Collection::new(vec![Object::new(0, 10, 20, vec![5])]);
    for idx in build_all(&coll) {
        assert_eq!(idx.query(&TimeTravelQuery::new(20, 30, vec![5])), vec![0]);
        assert_eq!(idx.query(&TimeTravelQuery::new(0, 10, vec![5])), vec![0]);
        assert!(idx.query(&TimeTravelQuery::new(21, 30, vec![5])).is_empty());
        assert!(idx.query(&TimeTravelQuery::new(10, 20, vec![4])).is_empty());
        assert_eq!(
            idx.query(&TimeTravelQuery::new(15, 15, vec![5, 5, 5])),
            vec![0]
        );
    }
}

#[test]
fn identical_intervals_mass() {
    // Everything in one partition: stresses single-division paths.
    let objects: Vec<Object> = (0..500u32)
        .map(|i| Object::new(i, 100, 200, vec![i % 3, 3 + i % 5]))
        .collect();
    let coll = Collection::new(objects);
    let oracle = BruteForce::build(coll.objects());
    for idx in build_all(&coll) {
        for q in [
            TimeTravelQuery::new(150, 150, vec![0, 3]),
            TimeTravelQuery::new(0, 99, vec![0]),
            TimeTravelQuery::new(200, 300, vec![1, 4]),
        ] {
            let mut got = idx.query(&q);
            got.sort_unstable();
            got.dedup();
            assert_eq!(got, oracle.answer(&q), "{} q={q:?}", idx.name());
        }
    }
}

#[test]
fn point_domain() {
    // All timestamps identical: domain has a single raw value.
    let objects: Vec<Object> = (0..50u32)
        .map(|i| Object::new(i, 7, 7, vec![i % 4]))
        .collect();
    let coll = Collection::new(objects);
    let oracle = BruteForce::build(coll.objects());
    for idx in build_all(&coll) {
        for q in [
            TimeTravelQuery::new(7, 7, vec![2]),
            TimeTravelQuery::new(0, 100, vec![0, 1]),
            TimeTravelQuery::new(8, 9, vec![0]),
        ] {
            let mut got = idx.query(&q);
            got.sort_unstable();
            assert_eq!(got, oracle.answer(&q), "{} q={q:?}", idx.name());
        }
    }
}

#[test]
fn huge_sparse_domain() {
    // Timestamps near u63 bounds with huge gaps: discretization must not
    // overflow or collide fatally.
    let big = 1u64 << 62;
    let objects = vec![
        Object::new(0, 0, 10, vec![1]),
        Object::new(1, big, big + 5, vec![1]),
        Object::new(2, big / 2, big / 2 + 1_000_000, vec![1, 2]),
    ];
    let coll = Collection::new(objects);
    let oracle = BruteForce::build(coll.objects());
    for idx in build_all(&coll) {
        for q in [
            TimeTravelQuery::new(0, 5, vec![1]),
            TimeTravelQuery::new(big, big, vec![1]),
            TimeTravelQuery::new(0, u64::MAX, vec![1]),
            TimeTravelQuery::new(big / 2 + 10, big / 2 + 20, vec![2]),
        ] {
            let mut got = idx.query(&q);
            got.sort_unstable();
            assert_eq!(got, oracle.answer(&q), "{} q={q:?}", idx.name());
        }
    }
}

#[test]
fn delete_everything_then_insert_again() {
    let objects: Vec<Object> = (0..40u32)
        .map(|i| Object::new(i, i as u64 * 10, i as u64 * 10 + 25, vec![i % 2, 2]))
        .collect();
    let coll = Collection::new(objects);
    let q = TimeTravelQuery::new(0, 1000, vec![2]);
    for mut idx in build_all(&coll) {
        for o in coll.objects() {
            assert!(idx.delete(o), "{}", idx.name());
        }
        assert!(idx.query(&q).is_empty(), "{} after full delete", idx.name());
        // Fresh ids after the tombstoned range.
        idx.insert(&Object::new(100, 50, 60, vec![2]));
        assert_eq!(idx.query(&q), vec![100], "{}", idx.name());
    }
}

#[test]
fn duplicate_elements_in_query_and_description() {
    let coll = Collection::new(vec![
        Object::new(0, 0, 10, vec![3, 3, 1, 1]), // Object::new dedups
        Object::new(1, 5, 15, vec![1]),
    ]);
    assert_eq!(coll.get(0).desc, vec![1, 3]);
    for idx in build_all(&coll) {
        let mut got = idx.query(&TimeTravelQuery::new(0, 20, vec![1, 1, 1]));
        got.sort_unstable();
        assert_eq!(got, vec![0, 1], "{}", idx.name());
    }
}

#[test]
fn an_expired_deadline_stops_an_all_sparse_plan() {
    // Three sparse terms: every 10th, 11th and 12th of 100 000 objects, so
    // no term has a dense bitmap and every non-seed step is a policy's own.
    // Over the whole domain the seed alone scans 8 334 postings, past the
    // deadline probe's stride, so the first non-seed step must see a
    // deadline that has passed.
    let objects: Vec<Object> = (0..100_000u32)
        .map(|i| {
            let desc = [10, 11, 12].into_iter().filter(|k| i % k == 0).collect();
            Object::new(i, u64::from(i), u64::from(i) + 5, desc)
        })
        .collect();
    let coll = Collection::new(objects);
    let oracle = BruteForce::build(coll.objects());
    let q = TimeTravelQuery::new(0, 100_005, vec![10, 11, 12]);
    let mut scratch = QueryScratch::default();
    let mut out = Vec::new();
    for idx in build_all(&coll) {
        // Already past when the plan probes the clock.
        scratch.set_deadline(Some(std::time::Instant::now()));
        out.clear();
        idx.query_into(&q, &mut scratch, &mut out);
        assert!(scratch.timed_out(), "{}", idx.name());

        scratch.set_deadline(None);
        out.clear();
        idx.query_into(&q, &mut scratch, &mut out);
        assert!(!scratch.timed_out(), "{}", idx.name());
        out.sort_unstable();
        assert_eq!(out, oracle.answer(&q), "{}", idx.name());
    }
}
