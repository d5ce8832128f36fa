//! Qualitative claims of the paper, asserted as integration tests: these
//! pin the *shape* the benchmarks must reproduce (who is smaller, who
//! replicates, which knob moves what).

use temporal_ir::core::prelude::*;
use temporal_ir::datagen::{eclog_like, generate, workload, SyntheticConfig, WorkloadSpec};
use temporal_ir::hint::{
    brute_force_overlap, slice_of, DivisionOrder, Hint, HintConfig, IntervalRecord,
};

fn test_collection() -> Collection {
    generate(&SyntheticConfig::default().scaled(0.002))
}

#[test]
fn irhint_size_variant_is_smaller_than_perf_variant() {
    // Section 4.2: decoupling the temporal attribute stores it once per
    // division entry instead of once per (entry, element).
    let coll = eclog_like(0.01, 3);
    let perf = IrHintPerf::build_with_m(&coll, 6);
    let size = IrHintSize::build_with_m(&coll, 6);
    assert!(
        (size.size_bytes() as f64) < 0.8 * perf.size_bytes() as f64,
        "size {} vs perf {}",
        size.size_bytes(),
        perf.size_bytes()
    );
}

#[test]
fn sharding_has_no_replication() {
    // Section 2.2: sharding groups by t_st, "completely avoiding the need
    // for replication".
    let coll = test_collection();
    let sharding = TifSharding::build(&coll);
    let raw_postings: usize = coll.objects().iter().map(|o| o.desc.len()).sum();
    let mut stored = 0;
    sharding
        .for_each_term(|_, shards| stored += shards.iter().map(|s| s.entries.len()).sum::<usize>());
    assert_eq!(stored, raw_postings);
}

#[test]
fn slicing_replication_grows_with_slice_count() {
    let coll = test_collection();
    let raw_postings: usize = coll.objects().iter().map(|o| o.desc.len()).sum();
    let stored = |k| {
        let mut n = 0;
        let index = TifSlicing::build_with_slices(&coll, k);
        index.for_each_term(|_, t| n += t.iter().map(|(_, sub)| sub.len()).sum::<usize>());
        n
    };
    assert_eq!(stored(1), raw_postings);
    assert!(stored(64) > stored(1));
}

#[test]
fn hint_beats_flat_structures_on_small_range_queries() {
    // The motivation for using HINT at all ([19, 20]): on selective range
    // queries it reads far fewer entries than a coarse grid. Asserted on
    // the entries each structure has to look at — every relevant HINT
    // division in full against every grid cell the query overlaps — not on
    // the clock. The grid is the equal-width one of the Slicing technique:
    // a record is stored in every cell its span covers, so a query reads it
    // once per cell that both spans cover.
    let n = 60_000u32;
    let records: Vec<IntervalRecord> = (0..n)
        .map(|i| {
            let st = (i as u64 * 2654435761) % 1_000_000;
            IntervalRecord {
                id: i,
                st,
                end: st + 1 + (i as u64 % 500),
            }
        })
        .collect();
    let hint = Hint::build(&records, HintConfig::default());
    let min = records.iter().map(|r| r.st).min().unwrap();
    let max = records.iter().map(|r| r.end).max().unwrap();
    let cell = |t| slice_of(t, min, max, 8) as usize;
    let mut cell_entries = [0usize; 8];
    for r in &records {
        cell_entries[cell(r.st)..=cell(r.end)]
            .iter_mut()
            .for_each(|n| *n += 1);
    }

    let queries: Vec<(u64, u64)> = (0..200)
        .map(|i| {
            let st = (i * 4999) % 990_000;
            (st, st + 1000)
        })
        .collect();

    let (mut h_read, mut g_read) = (0usize, 0usize);
    for &(a, b) in &queries {
        let hits = hint.range_query(a, b).len();
        assert_eq!(hits, brute_force_overlap(&records, a, b).len());
        hint.visit_relevant(a, b, |view, _mode| h_read += view.ids.len());
        g_read += cell_entries[cell(a)..=cell(b)].iter().sum::<usize>();
    }
    assert!(
        h_read * 10 <= g_read,
        "HINT read {h_read} entries, an 8-cell grid {g_read}: want a 10x margin"
    );
}

#[test]
fn all_interval_indexes_agree_with_each_other() {
    let records: Vec<IntervalRecord> = (0..5000u32)
        .map(|i| {
            let st = (i as u64 * 48271) % 100_000;
            IntervalRecord {
                id: i,
                st,
                end: st + (i as u64 % 997),
            }
        })
        .collect();
    let hints = [DivisionOrder::Beneficial, DivisionOrder::ById]
        .map(|order| (order, Hint::build(&records, HintConfig { m: None, order })));
    for q in [
        (0u64, 10u64),
        (500, 50_000),
        (99_000, 120_000),
        (12_345, 12_345),
    ] {
        let want = brute_force_overlap(&records, q.0, q.1);
        for (order, hint) in &hints {
            let mut got = hint.range_query(q.0, q.1);
            got.sort_unstable();
            got.dedup();
            assert_eq!(got, want, "{order:?} q={q:?}");
        }
    }
}

#[test]
fn less_selective_queries_are_slower_for_every_method() {
    // Section 5.4: throughput drops as the query interval extent grows.
    // Asserted on its deterministic cause, not on the clock: every method
    // examines more postings (the planner's `scanned` count, seed scans
    // included) and reports more hits for the wider extent.
    let coll = eclog_like(0.02, 11);
    let narrow = workload(
        &coll,
        &WorkloadSpec {
            extent: temporal_ir::datagen::Extent::Fraction(0.001),
            ..Default::default()
        },
        150,
        1,
    );
    let wide = workload(
        &coll,
        &WorkloadSpec {
            extent: temporal_ir::datagen::Extent::Fraction(0.5),
            ..Default::default()
        },
        150,
        1,
    );
    for m in Method::ALL {
        let idx = m.build(&coll);
        let run = |qs: &[TimeTravelQuery]| {
            let (mut hits, mut scanned) = (0usize, 0u64);
            let mut out = Vec::new();
            for q in qs {
                // A scratch of its own, so the counters are this query's.
                let mut scratch = QueryScratch::default();
                out.clear();
                idx.query_into(q, &mut scratch, &mut out);
                hits += out.len();
                scratch.reset();
                scanned += scratch.last_stats().scanned;
            }
            (hits, scanned)
        };
        let (n_narrow, work_narrow) = run(&narrow);
        let (n_wide, work_wide) = run(&wide);
        assert!(n_wide > n_narrow, "{m}: wide queries must return more");
        assert!(
            work_wide > work_narrow,
            "{m}: wide queries must cost more ({work_wide} vs {work_narrow} postings scanned)"
        );
    }
}

#[test]
fn merge_sort_variant_builds_faster_than_binary_search_variant() {
    // Table 5 discussion: the merge-sort variant has the lowest
    // construction time among the tIF+HINT family because ids arrive in
    // order and no beneficial re-sorting happens... while the
    // binary-search variant uses a larger m (10 vs 5) and sorts.
    // Asserted on what the builder has to produce, not on the clock: the
    // smaller m means fewer levels, fewer partitions to allocate and
    // fewer stored (replicated) entries to place.
    let coll = eclog_like(0.02, 13);
    assert!(TifHintConfig::merge_sort().m < TifHintConfig::binary_search().m);
    let shape = |index: &TifHint| {
        let (mut levels, mut partitions, mut entries) = (0, 0, 0);
        index.for_each_term(|_, hint| {
            levels = levels.max(hint.num_levels());
            partitions += hint.num_partitions();
            entries += hint.num_entries();
        });
        (levels, partitions, entries)
    };
    let bs = shape(&TifHint::build(&coll, TifHintConfig::binary_search()));
    let ms = shape(&TifHint::build(&coll, TifHintConfig::merge_sort()));
    assert!(ms.0 < bs.0, "levels: ms {} vs bs {}", ms.0, bs.0);
    assert!(ms.1 < bs.1, "partitions: ms {} vs bs {}", ms.1, bs.1);
    assert!(ms.2 < bs.2, "stored entries: ms {} vs bs {}", ms.2, bs.2);
}

#[test]
fn running_example_reproduces_figure_structures() {
    // Figure 2 (slicing, 4 slices) / Figure 3 (sharding) / Figure 5
    // (tIF+HINT) / Figure 6+Table 2 (irHINT) all answer the canonical
    // query with {o2, o4, o7}.
    let coll = Collection::running_example();
    let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
    let answers: Vec<Vec<ObjectId>> = vec![
        {
            let i = TifSlicing::build_with_slices(&coll, 4);
            let mut a = i.query(&q);
            a.sort_unstable();
            a
        },
        {
            let i = TifSharding::build(&coll);
            let mut a = i.query(&q);
            a.sort_unstable();
            a
        },
        {
            let i = TifHint::build(
                &coll,
                TifHintConfig {
                    strategy: IntersectStrategy::BinarySearch,
                    m: 3,
                },
            );
            let mut a = i.query(&q);
            a.sort_unstable();
            a
        },
        {
            let i = IrHintPerf::build_with_m(&coll, 3);
            let mut a = i.query(&q);
            a.sort_unstable();
            a
        },
        {
            let i = IrHintSize::build_with_m(&coll, 3);
            let mut a = i.query(&q);
            a.sort_unstable();
            a
        },
    ];
    for a in answers {
        assert_eq!(a, vec![1, 3, 6]);
    }
    // I[a] of the base tIF contains o1, o2, o4, o7 (Section 2.2).
    let tif = Tif::build(&coll);
    let mut i_a = Vec::new();
    tif.for_each_term(|e, list| {
        if e == 0 {
            i_a = list.ids.clone();
        }
    });
    assert_eq!(i_a, vec![0, 1, 3, 6]);
}
