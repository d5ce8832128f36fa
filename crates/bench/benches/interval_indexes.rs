//! Micro-benchmarks of the interval substrates: HINT against the 1D-grid
//! and the interval tree, across query extents — the motivation for
//! building on HINT at all (Section 1 / [19, 20]).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use tir_hint::{Grid1D, Hint, HintConfig, IntervalRecord, IntervalTree};

const N: u32 = 100_000;
const DOMAIN: u64 = 10_000_000;

fn records() -> Vec<IntervalRecord> {
    (0..N)
        .map(|i| {
            let st = (i as u64).wrapping_mul(2654435761) % (DOMAIN - 10_000);
            let len = 1 + (i as u64).wrapping_mul(48271) % 10_000;
            IntervalRecord {
                id: i,
                st,
                end: st + len,
            }
        })
        .collect()
}

fn queries(extent: u64) -> Vec<(u64, u64)> {
    (0..256u64)
        .map(|i| {
            let st = (i * 7_919_993) % (DOMAIN - extent);
            (st, st + extent)
        })
        .collect()
}

fn bench_range_queries(c: &mut Criterion) {
    let recs = records();
    let hint = Hint::build(&recs, HintConfig::default());
    let grid_coarse = Grid1D::build(&recs, 100);
    let grid_fine = Grid1D::build(&recs, 10_000);
    let tree = IntervalTree::build(&recs);

    let mut group = c.benchmark_group("interval_range_query");
    for extent_pct in [0.001f64, 0.01, 0.1] {
        let extent = (DOMAIN as f64 * extent_pct / 100.0) as u64;
        let qs = queries(extent.max(1));
        group.bench_with_input(BenchmarkId::new("hint", extent_pct), &qs, |b, qs| {
            b.iter(|| {
                let mut n = 0;
                for &(a, z) in qs {
                    n += hint.range_query(a, z).len();
                }
                black_box(n)
            })
        });
        group.bench_with_input(BenchmarkId::new("grid100", extent_pct), &qs, |b, qs| {
            b.iter(|| {
                let mut n = 0;
                for &(a, z) in qs {
                    n += grid_coarse.range_query(a, z).len();
                }
                black_box(n)
            })
        });
        group.bench_with_input(BenchmarkId::new("grid10k", extent_pct), &qs, |b, qs| {
            b.iter(|| {
                let mut n = 0;
                for &(a, z) in qs {
                    n += grid_fine.range_query(a, z).len();
                }
                black_box(n)
            })
        });
        group.bench_with_input(
            BenchmarkId::new("interval_tree", extent_pct),
            &qs,
            |b, qs| {
                b.iter(|| {
                    let mut n = 0;
                    for &(a, z) in qs {
                        n += tree.range_query(a, z).len();
                    }
                    black_box(n)
                })
            },
        );
    }
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    let recs = records();
    let mut group = c.benchmark_group("interval_build");
    group.sample_size(10);
    group.bench_function("hint", |b| {
        b.iter(|| black_box(Hint::build(&recs, HintConfig::default())))
    });
    group.bench_function("grid100", |b| {
        b.iter(|| black_box(Grid1D::build(&recs, 100)))
    });
    group.bench_function("interval_tree", |b| {
        b.iter(|| black_box(IntervalTree::build(&recs)))
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_range_queries, bench_build
}
criterion_main!(benches);
