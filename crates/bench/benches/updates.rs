//! Criterion version of Tables 6 and 7: batch insertion and tombstone
//! deletion across all methods.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use tir_bench::{build_method, datasets, TABLE5};
use tir_core::insert_batch;

fn bench_insertions(c: &mut Criterion) {
    let d = &datasets(0.5)[0];
    let (offline, holdout) = d.coll.split_for_updates(0.10);
    let mut group = c.benchmark_group("insert_10pct_ECLOG");
    group.sample_size(10);
    for m in TABLE5 {
        group.bench_function(BenchmarkId::new(m.paper_name(), holdout.len()), |b| {
            b.iter_batched(
                || build_method(m, &offline).index,
                |mut index| {
                    insert_batch(index.as_mut(), &holdout);
                    black_box(index.size_bytes())
                },
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

fn bench_deletions(c: &mut Criterion) {
    let d = &datasets(0.5)[0];
    let victims: Vec<_> = d
        .coll
        .objects()
        .iter()
        .take(d.coll.len() / 10)
        .cloned()
        .collect();
    let mut group = c.benchmark_group("delete_10pct_ECLOG");
    group.sample_size(10);
    for m in TABLE5 {
        group.bench_function(BenchmarkId::new(m.paper_name(), victims.len()), |b| {
            b.iter_batched(
                || build_method(m, &d.coll).index,
                |mut index| {
                    let mut found = 0;
                    for v in &victims {
                        if index.delete(v) {
                            found += 1;
                        }
                    }
                    black_box(found)
                },
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_insertions, bench_deletions
}
criterion_main!(benches);
