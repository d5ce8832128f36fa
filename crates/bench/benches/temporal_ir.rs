//! Criterion version of the headline comparison (Figure 11 at reduced
//! scale): every temporal-IR index answering the default workload on the
//! two real-shaped datasets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use tir_bench::{build_method, datasets, COMPETITION, TABLE5};
use tir_datagen::{workload, Extent, WorkloadSpec};

fn bench_methods(c: &mut Criterion) {
    for d in datasets(1.0) {
        let mut group = c.benchmark_group(format!("query_{}", d.name));
        let qs = workload(&d.coll, &WorkloadSpec::default(), 200, 7);
        for m in TABLE5 {
            let built = build_method(m, &d.coll);
            group.bench_with_input(BenchmarkId::new(m.paper_name(), "ext0.1%"), &qs, |b, qs| {
                b.iter(|| {
                    let mut n = 0;
                    for q in qs {
                        n += built.index.query(q).len();
                    }
                    black_box(n)
                })
            });
        }
        group.finish();
    }
}

fn bench_extent_sweep(c: &mut Criterion) {
    let d = &datasets(1.0)[0];
    let mut group = c.benchmark_group("extent_sweep_ECLOG");
    for extent in [0.001f64, 0.01, 0.1, 1.0] {
        let qs = workload(
            &d.coll,
            &WorkloadSpec {
                extent: Extent::Fraction(extent),
                ..Default::default()
            },
            100,
            7,
        );
        for m in COMPETITION {
            let built = build_method(m, &d.coll);
            group.bench_with_input(
                BenchmarkId::new(m.paper_name(), format!("{}%", extent * 100.0)),
                &qs,
                |b, qs| {
                    b.iter(|| {
                        let mut n = 0;
                        for q in qs {
                            n += built.index.query(q).len();
                        }
                        black_box(n)
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_builds(c: &mut Criterion) {
    let d = &datasets(1.0)[0];
    let mut group = c.benchmark_group("build_ECLOG");
    group.sample_size(10);
    for m in TABLE5 {
        group.bench_function(m.paper_name(), |b| {
            b.iter(|| black_box(build_method(m, &d.coll).index.size_bytes()))
        });
    }
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
    targets = bench_methods, bench_extent_sweep, bench_builds
}
criterion_main!(benches);
