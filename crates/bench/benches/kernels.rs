//! Micro-benchmarks of the sorted-set intersection kernels: merge vs
//! galloping, across size ratios — the machinery behind every
//! postings-list intersection in the library.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use tir_invidx::{intersect_gallop_into, intersect_merge_into};

fn sorted(n: usize, stride: u32, offset: u32) -> Vec<u32> {
    (0..n as u32).map(|i| i * stride + offset).collect()
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersection");
    let postings = sorted(100_000, 3, 0);
    for cand_size in [100usize, 1_000, 10_000, 100_000] {
        let cands = sorted(cand_size, 300_000 / cand_size as u32, 1);
        for (name, f) in [
            (
                "merge",
                intersect_merge_into as fn(&[u32], &[u32], &mut Vec<u32>),
            ),
            ("gallop", intersect_gallop_into),
        ] {
            group.bench_with_input(
                BenchmarkId::new(name, cand_size),
                &(&cands, &postings),
                |b, (c_, p)| {
                    let mut out = Vec::with_capacity(cand_size);
                    b.iter(|| {
                        out.clear();
                        f(c_, p, &mut out);
                        black_box(out.len())
                    })
                },
            );
        }
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_kernels
}
criterion_main!(benches);
