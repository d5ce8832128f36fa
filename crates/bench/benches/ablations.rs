//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * HINT division ordering: beneficial sorting vs id order (what the
//!   sorting optimization buys a plain range query);
//! * irHINT `m`: IR-aware heuristic vs the interval-only cost model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use tir_bench::datasets;
use tir_core::{IrHintPerf, TemporalIrIndex};
use tir_datagen::{workload, WorkloadSpec};
use tir_hint::{DivisionOrder, Hint, HintConfig, IntervalRecord};

const N: u32 = 100_000;
const DOMAIN: u64 = 10_000_000;

fn records() -> Vec<IntervalRecord> {
    (0..N)
        .map(|i| {
            let st = (i as u64).wrapping_mul(2654435761) % (DOMAIN - 50_000);
            let len = 1 + (i as u64).wrapping_mul(48271) % 50_000;
            IntervalRecord {
                id: i,
                st,
                end: st + len,
            }
        })
        .collect()
}

fn bench_division_order(c: &mut Criterion) {
    let recs = records();
    let mut group = c.benchmark_group("hint_division_order");
    let qs: Vec<(u64, u64)> = (0..256u64)
        .map(|i| {
            let st = (i * 7_919_993) % (DOMAIN - 10_000);
            (st, st + 10_000)
        })
        .collect();
    for (name, order) in [
        ("beneficial", DivisionOrder::Beneficial),
        ("by_id", DivisionOrder::ById),
    ] {
        let hint = Hint::build(&recs, HintConfig { m: None, order });
        group.bench_function(BenchmarkId::new(name, "0.1%"), |b| {
            b.iter(|| {
                let mut n = 0;
                for &(a, z) in &qs {
                    n += hint.range_query(a, z).len();
                }
                black_box(n)
            })
        });
    }
    group.finish();
}

fn bench_parallel_scaling(c: &mut Criterion) {
    let d = &datasets(1.0)[0];
    let qs = workload(&d.coll, &WorkloadSpec::default(), 400, 7);
    let idx = IrHintPerf::build(&d.coll);
    let mut group = c.benchmark_group("parallel_query_scaling");
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| black_box(tir_bench::par_throughput(&idx, &qs, threads)))
        });
    }
    group.finish();
}

fn bench_irhint_m_choice(c: &mut Criterion) {
    let d = &datasets(1.0)[0];
    let qs = workload(&d.coll, &WorkloadSpec::default(), 150, 7);
    let mut group = c.benchmark_group("irhint_m_choice");
    let ir_aware = IrHintPerf::build(&d.coll); // IR-aware heuristic
    let records: Vec<IntervalRecord> = d
        .coll
        .objects()
        .iter()
        .map(|o| IntervalRecord {
            id: o.id,
            st: o.interval.st,
            end: o.interval.end,
        })
        .collect();
    let dom = d.coll.domain();
    let m_interval_only = tir_hint::cost::choose_m(&records, dom.st, dom.end);
    let cost_model = IrHintPerf::build_with_m(&d.coll, m_interval_only);
    for (name, idx) in [
        (format!("ir_aware(m={})", ir_aware.m()), &ir_aware),
        (
            format!("interval_cost_model(m={m_interval_only})"),
            &cost_model,
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut n = 0;
                for q in &qs {
                    n += idx.query(q).len();
                }
                black_box(n)
            })
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
    targets = bench_division_order, bench_irhint_m_choice, bench_parallel_scaling
}
criterion_main!(benches);
