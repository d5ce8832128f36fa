//! One function per table / figure of the paper's evaluation. Each prints
//! the same rows/series the paper plots; EXPERIMENTS.md records a
//! paper-vs-measured comparison of the shapes.

use std::time::Instant;

use tir_core::prelude::*;
use tir_datagen::{
    selectivity_binned, workload, ElemSource, Extent, SyntheticConfig, WorkloadSpec,
    SELECTIVITY_LABELS,
};

use crate::harness::{
    build_method, datasets, throughput, Dataset, COMPETITION, TABLE5, TIF_HINT_VARIANTS,
};

/// Run options shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Multiplier on the harness default dataset sizes.
    pub scale: f64,
    /// Queries per measurement point (the paper uses 10K).
    pub queries: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: 1.0,
            queries: 1000,
            seed: 7,
        }
    }
}

/// The element-frequency bins of Section 5.1, in percent.
pub const FREQ_BINS: [(f64, f64); 4] = [(0.0, 0.1), (0.1, 1.0), (1.0, 10.0), (10.0, 100.0)];

/// Labels for [`FREQ_BINS`].
pub const FREQ_LABELS: [&str; 4] = ["[*-0.1]", "(0.1-1]", "(1-10]", "(10-*]"];

fn banner(title: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
}

fn default_queries(coll: &Collection, n: usize, seed: u64) -> Vec<TimeTravelQuery> {
    workload(coll, &WorkloadSpec::default(), n, seed)
}

/// Table 3 / Figure 7: dataset shape statistics.
pub fn table3(o: &Opts) {
    banner("Table 3: characteristics of (shape-matched) real datasets");
    println!("{:<28} {:>14} {:>14}", "", "ECLOG", "WIKIPEDIA");
    let ds = datasets(o.scale);
    let stats: Vec<_> = ds.iter().map(|d| d.coll.stats()).collect();
    let row = |name: &str, f: &dyn Fn(&CollectionStats) -> String| {
        println!("{:<28} {:>14} {:>14}", name, f(&stats[0]), f(&stats[1]));
    };
    row("Cardinality", &|s| s.cardinality.to_string());
    row("Time domain", &|s| s.domain_span.to_string());
    row("Min duration", &|s| s.min_duration.to_string());
    row("Max duration", &|s| s.max_duration.to_string());
    row("Avg duration", &|s| format!("{:.0}", s.avg_duration));
    row("Avg duration [%]", &|s| {
        format!("{:.1}", s.avg_duration_pct)
    });
    row("Dictionary size", &|s| s.dictionary_size.to_string());
    row("Min description", &|s| s.min_desc.to_string());
    row("Max description", &|s| s.max_desc.to_string());
    row("Avg description", &|s| format!("{:.0}", s.avg_desc));
    row("Avg elem frequency", &|s| format!("{:.0}", s.avg_elem_freq));
    row("Avg elem frequency [%]", &|s| {
        format!("{:.2}", s.avg_elem_freq_pct)
    });
}

/// Figure 8: tuning the number of slices for tIF+Slicing.
pub fn fig8(o: &Opts) {
    banner("Figure 8: tuning tIF+Slicing (# slices)");
    for d in datasets(o.scale) {
        println!("\n-- {} --", d.name);
        println!(
            "{:>8} {:>14} {:>12} {:>18}",
            "slices", "index [s]", "size [MiB]", "queries/sec"
        );
        let queries = default_queries(&d.coll, o.queries, o.seed);
        for k in [1u32, 10, 25, 50, 100, 150, 250] {
            let t0 = Instant::now();
            let idx = TifSlicing::build_with_slices(&d.coll, k);
            let build = t0.elapsed().as_secs_f64();
            let size = idx.size_bytes() as f64 / (1024.0 * 1024.0);
            let qps = throughput(&idx, &queries);
            println!("{k:>8} {build:>14.3} {size:>12.2} {qps:>18.0}");
        }
    }
}

/// Figure 9: tuning `m` for the tIF+HINT variants.
pub fn fig9(o: &Opts) {
    banner("Figure 9: tuning tIF+HINT variants (m)");
    for d in datasets(o.scale) {
        println!("\n-- {} --", d.name);
        let queries = default_queries(&d.coll, o.queries, o.seed);
        println!(
            "{:>4} | {:>10} {:>10} {:>12} | {:>10} {:>10} {:>12} | {:>10} {:>10} {:>12}",
            "m",
            "bs [s]",
            "bs [MiB]",
            "bs q/s",
            "ms [s]",
            "ms [MiB]",
            "ms q/s",
            "hyb [s]",
            "hyb [MiB]",
            "hyb q/s",
        );
        for m in [1u32, 3, 5, 8, 10, 13, 16] {
            let mut cells = Vec::new();
            for variant in 0..3 {
                let t0 = Instant::now();
                let idx: Box<dyn TemporalIrIndex> = match variant {
                    0 => Box::new(TifHint::build(
                        &d.coll,
                        TifHintConfig {
                            strategy: IntersectStrategy::BinarySearch,
                            m,
                        },
                    )),
                    1 => Box::new(TifHint::build(
                        &d.coll,
                        TifHintConfig {
                            strategy: IntersectStrategy::MergeSort,
                            m,
                        },
                    )),
                    _ => Box::new(TifHintSlicing::build_with_params(&d.coll, m, 50)),
                };
                let build = t0.elapsed().as_secs_f64();
                let size = idx.size_bytes() as f64 / (1024.0 * 1024.0);
                let qps = throughput(idx.as_ref(), &queries);
                cells.push((build, size, qps));
            }
            println!(
                "{:>4} | {:>10.3} {:>10.2} {:>12.0} | {:>10.3} {:>10.2} {:>12.0} | {:>10.3} {:>10.2} {:>12.0}",
                m,
                cells[0].0, cells[0].1, cells[0].2,
                cells[1].0, cells[1].1, cells[1].2,
                cells[2].0, cells[2].1, cells[2].2,
            );
        }
    }
}

fn freq_bin_queries(
    coll: &Collection,
    bin: (f64, f64),
    n: usize,
    seed: u64,
) -> Vec<TimeTravelQuery> {
    let spec = WorkloadSpec {
        extent: Extent::Fraction(0.001),
        num_elems: 3,
        source: ElemSource::FreqBin {
            lo_pct: bin.0,
            hi_pct: bin.1,
        },
    };
    workload(coll, &spec, n, seed)
}

fn print_throughput_panel(
    title: &str,
    methods: &[Method],
    indexes: &[Box<dyn TemporalIrIndex>],
    labels: &[String],
    workloads: &[Vec<TimeTravelQuery>],
) {
    println!("\n{title}");
    print!("{:<18}", "");
    for l in labels {
        print!(" {l:>12}");
    }
    println!();
    for (mi, m) in methods.iter().enumerate() {
        print!("{:<18}", m.paper_name());
        for qs in workloads {
            if qs.is_empty() {
                print!(" {:>12}", "-");
            } else {
                print!(" {:>12.0}", throughput(indexes[mi].as_ref(), qs));
            }
        }
        println!();
    }
}

fn run_panels(d: &Dataset, methods: &[Method], o: &Opts, extents: &[Extent]) {
    let indexes: Vec<Box<dyn TemporalIrIndex>> = methods
        .iter()
        .map(|&m| build_method(m, &d.coll).index)
        .collect();

    // Panel 1: query interval extent.
    let labels: Vec<String> = extents
        .iter()
        .map(|e| match e {
            Extent::Stabbing => "stab".to_string(),
            Extent::Fraction(f) => format!("{}%", f * 100.0),
        })
        .collect();
    let workloads: Vec<Vec<TimeTravelQuery>> = extents
        .iter()
        .map(|&extent| {
            workload(
                &d.coll,
                &WorkloadSpec {
                    extent,
                    ..Default::default()
                },
                o.queries,
                o.seed,
            )
        })
        .collect();
    print_throughput_panel(
        "query interval extent:",
        methods,
        &indexes,
        &labels,
        &workloads,
    );

    // Panel 2: |q.d|.
    let labels: Vec<String> = (1..=5).map(|k| format!("|q.d|={k}")).collect();
    let workloads: Vec<Vec<TimeTravelQuery>> = (1..=5)
        .map(|k| {
            workload(
                &d.coll,
                &WorkloadSpec {
                    num_elems: k,
                    ..Default::default()
                },
                o.queries,
                o.seed,
            )
        })
        .collect();
    print_throughput_panel(
        "number of query elements:",
        methods,
        &indexes,
        &labels,
        &workloads,
    );

    // Panel 3: element frequency bins.
    let labels: Vec<String> = FREQ_LABELS.iter().map(|s| s.to_string()).collect();
    let workloads: Vec<Vec<TimeTravelQuery>> = FREQ_BINS
        .iter()
        .map(|&bin| freq_bin_queries(&d.coll, bin, o.queries, o.seed))
        .collect();
    print_throughput_panel(
        "element frequency bins:",
        methods,
        &indexes,
        &labels,
        &workloads,
    );

    // Panel 4: selectivity bins (measured with the first index).
    let per_bin = (o.queries / 5).max(10);
    let bins = selectivity_binned(&d.coll, indexes[0].as_ref(), per_bin, o.seed);
    let labels: Vec<String> = SELECTIVITY_LABELS.iter().map(|s| s.to_string()).collect();
    print_throughput_panel(
        "result selectivity bins [%]:",
        methods,
        &indexes,
        &labels,
        &bins,
    );
}

/// Figure 10: comparing the three tIF+HINT variants.
pub fn fig10(o: &Opts) {
    banner("Figure 10: throughput of the tIF+HINT variants");
    let extents = [
        Extent::Fraction(0.0001),
        Extent::Fraction(0.0005),
        Extent::Fraction(0.001),
        Extent::Fraction(0.005),
        Extent::Fraction(0.01),
    ];
    for d in datasets(o.scale) {
        println!("\n-- {} --", d.name);
        run_panels(&d, &TIF_HINT_VARIANTS, o, &extents);
    }
}

/// Table 5: indexing time and size of every method.
pub fn table5(o: &Opts) {
    banner("Table 5: indexing costs (time [s] / size [MiB])");
    let ds = datasets(o.scale);
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>12}",
        "index",
        format!("{} [s]", ds[0].name),
        format!("{} [s]", ds[1].name),
        format!("{} [MiB]", ds[0].name),
        format!("{} [MiB]", ds[1].name),
    );
    for m in TABLE5 {
        let a = build_method(m, &ds[0].coll);
        let b = build_method(m, &ds[1].coll);
        println!(
            "{:<18} {:>12.3} {:>12.3} {:>12.2} {:>12.2}",
            m.paper_name(),
            a.build_secs,
            b.build_secs,
            a.size_mib,
            b.size_mib
        );
    }
}

/// Figure 11: all methods against the competition on the real-shaped
/// datasets, across the four workload knobs.
pub fn fig11(o: &Opts) {
    banner("Figure 11: throughput vs competition (real-shaped datasets)");
    let extents = [
        Extent::Stabbing,
        Extent::Fraction(0.0001),
        Extent::Fraction(0.0005),
        Extent::Fraction(0.001),
        Extent::Fraction(0.005),
        Extent::Fraction(0.01),
        Extent::Fraction(0.05),
        Extent::Fraction(0.1),
        Extent::Fraction(0.5),
        Extent::Fraction(1.0),
    ];
    for d in datasets(o.scale) {
        println!("\n-- {} --", d.name);
        run_panels(&d, &COMPETITION, o, &extents);
    }
}

/// Figure 12: the synthetic parameter sweeps.
pub fn fig12(o: &Opts) {
    banner("Figure 12: synthetic dataset sweeps");
    // Laptop-scale default: the paper's defaults shrunk 100x.
    let base = SyntheticConfig::default().scaled(0.01 * o.scale);
    let methods = &COMPETITION;

    let sweep = |title: &str, configs: Vec<(String, SyntheticConfig)>| {
        println!("\n{title}");
        print!("{:<18}", "");
        for (label, _) in &configs {
            print!(" {label:>12}");
        }
        println!();
        let cells: Vec<Vec<f64>> = configs
            .iter()
            .map(|(_, cfg)| {
                let coll = tir_datagen::generate(cfg);
                let queries = default_queries(&coll, o.queries, o.seed);
                methods
                    .iter()
                    .map(|&m| {
                        let built = build_method(m, &coll);
                        throughput(built.index.as_ref(), &queries)
                    })
                    .collect()
            })
            .collect();
        for (mi, m) in methods.iter().enumerate() {
            print!("{:<18}", m.paper_name());
            for col in &cells {
                print!(" {:>12.0}", col[mi]);
            }
            println!();
        }
    };

    sweep(
        "dataset cardinality:",
        [0.1, 0.5, 1.0, 5.0, 10.0]
            .iter()
            .map(|&f| {
                let mut c = base;
                c.cardinality = ((base.cardinality as f64 * f) as usize).max(100);
                (format!("{}", c.cardinality), c)
            })
            .collect(),
    );
    sweep(
        "time domain size:",
        [0.25, 0.5, 1.0, 2.0, 4.0]
            .iter()
            .map(|&f| {
                let mut c = base;
                c.domain = ((base.domain as f64 * f) as u64).max(1024);
                (format!("{}", c.domain), c)
            })
            .collect(),
    );
    sweep(
        "alpha (interval duration):",
        [1.01, 1.1, 1.2, 1.4, 1.8]
            .iter()
            .map(|&a| {
                let mut c = base;
                c.alpha = a;
                (format!("{a}"), c)
            })
            .collect(),
    );
    sweep(
        "sigma (interval position):",
        [0.01, 0.1, 1.0, 5.0, 10.0]
            .iter()
            .map(|&f| {
                let mut c = base;
                c.sigma = ((base.sigma as f64 * f) as u64).max(1);
                (format!("{}", c.sigma), c)
            })
            .collect(),
    );
    sweep(
        "dictionary size:",
        [0.1, 0.5, 1.0, 5.0, 10.0]
            .iter()
            .map(|&f| {
                let mut c = base;
                c.dict_size = ((base.dict_size as f64 * f) as u32).max(16);
                (format!("{}", c.dict_size), c)
            })
            .collect(),
    );
    sweep(
        "description size |d|:",
        [5usize, 10, 50, 100, 500]
            .iter()
            .map(|&k| {
                let mut c = base;
                c.desc_size = k;
                (format!("{k}"), c)
            })
            .collect(),
    );
    sweep(
        "element frequency skew (zeta):",
        [1.0, 1.25, 1.5, 1.75, 2.0]
            .iter()
            .map(|&z| {
                let mut c = base;
                c.zeta = z;
                (format!("{z}"), c)
            })
            .collect(),
    );

    // Query-side sweeps on the default synthetic dataset.
    let coll = tir_datagen::generate(&base);
    let d = Dataset {
        name: "synthetic(default)",
        coll,
    };
    println!("\n-- {} --", d.name);
    let extents = [
        Extent::Fraction(0.0001),
        Extent::Fraction(0.001),
        Extent::Fraction(0.01),
        Extent::Fraction(0.1),
        Extent::Fraction(1.0),
    ];
    run_panels(&d, methods, o, &extents);
}

/// Table 6: insertion update times.
pub fn table6(o: &Opts) {
    banner("Table 6: update time [s] for insertions (batches of 1/5/10%)");
    for d in datasets(o.scale) {
        println!("\n-- {} --", d.name);
        println!("{:<18} {:>10} {:>10} {:>10}", "index", "1%", "5%", "10%");
        let (offline, holdout) = d.coll.split_for_updates(0.10);
        for m in TABLE5 {
            print!("{:<18}", m.paper_name());
            for frac in [0.01, 0.05, 0.10] {
                let take = ((d.coll.len() as f64 * frac).round() as usize).min(holdout.len());
                let mut built = build_method(m, &offline);
                let t0 = Instant::now();
                insert_batch(built.index.as_mut(), &holdout[..take]);
                print!(" {:>10.4}", t0.elapsed().as_secs_f64());
            }
            println!();
        }
    }
}

/// Table 7: deletion update times (tombstones).
pub fn table7(o: &Opts) {
    banner("Table 7: update time [s] for deletions (batches of 1/5/10%)");
    for d in datasets(o.scale) {
        println!("\n-- {} --", d.name);
        println!("{:<18} {:>10} {:>10} {:>10}", "index", "1%", "5%", "10%");
        for m in TABLE5 {
            print!("{:<18}", m.paper_name());
            for frac in [0.01, 0.05, 0.10] {
                let take = (d.coll.len() as f64 * frac).round() as usize;
                let victims: Vec<&Object> = d.coll.objects().iter().take(take).collect();
                let mut built = build_method(m, &d.coll);
                let t0 = Instant::now();
                let mut found = 0usize;
                for v in &victims {
                    if built.index.delete(v) {
                        found += 1;
                    }
                }
                assert_eq!(found, victims.len(), "{m} lost deletes");
                print!(" {:>10.4}", t0.elapsed().as_secs_f64());
            }
            println!();
        }
    }
}

/// Ablation: sweep `m` for both irHINT variants (design-choice study for
/// the cost-model discussion in Section 5.2/5.4).
pub fn irhint_mtune(o: &Opts) {
    banner("Ablation: irHINT m sweep");
    for d in datasets(o.scale) {
        println!("\n-- {} --", d.name);
        let queries = default_queries(&d.coll, o.queries, o.seed);
        println!(
            "{:>4} | {:>10} {:>10} {:>12} | {:>10} {:>10} {:>12}",
            "m", "perf [s]", "perf [MiB]", "perf q/s", "size [s]", "size [MiB]", "size q/s"
        );
        for m in [2u32, 4, 6, 8, 10, 12, 14, 16] {
            let t0 = Instant::now();
            let perf = IrHintPerf::build_with_m(&d.coll, m);
            let pt = t0.elapsed().as_secs_f64();
            let pq = throughput(&perf, &queries);
            let psz = perf.size_bytes() as f64 / (1024.0 * 1024.0);
            drop(perf);
            let t0 = Instant::now();
            let size = IrHintSize::build_with_m(&d.coll, m);
            let st = t0.elapsed().as_secs_f64();
            let sq = throughput(&size, &queries);
            let ssz = size.size_bytes() as f64 / (1024.0 * 1024.0);
            println!(
                "{m:>4} | {pt:>10.3} {psz:>10.2} {pq:>12.0} | {st:>10.3} {ssz:>10.2} {sq:>12.0}"
            );
        }
    }
}

/// Serving-throughput experiment (beyond the paper): query throughput
/// and tail latency of the epoch-snapshot serving stack while a live
/// writer applies a mixed insert/delete stream, swept over reader-thread
/// counts. Every epoch swap runs the tir-check structural validator;
/// the run aborts on any violation. Results also land in
/// `BENCH_serve.json` for machine consumption.
pub fn serve(o: &Opts) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    use tir_check::Validate;
    use tir_datagen::{mixed_stream, MixedSpec, Op};
    use tir_serve::epoch::{EpochConfig, EpochStore, WriteOp};
    use tir_serve::{Json, LatencyHistogram, PoolConfig, QueryPool, Rejected};

    banner("Serving: epoch snapshots under concurrent readers + live writer");
    let mut records = Vec::new();
    for d in datasets(o.scale) {
        println!("\n-- {} --", d.name);
        let queries = default_queries(&d.coll, o.queries.max(200), o.seed);
        assert!(!queries.is_empty(), "no workload for {}", d.name);
        let writes = mixed_stream(
            &d.coll,
            &MixedSpec {
                write_fraction: 1.0,
                insert_fraction: 0.7,
                query: WorkloadSpec::default(),
            },
            2_000,
            o.seed ^ 0x5eed,
        );
        println!(
            "{:>8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "readers", "queries/s", "p50 [µs]", "p95 [µs]", "p99 [µs]", "rejected", "writes"
        );
        for readers in [1usize, 2, 4, 8] {
            let store = Arc::new(EpochStore::new(
                IrHintPerf::build(&d.coll),
                d.coll.len() as u64,
                EpochConfig {
                    validator: Some(Box::new(|i: &IrHintPerf| i.validate().len())),
                    ..Default::default()
                },
            ));
            let pool = Arc::new(QueryPool::new(Arc::clone(&store), PoolConfig::default()));

            // The live writer replays its script once, then keeps the
            // store flushed until the readers are done.
            let readers_done = Arc::new(AtomicBool::new(false));
            let applied = Arc::new(AtomicU64::new(0));
            let writer = {
                let store = Arc::clone(&store);
                let done = Arc::clone(&readers_done);
                let applied = Arc::clone(&applied);
                let writes = writes.clone();
                // Deletes in the stream carry only ids; the writer keeps
                // the live-object catalog to resolve them, like a real
                // ingester would.
                let mut catalog: std::collections::HashMap<u32, Object> = d
                    .coll
                    .objects()
                    .iter()
                    .map(|obj| (obj.id, obj.clone()))
                    .collect();
                std::thread::spawn(move || {
                    for op in &writes {
                        if done.load(Ordering::Relaxed) {
                            break;
                        }
                        let write = match op {
                            Op::Insert(obj) => {
                                catalog.insert(obj.id, obj.clone());
                                WriteOp::Insert(obj.clone())
                            }
                            Op::Delete(id) => {
                                let obj = catalog.remove(id).expect("stream deletes live ids");
                                WriteOp::Delete(obj)
                            }
                            Op::Query(_) => unreachable!("write-only stream"),
                        };
                        loop {
                            match store.enqueue(write.clone()) {
                                Ok(()) => break,
                                Err(Rejected::Overloaded) => std::thread::yield_now(),
                                Err(Rejected::Closed) => return,
                                Err(Rejected::Degraded) => {
                                    panic!("in-memory store degraded")
                                }
                            }
                        }
                        applied.fetch_add(1, Ordering::Relaxed);
                    }
                    let _ = store.flush();
                })
            };

            let t0 = Instant::now();
            let (histogram, answered, rejected) = std::thread::scope(|s| {
                let mut joins = Vec::new();
                for r in 0..readers {
                    let pool = Arc::clone(&pool);
                    let queries = &queries;
                    joins.push(s.spawn(move || {
                        let mut hist = LatencyHistogram::new();
                        let mut rejected = 0u64;
                        // Stagger each reader's start offset so they
                        // don't march through the workload in lockstep.
                        for i in r..r + queries.len() {
                            let q = queries[i % queries.len()].clone();
                            let tq = Instant::now();
                            match pool.execute(q) {
                                Ok(reply) => {
                                    std::hint::black_box(reply.ids.len());
                                    hist.record(
                                        tq.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
                                    );
                                }
                                Err(Rejected::Overloaded) => rejected += 1,
                                Err(Rejected::Closed) => break,
                                Err(Rejected::Degraded) => {
                                    panic!("in-memory store degraded")
                                }
                            }
                        }
                        (hist, rejected)
                    }));
                }
                let mut histogram = LatencyHistogram::new();
                let mut rejected = 0u64;
                for j in joins {
                    let (h, rej) = j.join().expect("reader thread");
                    histogram.merge(&h);
                    rejected += rej;
                }
                (histogram.clone(), histogram.count(), rejected)
            });
            let elapsed = t0.elapsed().as_secs_f64();
            readers_done.store(true, Ordering::Relaxed);
            writer.join().expect("writer thread");

            let violations = store.stats().violations.load(Ordering::Relaxed);
            assert_eq!(violations, 0, "post-swap validation failed");
            let qps = answered as f64 / elapsed.max(1e-9);
            let (p50, p95, p99) = (
                histogram.quantile(0.50) as f64 / 1_000.0,
                histogram.quantile(0.95) as f64 / 1_000.0,
                histogram.quantile(0.99) as f64 / 1_000.0,
            );
            let writes_applied = applied.load(Ordering::Relaxed);
            println!(
                "{readers:>8} {qps:>12.0} {p50:>10.1} {p95:>10.1} {p99:>10.1} {rejected:>10} {writes_applied:>10}"
            );
            records.push(Json::obj(vec![
                ("dataset", Json::str(d.name)),
                ("method", Json::str(Method::IrHintPerf.name())),
                ("readers", Json::Int(readers as u64)),
                ("queries", Json::Int(answered)),
                ("qps", Json::Num(qps)),
                ("p50_us", Json::Num(p50)),
                ("p95_us", Json::Num(p95)),
                ("p99_us", Json::Num(p99)),
                ("rejected", Json::Int(rejected)),
                ("writes_applied", Json::Int(writes_applied)),
                ("epoch", Json::Int(store.snapshot().epoch)),
                (
                    "size_bytes",
                    Json::Int(store.snapshot().index.size_bytes() as u64),
                ),
            ]));
        }
    }
    let doc = Json::obj(vec![
        ("tool", Json::str("repro serve")),
        ("runs", Json::Arr(records)),
    ]);
    if let Err(e) = std::fs::write("BENCH_serve.json", format!("{doc}\n")) {
        eprintln!("could not write BENCH_serve.json: {e}");
    } else {
        eprintln!("wrote BENCH_serve.json");
    }
}

/// Runs every experiment in paper order.
pub fn all(o: &Opts) {
    table3(o);
    fig8(o);
    fig9(o);
    fig10(o);
    table5(o);
    fig11(o);
    fig12(o);
    table6(o);
    table7(o);
}
