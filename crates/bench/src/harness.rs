//! Shared harness: index construction with timing, query throughput
//! measurement, and the benchmark dataset registry.

use std::hint::black_box;
use std::time::Instant;

use tir_core::prelude::*;
use tir_datagen::{eclog_like, wikipedia_like};

/// The Table 5–7 line-up: the paper's own methods and competitors,
/// without the plain tIF baseline and the cTIF extension.
pub const TABLE5: [Method; 7] = [
    Method::Slicing,
    Method::Sharding,
    Method::TifHintBs,
    Method::TifHintMs,
    Method::Hybrid,
    Method::IrHintPerf,
    Method::IrHintSize,
];

/// The Figure 11/12 line-up: our best IR-first and both irHINT
/// variants against the two competitors.
pub const COMPETITION: [Method; 5] = [
    Method::Slicing,
    Method::Sharding,
    Method::Hybrid,
    Method::IrHintPerf,
    Method::IrHintSize,
];

/// The three tIF+HINT variants compared in Section 5.3 / Figure 10.
pub const TIF_HINT_VARIANTS: [Method; 3] = [Method::TifHintBs, Method::TifHintMs, Method::Hybrid];

/// Build timing and size of a constructed index.
pub struct BuildStats {
    /// The constructed index.
    pub index: Box<dyn TemporalIrIndex>,
    /// Wall-clock build time in seconds.
    pub build_secs: f64,
    /// Heap footprint in MiB.
    pub size_mib: f64,
}

/// Builds one method over a collection, timing it.
pub fn build_method(method: Method, coll: &Collection) -> BuildStats {
    let t0 = Instant::now();
    let index: Box<dyn TemporalIrIndex> = method.build(coll);
    let build_secs = t0.elapsed().as_secs_f64();
    let size_mib = index.size_bytes() as f64 / (1024.0 * 1024.0);
    BuildStats {
        index,
        build_secs,
        size_mib,
    }
}

/// Measures query throughput in queries/second: one warm-up pass, then
/// the best of three timed passes (robust against the periodic CPU
/// throttling of shared machines); results are consumed through
/// `black_box`.
pub fn throughput(index: &dyn TemporalIrIndex, queries: &[TimeTravelQuery]) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    // One scratch arena and one reply buffer for the whole measurement:
    // the timed loop exercises the zero-alloc `query_into` path, like
    // the serving workers do.
    let mut scratch = QueryScratch::default();
    let mut hits: Vec<ObjectId> = Vec::new();
    let warm = queries.len().min(64);
    for q in &queries[..warm] {
        hits.clear();
        index.query_into(q, &mut scratch, &mut hits);
        black_box(hits.len());
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut total = 0usize;
        for q in queries {
            hits.clear();
            index.query_into(q, &mut scratch, &mut hits);
            total += hits.len();
        }
        best = best.min(t0.elapsed().as_secs_f64());
        black_box(total);
    }
    queries.len() as f64 / best.max(1e-9)
}

/// Parallel query throughput: splits the workload over `threads` OS
/// threads sharing the read-only index (all indexes are `Sync`: queries
/// take `&self`). Returns queries/second aggregated over all threads.
pub fn par_throughput<I>(index: &I, queries: &[TimeTravelQuery], threads: usize) -> f64
where
    I: TemporalIrIndex + Sync,
{
    assert!(threads >= 1);
    if queries.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let chunk = queries.len().div_ceil(threads);
        for part in queries.chunks(chunk) {
            s.spawn(move || {
                // Per-thread scratch, mirroring the serve pool's
                // one-arena-per-worker layout.
                let mut scratch = QueryScratch::default();
                let mut hits: Vec<ObjectId> = Vec::new();
                let mut total = 0usize;
                for q in part {
                    hits.clear();
                    index.query_into(q, &mut scratch, &mut hits);
                    total += hits.len();
                }
                black_box(total);
            });
        }
    });
    queries.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// A named benchmark dataset.
pub struct Dataset {
    /// Display name.
    pub name: &'static str,
    /// The collection.
    pub coll: Collection,
}

/// The two real-world-shaped datasets at the harness default sizes
/// multiplied by `scale` (1.0 ≈ 6K-session ECLOG and 8K-revision
/// WIKIPEDIA stand-ins; raise for fidelity, lower for speed).
pub fn datasets(scale: f64) -> Vec<Dataset> {
    vec![
        Dataset {
            name: "ECLOG",
            coll: eclog_like((0.02 * scale).min(1.0), 42),
        },
        Dataset {
            name: "WIKIPEDIA",
            coll: wikipedia_like((0.005 * scale).min(1.0), 42),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir_datagen::{workload, WorkloadSpec};

    #[test]
    fn every_method_builds_and_agrees_on_real_shapes() {
        let ds = datasets(0.05);
        for d in &ds {
            let oracle = BruteForce::build(d.coll.objects());
            let queries = workload(&d.coll, &WorkloadSpec::default(), 10, 3);
            assert!(!queries.is_empty());
            for m in Method::ALL {
                let built = build_method(m, &d.coll);
                assert!(built.size_mib > 0.0);
                for q in &queries {
                    let mut got = built.index.query(q);
                    got.sort_unstable();
                    got.dedup();
                    assert_eq!(got, oracle.answer(q), "{m} on {}", d.name);
                }
            }
        }
    }

    #[test]
    fn throughput_positive() {
        let ds = datasets(0.05);
        let queries = workload(&ds[0].coll, &WorkloadSpec::default(), 50, 3);
        let built = build_method(Method::IrHintPerf, &ds[0].coll);
        assert!(throughput(built.index.as_ref(), &queries) > 0.0);
    }
}
