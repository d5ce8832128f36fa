//! The nine-method table: every method built over one corpus, answering
//! a selective (0.1 % extent) and a broad (10 % extent) query set through
//! `query_into` with one reused `QueryScratch`, then taking batched
//! inserts and deletes — each answer checked against `BruteForce` before
//! and after the updates. `lib_methods` reports it end to end; the traced
//! run of every workload reports it per method on that workload's corpus.

use std::time::{Duration, Instant};

use tir_core::prelude::*;
use tir_datagen::{mixed_stream, MixedSpec, Op, WorkloadSpec};

use crate::catalog::METHODS;
use crate::corpus::{extent_spec, generate, mismatches, oracle, Corpus, Pool};
use crate::stats::{geomean, median, quantile, sorted};
use crate::{Outcome, RunConfig};

type Builder = fn(&Collection) -> Box<dyn TemporalIrIndex>;

/// Builders in [`METHODS`] order.
const BUILDERS: [Builder; 9] = [
    |c| Box::new(Tif::build(c)),
    |c| Box::new(TifSlicing::build(c)),
    |c| Box::new(TifSharding::build(c)),
    |c| Box::new(TifHint::build(c, TifHintConfig::binary_search())),
    |c| Box::new(TifHint::build(c, TifHintConfig::merge_sort())),
    |c| Box::new(TifHintSlicing::build(c)),
    |c| Box::new(IrHintPerf::build(c)),
    |c| Box::new(IrHintSize::build(c)),
    |c| Box::new(CompressedTif::build(c)),
];

/// Update batches per direction: 5 % of the corpus inserted and 5 %
/// deleted, each in this many `insert_batch` / `delete_batch` calls, so
/// a batch is big enough for the batched paths to matter and there are
/// enough calls to take a median over.
const BATCHES: usize = 10;

/// Inputs shared by every method and round.
pub struct TableInputs {
    pub sel: Pool,
    pub broad: Pool,
    inserts: Vec<Vec<Object>>,
    deletes: Vec<Vec<Object>>,
    sel_after: Vec<Vec<u32>>,
    broad_after: Vec<Vec<u32>>,
}

impl TableInputs {
    pub fn new(coll: &Collection, queries: usize, seed: u64) -> TableInputs {
        let sel = Pool::new(coll, &extent_spec(0.001), queries, seed);
        let broad = Pool::new(coll, &extent_spec(0.1), queries, seed.wrapping_add(1));
        let share = (coll.len() / 20).max(BATCHES);
        let fresh = MixedSpec {
            write_fraction: 1.0,
            insert_fraction: 1.0,
            query: WorkloadSpec::default(),
        };
        let fresh: Vec<Object> = mixed_stream(coll, &fresh, share, seed ^ 0x0BA7_C4E5)
            .into_iter()
            .filter_map(|op| match op {
                Op::Insert(o) => Some(o),
                _ => None,
            })
            .collect();
        let first = (seed % 20) as usize;
        let doomed: Vec<Object> = coll
            .objects()
            .iter()
            .skip(first)
            .step_by(20)
            .cloned()
            .collect();
        let mut live: Vec<Object> = coll
            .objects()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i < first || !(i - first).is_multiple_of(20))
            .map(|(_, o)| o.clone())
            .collect();
        live.extend(fresh.iter().cloned());
        let batches = |v: &[Object]| -> Vec<Vec<Object>> {
            v.chunks(v.len().div_ceil(BATCHES))
                .map(<[Object]>::to_vec)
                .collect()
        };
        TableInputs {
            sel_after: oracle(&live, &sel.queries),
            broad_after: oracle(&live, &broad.queries),
            inserts: batches(&fresh),
            deletes: batches(&doomed),
            sel,
            broad,
        }
    }

    pub fn update_ops(&self) -> usize {
        self.inserts.iter().chain(&self.deletes).map(Vec::len).sum()
    }
}

/// What one method measured, one entry per round unless noted.
#[derive(Default)]
pub struct Row {
    pub build_s: Vec<f64>,
    pub bytes: usize,
    /// Seconds per timed pass over each set (all rounds pooled).
    pub sel_pass_s: Vec<f64>,
    pub broad_pass_s: Vec<f64>,
    /// Per-query latencies of the timed passes per set, µs (all rounds
    /// pooled).
    pub sel_us: Vec<f64>,
    pub broad_us: Vec<f64>,
    /// Per-call batch times, ms (all rounds pooled).
    pub insert_ms: Vec<f64>,
    pub delete_ms: Vec<f64>,
    /// Seconds the whole 10 % update took, per round.
    pub update_s: Vec<f64>,
}

impl Row {
    pub fn qps(pool: &Pool, pass_s: &[f64]) -> f64 {
        pool.queries.len() as f64 / median(pass_s.to_vec())
    }
}

pub struct Table {
    pub rows: Vec<Row>,
    pub checked: u64,
    pub wrong: u64,
}

/// Timed passes over `pool` until `slice` is used up (at least one).
fn timed_passes(
    index: &dyn TemporalIrIndex,
    pool: &Pool,
    slice: Duration,
    scratch: &mut QueryScratch,
    pass_s: &mut Vec<f64>,
    query_us: &mut Vec<f64>,
) {
    let mut out = Vec::new();
    let begun = Instant::now();
    loop {
        let mut pass = 0.0;
        for q in &pool.queries {
            out.clear();
            let t = Instant::now();
            index.query_into(std::hint::black_box(q), scratch, &mut out);
            let dt = t.elapsed().as_secs_f64();
            std::hint::black_box(&out);
            pass += dt;
            query_us.push(dt * 1e6);
        }
        pass_s.push(pass);
        if begun.elapsed() >= slice {
            return;
        }
    }
}

/// Runs `rounds` rounds; in each, every method is built, checked, timed
/// for `slice` per query set, updated, re-checked and dropped (one index
/// alive at a time: tif-hint-bs alone is 300 MB on eclog30k).
pub fn run(coll: &Collection, inputs: &TableInputs, rounds: usize, slice: Duration) -> Table {
    let mut table = Table {
        rows: METHODS.iter().map(|_| Row::default()).collect(),
        checked: 0,
        wrong: 0,
    };
    let per_check = (inputs.sel.queries.len() + inputs.broad.queries.len()) as u64;
    for _ in 0..rounds {
        for (row, build) in table.rows.iter_mut().zip(BUILDERS) {
            let t = Instant::now();
            let mut index = build(coll);
            row.build_s.push(t.elapsed().as_secs_f64());
            row.bytes = index.size_bytes();
            let mut scratch = QueryScratch::default();

            // The check pass doubles as the warm-up.
            table.wrong += mismatches(&*index, &inputs.sel.queries, &inputs.sel.expected);
            table.wrong += mismatches(&*index, &inputs.broad.queries, &inputs.broad.expected);
            timed_passes(
                &*index,
                &inputs.sel,
                slice,
                &mut scratch,
                &mut row.sel_pass_s,
                &mut row.sel_us,
            );
            timed_passes(
                &*index,
                &inputs.broad,
                slice,
                &mut scratch,
                &mut row.broad_pass_s,
                &mut row.broad_us,
            );

            let update = Instant::now();
            for batch in &inputs.inserts {
                let t = Instant::now();
                index.insert_batch(batch);
                row.insert_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            for batch in &inputs.deletes {
                let t = Instant::now();
                let gone = delete_batch(&mut *index, batch);
                row.delete_ms.push(t.elapsed().as_secs_f64() * 1e3);
                table.wrong += u64::from(gone != batch.len());
            }
            row.update_s.push(update.elapsed().as_secs_f64());
            table.wrong += mismatches(&*index, &inputs.sel.queries, &inputs.sel_after);
            table.wrong += mismatches(&*index, &inputs.broad.queries, &inputs.broad_after);
            table.checked += 2 * per_check + 2 * BATCHES as u64;
        }
    }
    table
}

impl Table {
    fn row(&self, method: &str) -> &Row {
        let i = METHODS
            .iter()
            .position(|m| *m == method)
            .expect("a known method");
        &self.rows[i]
    }

    /// The `core.<m>.*` and `shape.*` per-layer metrics.
    pub fn per_layer(&self, inputs: &TableInputs) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (m, row) in METHODS.iter().zip(&self.rows) {
            let mut add = |col: &str, v: f64| out.push((format!("core.{m}.{col}"), v));
            add("build_s", median(row.build_s.clone()));
            add("bytes", row.bytes as f64);
            add("qps_sel", Row::qps(&inputs.sel, &row.sel_pass_s));
            add("qps_broad", Row::qps(&inputs.broad, &row.broad_pass_s));
            add("insert_batch_ms", median(row.insert_ms.clone()));
            add("delete_batch_ms", median(row.delete_ms.clone()));
        }
        // The paper's shape: irHINT(perf) against the best IR-first method
        // (everything that is not an irHINT), per extent; Table 5's size
        // ordering of the two irHINT variants.
        let best_ir_first = |pool: &Pool, pick: fn(&Row) -> &Vec<f64>| {
            METHODS
                .iter()
                .zip(&self.rows)
                .filter(|(m, _)| !m.starts_with("irhint"))
                .map(|(_, r)| Row::qps(pool, pick(r)))
                .fold(0.0, f64::max)
        };
        let perf = self.row("irhint-perf");
        out.push((
            "shape.irhint_over_irfirst_broad".into(),
            Row::qps(&inputs.broad, &perf.broad_pass_s)
                / best_ir_first(&inputs.broad, |r| &r.broad_pass_s),
        ));
        out.push((
            "shape.irhint_over_irfirst_sel".into(),
            Row::qps(&inputs.sel, &perf.sel_pass_s) / best_ir_first(&inputs.sel, |r| &r.sel_pass_s),
        ));
        out.push((
            "shape.bytes_irsize_over_irperf".into(),
            self.row("irhint-size").bytes as f64 / perf.bytes as f64,
        ));
        out
    }

    /// Σ build time of the nine methods, per round.
    pub fn round_build_s(&self) -> Vec<f64> {
        (0..self.rows[0].build_s.len())
            .map(|r| self.rows.iter().map(|row| row.build_s[r]).sum())
            .collect()
    }

    /// Geometric mean over methods of queries/s across both sets.
    pub fn read_qps(&self, inputs: &TableInputs) -> f64 {
        let n = (inputs.sel.queries.len() + inputs.broad.queries.len()) as f64;
        let per_method: Vec<f64> = self
            .rows
            .iter()
            .map(|r| n / (median(r.sel_pass_s.clone()) + median(r.broad_pass_s.clone())))
            .collect();
        geomean(&per_method)
    }

    /// Geometric mean over methods of update ops/s.
    pub fn write_qps(&self, inputs: &TableInputs) -> f64 {
        let ops = inputs.update_ops() as f64;
        let per_method: Vec<f64> = self
            .rows
            .iter()
            .map(|r| ops / median(r.update_s.clone()))
            .collect();
        geomean(&per_method)
    }
}

/// `lib_methods`, end to end. `setup_s` is the time to build all nine
/// (median over rounds); a "commit" is one `insert_batch`/`delete_batch`
/// call — what a library caller waits for before its update is visible.
pub fn run_end_to_end(cfg: &RunConfig) -> Outcome {
    let coll = generate(Corpus::Eclog, &cfg.scale, cfg.seed);
    let mut inputs = TableInputs::new(&coll, cfg.scale.table_queries, cfg.seed);
    if cfg.poison_oracle {
        inputs.sel.expected[0].push(0x7FFF_FFFF);
    }
    // Half the run goes to timed query passes, split evenly over rounds,
    // methods and the two sets; builds and updates take what they take.
    let rounds = cfg.scale.rounds;
    let slice = Duration::from_secs_f64(cfg.seconds * 0.5 / (rounds * METHODS.len() * 2) as f64);
    let table = run(&coll, &inputs, rounds, slice);

    // One latency distribution per (method, set) cell; the workload's
    // p50 and p99 are geometric means over the 18 cells, as `read_qps`
    // is over methods: pooling would let the slowest cells alone set the
    // p99 and a seed-dependent handful of cells set the p50.
    let cells: Vec<Vec<f64>> = table
        .rows
        .iter()
        .flat_map(|r| [sorted(r.sel_us.clone()), sorted(r.broad_us.clone())])
        .collect();
    let over_cells = |q: f64| geomean(&cells.iter().map(|c| quantile(c, q)).collect::<Vec<_>>());
    let commits: Vec<f64> = table
        .rows
        .iter()
        .flat_map(|r| r.insert_ms.iter().chain(&r.delete_ms))
        .map(|ms| ms * 1e3)
        .collect();
    eprintln!(
        "[lib_methods] {rounds} rounds, {} timed queries (p99 over cells {:.1} us), {} update calls",
        cells.iter().map(Vec::len).sum::<usize>(),
        over_cells(0.99),
        commits.len()
    );
    let mut out = Outcome::default();
    out.attempt(table.checked, table.wrong);
    out.metric("setup_s", median(table.round_build_s()));
    out.metric("read_qps", table.read_qps(&inputs));
    out.metric("read_p50_us", over_cells(0.5));
    out.metric("write_qps", table.write_qps(&inputs));
    out.metric("commit_p50_us", median(commits));
    out.metric(
        "index_bytes",
        table.rows.iter().map(|r| r.bytes as f64).sum(),
    );
    out
}
