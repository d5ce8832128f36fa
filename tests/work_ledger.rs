//! The work ledger: every method's planner counts on one fixed corpus,
//! gated by equality against the committed `WORK_baseline.json`.
//!
//! Each row sums, over one query set, the hits and every `PlanStats` field
//! that `last_stats()` reads after each `query_into`. The rows are exact
//! for a seed, so a change that moves the work any method does shows here
//! as a row that moved. Such a change regenerates the file and explains
//! the diff: on a mismatch this test writes the computed ledger to
//! `WORK_ledger.json` under cargo's `target/tmp`, which replaces the
//! committed file once the diff is understood.

use std::collections::BTreeMap;
use std::fmt::Write;

use temporal_ir::core::prelude::*;
use temporal_ir::datagen::{
    eclog_like, mixed_stream, workload, Extent, MixedSpec, Op, WorkloadSpec,
};

const SCALE: f64 = 0.02;
const SEED: u64 = 42;
const QUERIES: usize = 200;
/// The selective and the broad query set (`lib_methods`'s two extents).
const EXTENTS: [(&str, f64); 2] = [("sel", 0.001), ("broad", 0.1)];

/// One query set's totals: `queries`, `hits`, then the `PlanStats` fields.
fn totals(index: &dyn TemporalIrIndex, queries: &[TimeTravelQuery]) -> [(&'static str, u64); 14] {
    let mut scratch = QueryScratch::default();
    let (mut out, mut hits, mut w) = (Vec::new(), 0u64, PlanStats::default());
    for q in queries {
        out.clear();
        index.query_into(q, &mut scratch, &mut out);
        hits += out.len() as u64;
        w += scratch.last_stats();
    }
    [
        ("queries", queries.len() as u64),
        ("hits", hits),
        ("merge_steps", w.merge_steps),
        ("simd_merge_steps", w.simd_merge_steps),
        ("gallop_steps", w.gallop_steps),
        ("bitmap_probe_steps", w.bitmap_probe_steps),
        ("word_and_steps", w.word_and_steps),
        ("run_intersect_steps", w.run_intersect_steps),
        ("merge_scanned", w.merge_scanned),
        ("gallop_scanned", w.gallop_scanned),
        ("bitmap_probe_scanned", w.bitmap_probe_scanned),
        ("word_and_scanned", w.word_and_scanned),
        ("scanned", w.scanned),
        ("blocks_decoded", w.blocks_decoded),
    ]
}

/// Every row, keyed `<method>.<state>.<extent>`, each rendered as one JSON
/// object on one line.
fn ledger() -> BTreeMap<String, String> {
    let coll = eclog_like(SCALE, SEED);
    let sets: Vec<(&str, Vec<TimeTravelQuery>)> = EXTENTS
        .iter()
        .zip(SEED..)
        .map(|(&(name, f), seed)| {
            let spec = WorkloadSpec {
                extent: Extent::Fraction(f),
                ..WorkloadSpec::default()
            };
            (name, workload(&coll, &spec, QUERIES, seed))
        })
        .collect();
    // The write batches: 5 % of the corpus inserted as fresh objects, and
    // every twentieth object deleted.
    let fresh_spec = MixedSpec {
        write_fraction: 1.0,
        insert_fraction: 1.0,
        query: WorkloadSpec::default(),
    };
    let inserts: Vec<Object> = mixed_stream(&coll, &fresh_spec, coll.len() / 20, SEED)
        .into_iter()
        .filter_map(|op| match op {
            Op::Insert(o) => Some(o),
            _ => None,
        })
        .collect();
    let deletes: Vec<Object> = coll.objects().iter().step_by(20).cloned().collect();

    let mut rows = BTreeMap::new();
    for m in Method::ALL {
        let mut index = m.build(&coll);
        for state in ["built", "written"] {
            if state == "written" {
                index.insert_batch(&inserts);
                delete_batch(&mut *index, &deletes);
            }
            for (extent, queries) in &sets {
                let mut line = String::from("{");
                for (i, (field, n)) in totals(&*index, queries).into_iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    let _ = write!(line, "{sep}\"{field}\": {n}");
                }
                line.push('}');
                rows.insert(format!("{m}.{state}.{extent}"), line);
            }
        }
    }
    rows
}

fn render(rows: &BTreeMap<String, String>) -> String {
    let mut s = format!(
        "{{\n  \"corpus\": \"eclog_like({SCALE}, {SEED})\",\n  \"queries_per_extent\": {QUERIES},\n  \"rows\": {{\n"
    );
    for (i, (key, line)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(s, "    \"{key}\": {line}{comma}");
    }
    s.push_str("  }\n}\n");
    s
}

/// The committed rows: every line of the form `"key": {…}`.
fn parse(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|l| {
            let (key, row) = l.trim().split_once("\": {")?;
            let row = row.trim_end_matches(',');
            row.ends_with('}').then_some(())?;
            Some((key.trim_start_matches('"').to_string(), format!("{{{row}")))
        })
        .collect()
}

#[test]
fn every_method_does_the_committed_work() {
    let rows = ledger();
    assert_eq!(rows.len(), Method::ALL.len() * 2 * EXTENTS.len());
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/WORK_baseline.json");
    let committed = std::fs::read_to_string(baseline).map(|t| parse(&t));
    if committed.as_ref().ok() == Some(&rows) {
        return;
    }
    let written = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("WORK_ledger.json");
    std::fs::write(&written, render(&rows)).expect("the computed ledger");
    let Ok(committed) = committed else {
        panic!(
            "no {baseline}; the computed ledger is in {}",
            written.display()
        );
    };
    let mut moved = Vec::new();
    for key in rows.keys().chain(committed.keys()) {
        if rows.get(key) != committed.get(key) && !moved.contains(&key) {
            moved.push(key);
        }
    }
    for key in &moved {
        eprintln!(
            "{key}\n  committed {:?}\n  computed  {:?}",
            committed.get(*key),
            rows.get(*key)
        );
    }
    panic!(
        "{} of {} rows moved (listed above); the computed ledger is in {}",
        moved.len(),
        rows.len(),
        written.display()
    );
}
