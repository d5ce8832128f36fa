//! Crash-recovery property test: replay a `mixed_stream` write workload
//! through the durability engine with a fault armed at every step
//! boundary, then recover and demand **exact** `BruteForce`-oracle
//! agreement at the recovered epoch.
//!
//! Each proptest case sweeps all seven [`CRASH_POINTS`] plus a no-fault
//! control over the same generated workload, taking the method of each
//! run from `Method::ALL` in rotation from a drawn start, so every
//! (workload × crash-site) combination recovers or the test names the
//! method and point that broke. Recovery semantics checked:
//!
//! * the recovered epoch is **at least** the last acknowledged one and
//!   at most the last attempted one (a batch that was fsynced but died
//!   before the acknowledgment may legitimately complete);
//! * the recovered index answers a query grid exactly like the oracle
//!   fed the first `recovered_epoch` batches;
//! * the recovered directory accepts new batches and survives a second
//!   recovery (no lingering torn state).
//!
//! NOTE: the fault registry is process-global, so this binary holds
//! exactly one `#[test]` (the proptest macro expands to one fn); adding
//! another test that drives the engine here would race the armed state.

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use tir_core::prelude::*;
use tir_core::with_method;
use tir_datagen::{mixed_stream, MixedSpec, Op, SyntheticConfig, WorkloadSpec};
use tir_fault::{FaultAction, FaultSite, OneShot};
use tir_invidx::Dictionary;
use tir_persist::wal::WalOp;
use tir_persist::{Durability, DurabilityOptions, Recovered};

/// Every step of the durable apply and snapshot paths, in path order:
/// before the WAL append, mid-record (a torn tail), before the fsync,
/// before the apply, before the snapshot temp write, before the rename,
/// and after the rename before the WAL is pruned.
const CRASH_POINTS: [(FaultSite, FaultAction); 7] = [
    (FaultSite::WalAppend, FaultAction::Error),
    (FaultSite::WalAppend, FaultAction::ShortWrite),
    (FaultSite::WalSync, FaultAction::Error),
    (FaultSite::Apply, FaultAction::Error),
    (FaultSite::SnapshotWrite, FaultAction::Error),
    (FaultSite::SnapshotRename, FaultAction::Error),
    (FaultSite::WalPrune, FaultAction::Error),
];

fn corpus(seed: u64) -> Collection {
    let mut cfg = SyntheticConfig::default().scaled(0.001);
    cfg.desc_size = 3;
    cfg.seed = seed;
    tir_datagen::generate(&cfg)
}

/// Groups a write-only mixed stream into WAL batches, resolving delete
/// ids against a running catalog mirror (deletes carry the object).
fn batches_for(coll: &Collection, seed: u64, batch: usize) -> Vec<Vec<WalOp>> {
    let spec = MixedSpec {
        write_fraction: 1.0,
        insert_fraction: 0.6,
        query: WorkloadSpec::default(),
    };
    let stream = mixed_stream(coll, &spec, 48, seed);
    let mut catalog: HashMap<u32, Object> =
        coll.objects().iter().map(|o| (o.id, o.clone())).collect();
    let mut batches = Vec::new();
    let mut cur = Vec::new();
    for op in stream {
        match op {
            Op::Insert(o) => {
                catalog.insert(o.id, o.clone());
                cur.push(WalOp::Insert(o));
            }
            Op::Delete(id) => {
                let o = catalog.remove(&id).expect("stream deletes only live ids");
                cur.push(WalOp::Delete(o));
            }
            Op::Query(_) => unreachable!("write_fraction = 1.0"),
        }
        if cur.len() == batch {
            batches.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        batches.push(cur);
    }
    batches
}

fn query_grid(coll: &Collection) -> Vec<TimeTravelQuery> {
    let d = coll.domain();
    let span = (d.end - d.st).max(1);
    let mut qs = Vec::new();
    for k in 0..8u64 {
        let st = d.st + span * k / 9;
        let end = (st + span / (1 + k % 5)).min(d.end);
        let elems: Vec<u32> = (0..(1 + k % 3) as u32)
            .map(|j| (k as u32 * 5 + j) % 40)
            .collect();
        qs.push(TimeTravelQuery::new(st, end, elems));
    }
    qs.push(TimeTravelQuery::new(d.st, d.end, vec![0]));
    qs
}

/// The oracle after the first `epochs` batches.
fn oracle_at(coll: &Collection, batches: &[Vec<WalOp>], epochs: u64) -> BruteForce {
    let mut bf = BruteForce::build(coll.objects());
    for b in &batches[..epochs as usize] {
        for op in b {
            match op {
                WalOp::Insert(o) => bf.insert(o),
                WalOp::Delete(o) => {
                    bf.delete(o);
                }
            }
        }
    }
    bf
}

fn assert_matches_oracle<I: TemporalIrIndex>(
    index: &I,
    oracle: &BruteForce,
    grid: &[TimeTravelQuery],
    ctx: &str,
) {
    for q in grid {
        let mut got = index.query(q);
        got.sort_unstable();
        assert_eq!(got, oracle.answer(q), "{ctx}: divergence on {q:?}");
    }
}

/// One full cycle: create → apply-until-crash → recover → verify →
/// append → recover again. `kill_at` is `None` for the control run
/// (`kill0`).
fn run_case<I, F>(
    tag: &str,
    coll: &Collection,
    build: F,
    kill_at: Option<OneShot>,
    seed: u64,
    batch: usize,
) where
    I: TemporalIrIndex + 'static,
    F: Fn(&Collection) -> I,
{
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "tir-crash-{}-{tag}-{seed}-{batch}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);

    let mut index = build(coll);
    // Every element the catalog and the stream name is a term: recovery
    // refuses an id its dictionary does not hold.
    let mut dict = Dictionary::new();
    for e in 0..coll.dict_size() {
        dict.intern(&format!("e{e}"));
    }
    let opts = DurabilityOptions {
        segment_bytes: 512, // rotate every couple of batches
        snapshot_every: 3,  // exercise the snapshot path mid-run
    };
    let mut d =
        Durability::create(&dir, &index, &dict, coll.objects(), opts).expect("create data dir");

    let batches = batches_for(coll, seed, batch);
    tir_fault::clear();
    if let Some(plan) = kill_at {
        tir_fault::install(Arc::new(plan));
    }

    let mut acked = 0u64;
    let mut attempted = 0u64;
    let mut crashed = false;
    for ops in &batches {
        attempted += 1;
        match d.apply_batch(&mut index, ops) {
            Ok(out) => acked = out.epoch,
            Err(e) => {
                assert!(tir_fault::is_injected(&e), "real I/O error: {e}");
                crashed = true;
                break;
            }
        }
        // Flush-barrier behavior: periodic snapshots (a kill can also
        // land inside this path; the batch itself was already acked).
        if let Err(e) = d.maybe_snapshot(&index, &dict) {
            assert!(tir_fault::is_injected(&e), "real I/O error: {e}");
            crashed = true;
            break;
        }
    }
    tir_fault::clear();
    assert!(
        crashed || kill_at.is_none() || acked == batches.len() as u64,
        "{tag}: armed point never fired and the run still fell short"
    );
    drop(d); // the "crash": all in-memory state is gone

    let r: Recovered<I> = Durability::recover(&dir, opts).expect("recover");
    assert!(
        r.epoch >= acked,
        "{tag}: recovered epoch {} lost acknowledged epoch {acked}",
        r.epoch
    );
    assert!(
        r.epoch <= attempted,
        "{tag}: recovered epoch {} past the last attempted {attempted}",
        r.epoch
    );
    let grid = query_grid(coll);
    let oracle = oracle_at(coll, &batches, r.epoch);
    assert_matches_oracle(&r.index, &oracle, &grid, tag);

    // The directory stays writable after recovery…
    let mut d2 = r.durability;
    let mut index2 = r.index;
    let extra = Object::new(4_000_000, 1, 5, vec![0, 1]);
    let out = d2
        .apply_batch(&mut index2, &[WalOp::Insert(extra.clone())])
        .expect("post-recovery append");
    assert_eq!(out.epoch, r.epoch + 1);
    drop(d2);

    // …and a second recovery sees the appended batch too.
    let r2: Recovered<I> = Durability::recover(&dir, opts).expect("second recover");
    assert_eq!(
        r2.epoch,
        r.epoch + 1,
        "{tag}: second recovery lost the appended batch"
    );
    let hits = r2.index.query(&TimeTravelQuery::new(1, 5, vec![0, 1]));
    assert!(
        hits.contains(&extra.id),
        "{tag}: appended object missing after second recovery"
    );

    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn recovery_is_oracle_exact_at_every_kill_point(
        seed in 0..1_000_000u64,
        countdown in 0..12u64,
        batch in 1..4usize,
        first in 0..Method::ALL.len(),
    ) {
        let coll = corpus(seed % 17 + 1);
        // The no-fault control, then every crash point, each on the next
        // method round the registry: a case covers eight of the nine.
        let control = std::iter::once(None);
        let kills = CRASH_POINTS.iter().map(|&(site, action)| {
            Some(OneShot { site, visit: countdown, action })
        });
        for (k, plan) in control.chain(kills).enumerate() {
            let method = Method::ALL[(first + k) % Method::ALL.len()];
            let tag = format!("{method}-kill{k}");
            with_method!(method, |I, build| run_case::<I, _>(&tag, &coll, build, plan, seed, batch));
        }
    }
}
