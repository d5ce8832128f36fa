//! Injected-I/O-fault tests for the durability engine: each `tir-fault`
//! site on the durable write path must surface as a clean `io::Error`
//! (nothing applied, epoch unchanged) and the directory must recover to
//! exactly the acknowledged state once the fault clears.
//!
//! NOTE: the fault registry is process-global, so this binary holds
//! exactly one `#[test]`; the scenarios run sequentially inside it.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tir_core::prelude::*;
use tir_fault::{FaultAction, FaultSite, OneShot};
use tir_invidx::Dictionary;
use tir_persist::wal::WalOp;
use tir_persist::{Durability, DurabilityOptions, Recovered};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tir-faultinj-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn setup(dir: &Path, coll: &Collection) -> (Tif, Durability, Dictionary, DurabilityOptions) {
    let index = Tif::build(coll);
    // Covers the catalog and the elements the batches below name.
    let mut dict = Dictionary::new();
    for e in 0..coll.dict_size().max(4) {
        dict.intern(&format!("e{e}"));
    }
    let opts = DurabilityOptions {
        segment_bytes: 1 << 20,
        snapshot_every: 0,
    };
    let d = Durability::create(dir, &index, &dict, coll.objects(), opts).expect("create");
    (index, d, dict, opts)
}

fn ids(d: &Durability) -> Vec<u32> {
    d.catalog_sorted().iter().map(|o| o.id).collect()
}

#[test]
fn injected_io_faults_fail_cleanly_and_recover() {
    let coll = Collection::running_example();

    // --- Torn WAL append: a short write lands a record prefix. ---
    {
        let dir = scratch("short-write");
        let (mut index, mut d, _dict, opts) = setup(&dir, &coll);
        d.apply_batch(
            &mut index,
            &[WalOp::Insert(Object::new(900, 1, 5, vec![1, 2]))],
        )
        .expect("clean batch");
        tir_fault::install(Arc::new(OneShot {
            site: FaultSite::WalAppend,
            visit: 0,
            action: FaultAction::ShortWrite,
        }));
        let err = d
            .apply_batch(
                &mut index,
                &[WalOp::Insert(Object::new(901, 2, 6, vec![2]))],
            )
            .expect_err("short write must fail the batch");
        assert!(tir_fault::is_injected(&err), "{err}");
        assert_eq!(d.epoch(), 1, "failed batch must not advance the epoch");
        tir_fault::clear();
        drop(d);
        // Recovery chops the torn prefix and lands on the acked epoch.
        let r: Recovered<Tif> = Durability::recover(&dir, opts).expect("recover");
        assert_eq!(r.epoch, 1);
        assert!(r.truncated_tail, "the torn prefix must be truncated away");
        assert!(ids(&r.durability).contains(&900));
        assert!(!ids(&r.durability).contains(&901));
        // And the directory accepts appends again.
        let (mut index, mut d) = (r.index, r.durability);
        d.apply_batch(
            &mut index,
            &[WalOp::Insert(Object::new(902, 3, 7, vec![1]))],
        )
        .expect("append after recovery");
        assert_eq!(d.epoch(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    // --- Fsync failure at the durability barrier. ---
    {
        let dir = scratch("sync-err");
        let (mut index, mut d, _dict, opts) = setup(&dir, &coll);
        tir_fault::install(Arc::new(OneShot {
            site: FaultSite::WalSync,
            visit: 0,
            action: FaultAction::Error,
        }));
        let err = d
            .apply_batch(
                &mut index,
                &[WalOp::Insert(Object::new(910, 1, 4, vec![3]))],
            )
            .expect_err("fsync failure must fail the batch");
        assert!(tir_fault::is_injected(&err), "{err}");
        assert_eq!(d.epoch(), 0);
        tir_fault::clear();
        drop(d);
        let r: Recovered<Tif> = Durability::recover(&dir, opts).expect("recover");
        // The record was fully written before the failed fsync, so
        // recovery may legitimately surface it (same contract as a crash
        // between append and ack) — but never anything beyond it.
        assert!(r.epoch <= 1);
        let _ = fs::remove_dir_all(&dir);
    }

    // --- Torn snapshot publish: temp written, rename injected away. ---
    {
        let dir = scratch("torn-rename");
        let (mut index, mut d, dict, opts) = setup(&dir, &coll);
        for (i, id) in [920u32, 921, 922].iter().enumerate() {
            d.apply_batch(
                &mut index,
                &[WalOp::Insert(Object::new(
                    *id,
                    i as u64,
                    i as u64 + 3,
                    vec![1],
                ))],
            )
            .expect("clean batch");
        }
        tir_fault::install(Arc::new(OneShot {
            site: FaultSite::SnapshotRename,
            visit: 0,
            action: FaultAction::Error,
        }));
        let err = d.write_snapshot(&index, &dict).expect_err("rename fault");
        assert!(tir_fault::is_injected(&err), "{err}");
        assert_eq!(d.snapshot_epoch(), 0, "old snapshot stays current");
        assert!(
            dir.join("snapshot.tir.tmp").is_file(),
            "stale tmp left behind"
        );
        tir_fault::clear();
        drop(d);
        // Recovery ignores the stale tmp: old snapshot + full WAL replay.
        let r: Recovered<Tif> = Durability::recover(&dir, opts).expect("recover");
        assert_eq!(r.epoch, 3);
        for id in [920u32, 921, 922] {
            assert!(ids(&r.durability).contains(&id));
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
