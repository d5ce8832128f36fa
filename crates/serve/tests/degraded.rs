//! Degraded-mode test: a durability failure must latch the store
//! read-only — queries keep serving the last acked epoch, writes and
//! barriers answer `Degraded`, the failed batch touches neither of the
//! store's two index copies, and the directory recovers to the
//! acknowledged state.
//!
//! NOTE: the fault registry is process-global, so this binary holds
//! exactly one `#[test]`.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use tir_core::{Collection, Object, TemporalIrIndex, Tif, TimeTravelQuery};
use tir_fault::{FaultAction, FaultSite, OneShot};
use tir_invidx::Dictionary;
use tir_persist::{Durability, DurabilityOptions, Recovered, TermLog};
use tir_serve::epoch::{EpochConfig, EpochStore, WriteOp};
use tir_serve::{HealthStatus, Rejected, ServeDict};

#[test]
fn durability_failure_latches_read_only_and_recovery_keeps_acked_state() {
    // Where in `Durability::apply_batch` the batch dies. All three leave
    // both of the store's copies at the acked epoch; they differ only in
    // whether the refused write may legitimately resurface on recovery.
    for site in [FaultSite::WalAppend, FaultSite::WalSync, FaultSite::Apply] {
        fails_at(site);
    }
}

fn fails_at(site: FaultSite) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("tir-serve-degraded-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    let coll = Collection::running_example();
    let mut dict = Dictionary::new();
    for name in ["a", "b", "c"] {
        dict.intern(name);
    }
    let index = Tif::build(&coll);
    let opts = DurabilityOptions {
        segment_bytes: 1 << 20,
        snapshot_every: 0,
    };
    let durability = Durability::create(&dir, &index, &dict, coll.objects(), opts).expect("create");
    let log = TermLog::open(&dir).expect("term log");
    let store = EpochStore::new_durable(
        index,
        Arc::new(Mutex::new(ServeDict::durable(dict, log))),
        durability,
        EpochConfig::default(),
    );

    // Three clean acked epochs, so each of the store's two copies has
    // been master and published at least once before the fault.
    let extra = Object::new(20, 5, 6, vec![0, 2]);
    for (epoch, op) in [
        WriteOp::Insert(Object::new(8, 5, 6, vec![0, 2])),
        WriteOp::Insert(extra.clone()),
        WriteOp::Delete(extra),
    ]
    .into_iter()
    .enumerate()
    {
        store.enqueue(op).expect("clean enqueue");
        assert_eq!(store.flush().expect("clean flush"), epoch as u64 + 1);
    }
    assert_eq!(store.health(), HealthStatus::Ok);

    // The next batch fails inside the journal (simulated ENOSPC, fsync
    // error, or a crash point after the fsync): it must degrade the
    // store, not ack a lie.
    tir_fault::install(Arc::new(OneShot {
        site,
        visit: 0,
        action: FaultAction::Error,
    }));
    store
        .enqueue(WriteOp::Insert(Object::new(9, 5, 6, vec![1])))
        .expect("enqueue before the fault is admitted");
    assert_eq!(
        store.flush().expect_err("durability failed"),
        Rejected::Degraded,
        "{site:?}"
    );
    assert_eq!(store.health(), HealthStatus::Degraded);

    // Writes and barriers are refused; the latch is one-way.
    assert_eq!(
        store
            .enqueue(WriteOp::Insert(Object::new(10, 5, 6, vec![1])))
            .expect_err("degraded store refuses writes"),
        Rejected::Degraded
    );
    assert_eq!(
        store
            .force_snapshot()
            .expect_err("degraded store refuses barriers"),
        Rejected::Degraded
    );
    let stats = store.stats();
    // analyze:allow(atomic-ordering): test-side stat reads
    let (discarded, reused, cloned) = (
        stats.degraded_writes.load(Ordering::Relaxed),
        stats.publish_reused.load(Ordering::Relaxed),
        stats.publish_cloned.load(Ordering::Relaxed),
    );
    assert!(discarded >= 1, "the discarded write must be counted");
    // The failed batch found the master caught up with epoch 3 and
    // consumed neither copy: no publish, no clone.
    assert_eq!((reused, cloned), (3, 0), "{site:?}");

    // Queries keep serving the last acked epoch: id 8 is there, id 9
    // (whose durability failed) is not.
    let snap = store.snapshot();
    assert_eq!(
        snap.epoch, 3,
        "published epoch never exceeds the acked epoch"
    );
    let mut got = snap.index.query(&TimeTravelQuery::new(5, 9, vec![0, 2]));
    got.sort_unstable();
    assert_eq!(got, vec![1, 3, 6, 8]);
    assert!(snap
        .index
        .query(&TimeTravelQuery::new(5, 9, vec![1]))
        .iter()
        .all(|&id| id != 9));

    tir_fault::clear();
    drop(store); // degraded shutdown must not write a snapshot

    // Recovery lands on the acked state — exactly, when the record never
    // reached the WAL; a record that did (a failed fsync may still have
    // landed it, `Apply` fires after the fsync) replays as one more epoch.
    let r: Recovered<Tif> = Durability::recover(&dir, opts).expect("recover");
    let ids: Vec<u32> = r.durability.catalog_sorted().iter().map(|o| o.id).collect();
    assert!(ids.contains(&8));
    assert!(!ids.contains(&20) && !ids.contains(&10));
    assert_eq!(r.epoch, 3 + u64::from(ids.contains(&9)), "{site:?}");
    if site == FaultSite::WalAppend {
        assert!(!ids.contains(&9), "the unacked write must not resurrect");
    }
    let _ = fs::remove_dir_all(&dir);
}
