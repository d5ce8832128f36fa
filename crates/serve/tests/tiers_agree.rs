//! Differential test of the two store tiers, for every registry method:
//! the same seeded write script driven through [`EpochStore::new`] (no
//! journal) and [`EpochStore::new_durable`] (WAL + snapshots) must reach
//! the same
//! epoch and live count at every barrier, answer exactly like the
//! `BruteForce` oracle at each, and end with the same applier counters,
//! down to how each epoch's master was made — they are one applier, with
//! or without a journal.
//!
//! Batch boundaries are forced, not hoped for: the validator hook parks
//! the applier inside every epoch swap until the driver releases it, so
//! a group of `k` writes always commits as `[w1]` then `[w2..wk]`.

mod common;

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};

use tir_core::prelude::*;
use tir_core::with_method;
use tir_datagen::SyntheticConfig;
use tir_invidx::Dictionary;
use tir_persist::{Durability, DurabilityOptions, TermLog};
use tir_serve::epoch::{EpochConfig, EpochStore};
use tir_serve::ServeDict;

/// The driver's end of the validator gate.
struct Gate {
    entered: Receiver<()>,
    release: SyncSender<()>,
}

impl Gate {
    /// Waits until the applier is parked inside a swap, then lets it go.
    fn pass_one_swap(&self) {
        self.entered.recv().expect("applier alive");
        self.release.send(()).expect("applier alive");
    }
}

fn gated_config<I>() -> (EpochConfig<I>, Gate) {
    let (entered_tx, entered) = sync_channel(1);
    let (release, release_rx) = sync_channel::<()>(1);
    let config = EpochConfig {
        validator: Some(Box::new(move |_: &I| {
            entered_tx.send(()).expect("driver alive");
            release_rx.recv().expect("driver alive");
            0
        })),
        ..Default::default()
    };
    (config, Gate { entered, release })
}

/// Groups of writes, each closed by a barrier (`true` = `force_snapshot`,
/// `false` = `flush`): seeded inserts and live deletes, plus one delete
/// of an id that was never inserted.
fn script(coll: &Collection) -> Vec<(Vec<WriteOp>, bool)> {
    let mut ops = common::write_stream(coll, 30, 29);
    let mut groups = Vec::new();
    for (i, size) in [1usize, 4, 6, 2, 9, 1, 8].into_iter().enumerate() {
        groups.push((ops.drain(..size).collect(), i % 3 == 2));
    }
    assert!(ops.is_empty());
    groups
}

/// What one tier did: `(epoch, live)` at every barrier, then the
/// `inserts / deletes / missed_deletes / max_batch / publish_reused /
/// publish_cloned` counters.
type Trace = (Vec<(u64, u64)>, [u64; 6]);

fn drive<I>(store: &EpochStore<I>, gate: &Gate, coll: &Collection) -> Trace
where
    I: TemporalIrIndex + Clone + Send + Sync + 'static,
{
    let mut model: HashMap<u32, Object> =
        coll.objects().iter().map(|o| (o.id, o.clone())).collect();
    let mut barriers = Vec::new();
    for (group, snapshot) in script(coll) {
        let (first, rest) = group.split_first().expect("non-empty group");
        store.enqueue(first.clone()).expect("enqueue");
        // The applier is now parked mid-swap with the batch `[first]`:
        // everything enqueued meanwhile forms exactly one more batch.
        gate.entered.recv().expect("applier alive");
        for op in rest {
            store.enqueue(op.clone()).expect("enqueue");
        }
        gate.release.send(()).expect("applier alive");
        if !rest.is_empty() {
            gate.pass_one_swap();
        }
        let epoch = if snapshot {
            store.force_snapshot().expect("snapshot barrier")
        } else {
            store.flush().expect("flush barrier")
        };

        for op in &group {
            match op {
                WriteOp::Insert(o) => model.insert(o.id, o.clone()),
                WriteOp::Delete(o) => model.remove(&o.id),
            };
        }
        let snap = store.snapshot();
        assert_eq!(snap.epoch, epoch, "a barrier returns the published epoch");
        let catalog: Vec<Object> = model.values().cloned().collect();
        let grid = tir_check::oracle_query_grid(&catalog, 12, epoch);
        let diverged = tir_check::diff_against_oracle(&snap.index, &catalog, &grid);
        assert!(diverged.is_empty(), "epoch {epoch}: {diverged:?}");
        barriers.push((epoch, snap.live));
    }
    // The last ack goes out before the applier catches its retired copy
    // up; an empty flush queues behind that step.
    store.flush().expect("flush barrier");
    let s = store.stats();
    let stats = [
        &s.inserts,
        &s.deletes,
        &s.missed_deletes,
        &s.max_batch,
        &s.publish_reused,
        &s.publish_cloned,
    ]
    .map(|counter| counter.load(Ordering::SeqCst));
    (barriers, stats)
}

fn tiers_agree<I>(method: Method, coll: &Collection, build: impl Fn(&Collection) -> I)
where
    I: TemporalIrIndex + Clone + Send + Sync + 'static,
{
    let (config, gate) = gated_config();
    let plain = EpochStore::new(build(coll), coll.len() as u64, config);
    let plain_trace = drive(&plain, &gate, coll);

    let dir = std::env::temp_dir().join(format!("tir-serve-tiers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let index = build(coll);
    let mut dict = Dictionary::new();
    for e in 0..coll.dict_size() {
        dict.intern(&format!("e{e}"));
    }
    let opts = DurabilityOptions {
        snapshot_every: 2, // the flush barriers snapshot too
        ..Default::default()
    };
    let durability = Durability::create(&dir, &index, &dict, coll.objects(), opts).expect("create");
    let log = TermLog::open(&dir).expect("term log");
    let (config, gate) = gated_config();
    let journaled = EpochStore::new_durable(
        index,
        Arc::new(Mutex::new(ServeDict::durable(dict, log))),
        durability,
        config,
    );
    let journaled_trace = drive(&journaled, &gate, coll);

    assert_eq!(plain_trace, journaled_trace, "{method}");
    let (barriers, [inserts, deletes, missed, max_batch, reused, cloned]) = plain_trace;
    // 7 groups, 5 of them longer than one write: 12 epochs, none of
    // them pinned when it was retired.
    assert_eq!(barriers.last().map(|b| b.0), Some(12));
    assert_eq!(inserts + deletes + missed, 31);
    assert_eq!((missed, max_batch), (1, 8));
    assert_eq!((reused, cloned), (12, 0), "{method}");

    drop(journaled);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journaled_and_plain_stores_agree_at_every_barrier() {
    let mut cfg = SyntheticConfig::default().scaled(0.001);
    cfg.desc_size = 3;
    cfg.seed = 29;
    let coll = tir_datagen::generate(&cfg);
    for method in Method::ALL {
        with_method!(method, |I, build| tiers_agree::<I>(method, &coll, build));
    }
}
