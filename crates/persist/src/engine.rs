//! The durability engine: the one place that owns the WAL-before-apply
//! ordering, snapshot atomicity, and recovery.
//!
//! The server's applier drives this type, and the crash-point tests drive
//! that server, so the ordering logic under test is exactly the ordering
//! in production:
//!
//! 1. [`Durability::apply_batch`] — append the batch to the WAL,
//!    `fsync`, **then** apply it to the index and the catalog mirror and
//!    advance the epoch. A crash before the fsync loses the batch (it
//!    was never acknowledged); after, recovery replays it.
//! 2. [`Durability::write_snapshot`] — write the full state to
//!    `snapshot.tir.tmp`, `fsync`, rename over `snapshot.tir`, `fsync`
//!    the directory, then prune covered WAL segments. A crash at any
//!    point leaves either the old or the new snapshot intact.
//! 3. [`Durability::recover`] — verify the snapshot, read its catalog,
//!    build the method its header names over it, replay `terms.log`,
//!    replay WAL records above the snapshot epoch (truncating a torn
//!    tail), and reopen the WAL for appending. The recovered epoch is
//!    **at least** the last acknowledged one: a batch that reached the
//!    fsync but died before the acknowledgment is replayed too (standard
//!    WAL semantics — recovery never loses an ack, it may complete an
//!    almost-acknowledged write).
//!
//! Every step is preceded by one `tir-fault` probe; the root
//! `crash_points` test arms each in turn and asserts exact recovery.
//!
//! The catalog mirror (the live objects the next snapshot writes) keeps
//! the very `Object`s it is handed: by [`Durability::create`], in each
//! batch's ops, and from the catalog recovery decodes. `Object::desc` is
//! an immutable shared `Arc<[ElemId]>`, so a mirror entry is a pointer to
//! the one description the server's admission catalog, its write queue
//! and the WAL encoder also hold, and [`Durability::catalog_sorted`]
//! hands out pointers, not copies.

use std::any::Any;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tir_core::{apply_ops, with_method, Collection, Method, Object, TemporalIrIndex};
use tir_fault::FaultSite;
use tir_invidx::Dictionary;

use crate::snapshot::{check_elements_known, write_snapshot, SnapshotError, SnapshotFile};
use crate::termlog::TermLog;
use crate::wal::{Wal, WalOp, DEFAULT_SEGMENT_BYTES};

/// File name of the current snapshot inside the data directory.
pub const SNAPSHOT_NAME: &str = "snapshot.tir";
const SNAPSHOT_TMP: &str = "snapshot.tir.tmp";

/// Tuning knobs for a data directory.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Snapshot after this many epochs since the last one (checked at
    /// flush barriers; 0 disables automatic snapshots).
    pub snapshot_every: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            snapshot_every: 512,
        }
    }
}

/// Shared durability counters (read by the STATS handler while the
/// applier owns the [`Durability`]). SeqCst throughout: these are
/// cold-path counters bumped once per batch or snapshot.
#[derive(Debug, Default)]
pub struct PersistStats {
    /// Epoch of the last durable snapshot.
    pub snapshot_epoch: AtomicU64,
    /// Epoch recovery reached (0 for a fresh directory).
    pub recovered_epoch: AtomicU64,
    /// WAL records appended since open.
    pub wal_records: AtomicU64,
    /// WAL bytes appended since open.
    pub wal_bytes: AtomicU64,
    /// WAL fsyncs issued since open.
    pub wal_fsyncs: AtomicU64,
    /// WAL segments currently on disk.
    pub wal_segments: AtomicU64,
    /// Snapshots written since open.
    pub snapshots: AtomicU64,
}

/// What applying a batch produced.
#[derive(Debug, Clone, Copy)]
pub struct ApplyOutcome {
    /// The epoch the batch produced.
    pub epoch: u64,
    /// How many delete ops actually removed a live object.
    pub deleted: u64,
}

/// The result of [`Durability::recover`].
#[derive(Debug)]
pub struct Recovered<I> {
    /// The engine, ready for [`Durability::apply_batch`].
    pub durability: Durability,
    /// The rebuilt index at the recovered epoch.
    pub index: I,
    /// The rebuilt dictionary (snapshot terms + `terms.log` replay).
    pub dict: Dictionary,
    /// The epoch recovery reached.
    pub epoch: u64,
    /// WAL batches replayed on top of the snapshot.
    pub replayed: u64,
    /// True if a torn WAL tail was truncated (crash mid-append).
    pub truncated_tail: bool,
}

/// Owns a data directory: the open WAL, the catalog mirror the snapshot
/// writer needs, and the epoch counters. The mirror is ordered by id, so
/// the writer and [`Durability::catalog_sorted`] read it in the
/// snapshot's order and never sort. Its entries share their descriptions
/// with the objects they were cloned from.
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    wal: Wal,
    catalog: BTreeMap<u32, Object>,
    epoch: u64,
    last_snapshot_epoch: u64,
    opts: DurabilityOptions,
    stats: Arc<PersistStats>,
}

impl Durability {
    /// True if `dir` already holds a snapshot (recover instead of
    /// create).
    pub fn exists(dir: &Path) -> bool {
        dir.join(SNAPSHOT_NAME).is_file()
    }

    /// Initializes a fresh data directory around an index that already
    /// holds `catalog` (possibly empty): writes snapshot at epoch 0 and
    /// opens an empty WAL.
    pub fn create<I: TemporalIrIndex>(
        dir: &Path,
        index: &I,
        dict: &Dictionary,
        catalog: &[Object],
        opts: DurabilityOptions,
    ) -> io::Result<Durability> {
        fs::create_dir_all(dir)?;
        let stats = Arc::new(PersistStats::default());
        let mut d = Durability {
            dir: dir.to_path_buf(),
            wal: Wal::open(dir, 1, opts.segment_bytes)?,
            catalog: catalog.iter().map(|o| (o.id, o.clone())).collect(),
            epoch: 0,
            last_snapshot_epoch: 0,
            opts,
            stats,
        };
        d.write_snapshot(index, dict)?;
        Ok(d)
    }

    /// Recovers `dir` to last-snapshot + WAL replay. See the module docs
    /// for the exact semantics. `I` must be the type of the method the
    /// snapshot is tagged with; any other is refused, not rebuilt.
    pub fn recover<I: TemporalIrIndex + 'static>(
        dir: &Path,
        opts: DurabilityOptions,
    ) -> io::Result<Recovered<I>> {
        let snap = SnapshotFile::open(&dir.join(SNAPSHOT_NAME))?;
        let (method, snapshot_epoch) = (snap.meta().method, snap.meta().epoch);
        let mut dict = snap.dictionary()?;
        let objects = snap.catalog_objects()?;
        drop(snap);
        for o in &objects {
            check_elements_known(o, dict.len(), || {
                format!("snapshot/catalog/object[{}]", o.id)
            })?;
        }
        let coll = Collection::new(objects);
        let mut index: I = build_as(method, &coll)?;
        let mut catalog: BTreeMap<u32, Object> =
            coll.objects().iter().map(|o| (o.id, o.clone())).collect();
        drop(coll);

        // Terms first: WAL ops reference term ids, which the sidecar log
        // made durable before any referencing op could be enqueued.
        TermLog::recover(dir, &mut dict)?;

        let replay = Wal::replay(dir, snapshot_epoch)?;
        // An op naming a term `terms.log` never made durable is corrupt,
        // and is refused before any op is applied.
        for (epoch, ops) in &replay.batches {
            for (i, op) in ops.iter().enumerate() {
                let (WalOp::Insert(o) | WalOp::Delete(o)) = op;
                check_elements_known(o, dict.len(), || format!("wal/epoch[{epoch}]/op[{i}]"))?;
            }
        }
        let mut epoch = snapshot_epoch;
        let replayed = replay.batches.len() as u64;
        for (e, ops) in &replay.batches {
            apply_ops(&mut index, ops);
            mirror_ops(&mut catalog, ops);
            epoch = *e;
        }

        let wal = Wal::open(dir, epoch + 1, opts.segment_bytes)?;
        let stats = Arc::new(PersistStats::default());
        stats.snapshot_epoch.store(snapshot_epoch, Ordering::SeqCst);
        stats.recovered_epoch.store(epoch, Ordering::SeqCst);
        stats
            .wal_segments
            .store(wal.stats().segments, Ordering::SeqCst);
        Ok(Recovered {
            durability: Durability {
                dir: dir.to_path_buf(),
                wal,
                catalog,
                epoch,
                last_snapshot_epoch: snapshot_epoch,
                opts,
                stats,
            },
            index,
            dict,
            epoch,
            replayed,
            truncated_tail: replay.truncated_tail,
        })
    }

    /// The current epoch (equals the number of applied batches since the
    /// directory was created).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Epoch of the last durable snapshot.
    pub fn snapshot_epoch(&self) -> u64 {
        self.last_snapshot_epoch
    }

    /// The shared counters (hand a clone to the STATS handler).
    pub fn stats(&self) -> Arc<PersistStats> {
        Arc::clone(&self.stats)
    }

    /// The catalog mirror, sorted by id (what the snapshot writer and
    /// recovery verifiers see). Each object shares its description with
    /// the mirror's entry.
    pub fn catalog_sorted(&self) -> Vec<Object> {
        self.catalog.values().cloned().collect()
    }

    /// Number of live objects in the catalog mirror.
    pub fn live(&self) -> usize {
        self.catalog.len()
    }

    /// The canonical durable-apply ordering: WAL append → fsync → apply
    /// → epoch advance. Returns the epoch the batch produced. On error
    /// (real I/O failure or an injected fault) nothing was applied and
    /// the epoch did not advance — the caller must treat the store as
    /// dead and not acknowledge the batch.
    pub fn apply_batch<I: TemporalIrIndex>(
        &mut self,
        index: &mut I,
        ops: &[WalOp],
    ) -> io::Result<ApplyOutcome> {
        let next = self.epoch + 1;
        self.wal.append(next, ops)?;
        self.wal.sync()?;
        tir_fault::fire(FaultSite::Apply)?;
        let deleted = apply_ops(index, ops);
        mirror_ops(&mut self.catalog, ops);
        self.epoch = next;
        let w = self.wal.stats();
        self.stats.wal_records.store(w.records, Ordering::SeqCst);
        self.stats.wal_bytes.store(w.bytes, Ordering::SeqCst);
        self.stats.wal_fsyncs.store(w.fsyncs, Ordering::SeqCst);
        self.stats.wal_segments.store(w.segments, Ordering::SeqCst);
        Ok(ApplyOutcome {
            epoch: next,
            deleted,
        })
    }

    /// Writes a durable snapshot of the current state and prunes covered
    /// WAL segments: tmp write + fsync → rename → directory fsync →
    /// prune.
    pub fn write_snapshot<I: TemporalIrIndex>(
        &mut self,
        index: &I,
        dict: &Dictionary,
    ) -> io::Result<()> {
        tir_fault::fire(FaultSite::SnapshotWrite)?;
        let tmp = self.dir.join(SNAPSHOT_TMP);
        write_snapshot(&tmp, self.epoch, dict, self.catalog.values(), index)?;
        // Fault site: a torn publish — the temp snapshot is fully written
        // but the rename never happens, so recovery must keep using the
        // previous snapshot and ignore the stale temp file.
        tir_fault::fire(FaultSite::SnapshotRename)?;
        fs::rename(&tmp, self.dir.join(SNAPSHOT_NAME))?;
        fs::File::open(&self.dir)?.sync_all()?;
        tir_fault::fire(FaultSite::WalPrune)?;
        self.last_snapshot_epoch = self.epoch;
        self.stats
            .snapshot_epoch
            .store(self.epoch, Ordering::SeqCst);
        self.stats.snapshots.fetch_add(1, Ordering::SeqCst);
        self.wal.prune(self.epoch)?;
        self.stats
            .wal_segments
            .store(self.wal.stats().segments, Ordering::SeqCst);
        Ok(())
    }

    /// Snapshots iff `snapshot_every` epochs elapsed since the last one.
    /// Returns true if a snapshot was written.
    pub fn maybe_snapshot<I: TemporalIrIndex>(
        &mut self,
        index: &I,
        dict: &Dictionary,
    ) -> io::Result<bool> {
        if self.opts.snapshot_every == 0
            || self.epoch - self.last_snapshot_epoch < self.opts.snapshot_every
        {
            return Ok(false);
        }
        self.write_snapshot(index, dict)?;
        Ok(true)
    }
}

/// Builds `method` over `coll` with its registry constructor, provided
/// that constructor returns the `I` the caller asked for.
fn build_as<I: 'static>(method: Method, coll: &Collection) -> Result<I, SnapshotError> {
    with_method!(method, |M, build| {
        // Downcasting the constructor rather than its result means a
        // mismatch costs no build.
        let build: fn(&Collection) -> M = build;
        (&build as &dyn Any)
            .downcast_ref::<fn(&Collection) -> I>()
            .map(|build| build(coll))
    })
    .ok_or_else(|| {
        SnapshotError::corrupt(
            "snapshot/header",
            format!(
                "snapshot stores {method}, not the requested kind {}",
                std::any::type_name::<I>()
            ),
        )
    })
}

/// Keeps the catalog mirror (what the next snapshot writes) in step with
/// ops just applied to the index.
fn mirror_ops(catalog: &mut BTreeMap<u32, Object>, ops: &[WalOp]) {
    for op in ops {
        match op {
            WalOp::Insert(o) => catalog.insert(o.id, o.clone()),
            WalOp::Delete(o) => catalog.remove(&o.id),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir_core::Tif;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tir-engine-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn obj(id: u32, st: u64, end: u64, desc: &[u32]) -> Object {
        Object::new(id, st, end, desc.to_vec())
    }

    #[test]
    fn create_apply_recover_roundtrip() {
        let dir = scratch_dir("roundtrip");
        let mut index = Tif::default();
        let dict = Dictionary::from_parts(vec!["a".into(), "b".into()], vec![2, 1]).expect("dict");
        let mut d = Durability::create(&dir, &index, &dict, &[], DurabilityOptions::default())
            .expect("create");
        assert!(Durability::exists(&dir));
        let out = d
            .apply_batch(
                &mut index,
                &[
                    WalOp::Insert(obj(1, 0, 10, &[0, 1])),
                    WalOp::Insert(obj(2, 5, 15, &[0])),
                ],
            )
            .expect("apply");
        assert_eq!(out.epoch, 1);
        d.apply_batch(&mut index, &[WalOp::Delete(obj(2, 5, 15, &[0]))])
            .expect("apply");
        assert_eq!(d.epoch(), 2);
        drop(d);

        // Recovery replays both batches on top of the epoch-0 snapshot.
        let r: Recovered<Tif> =
            Durability::recover(&dir, DurabilityOptions::default()).expect("recover");
        assert_eq!(r.epoch, 2);
        assert_eq!(r.replayed, 2);
        assert_eq!(r.durability.live(), 1);
        let q = tir_core::TimeTravelQuery::new(0, 20, vec![0]);
        assert_eq!(r.index.query(&q), vec![1]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_prunes_and_recovery_starts_from_it() {
        let dir = scratch_dir("snapshot");
        let mut index = Tif::default();
        let dict = Dictionary::from_parts(vec!["a".into()], vec![4]).expect("dict");
        let mut d = Durability::create(
            &dir,
            &index,
            &dict,
            &[],
            DurabilityOptions {
                segment_bytes: 1, // rotate every batch
                snapshot_every: 2,
            },
        )
        .expect("create");
        for id in 1..=4u32 {
            d.apply_batch(
                &mut index,
                &[WalOp::Insert(obj(id, 0, u64::from(id), &[0]))],
            )
            .expect("apply");
            d.maybe_snapshot(&index, &dict).expect("maybe");
        }
        assert_eq!(d.snapshot_epoch(), 4);
        drop(d);
        let r: Recovered<Tif> =
            Durability::recover(&dir, DurabilityOptions::default()).expect("recover");
        assert_eq!(r.epoch, 4);
        assert_eq!(r.replayed, 0, "everything was in the snapshot");
        assert_eq!(r.durability.live(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_holder_shares_one_description() {
        let shared = |a: &Object, b: &Object| Arc::ptr_eq(&a.desc, &b.desc);
        let dir = scratch_dir("shared");
        let opts = DurabilityOptions::default();
        let dict = Dictionary::from_parts(vec!["a".into(), "b".into()], vec![2, 2]).expect("dict");
        let catalog = [obj(1, 0, 10, &[0, 1]), obj(2, 5, 15, &[0])];
        let mut index = Tif::build(&Collection::new(catalog.to_vec()));
        let mut d = Durability::create(&dir, &index, &dict, &catalog, opts).expect("create");
        let mirrored = d.catalog_sorted();
        assert_eq!(mirrored, catalog);
        assert!(catalog.iter().zip(&mirrored).all(|(a, b)| shared(a, b)));

        let op = obj(3, 2, 4, &[1]);
        d.apply_batch(&mut index, &[WalOp::Insert(op.clone())])
            .expect("apply");
        assert!(shared(&op, &d.catalog[&3]), "the mirror copied the op");
        drop(d);

        // Recovery decodes fresh descriptions, and keeps nothing but the
        // mirror holding them: each one handed out has exactly two owners.
        let r: Recovered<Tif> = Durability::recover(&dir, opts).expect("recover");
        let handed = r.durability.catalog_sorted();
        assert_eq!(handed, [catalog.as_slice(), &[op]].concat());
        assert!(handed.iter().all(|o| Arc::strong_count(&o.desc) == 2));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Peak resident set of this process in MiB, where `/proc` reports it.
    fn peak_rss_mib() -> Option<u64> {
        let status = fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib / 1024)
    }

    /// Recovery refuses `dir` with a corrupt error addressed at `at`, and
    /// sized nothing by the out-of-range element id it found there.
    fn refused_at(dir: &Path, at: &str) {
        let err = Durability::recover::<Tif>(dir, DurabilityOptions::default())
            .expect_err("an element past the dictionary is corrupt");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().starts_with(at), "{err}");
        assert!(err.to_string().contains("1-term dictionary"), "{err}");
        if let Some(mib) = peak_rss_mib() {
            assert!(mib < 1024, "recovery peaked at {mib} MiB");
        }
        let _ = fs::remove_dir_all(dir);
    }

    const FAR: u32 = u32::MAX - 1;

    fn one_term() -> Dictionary {
        Dictionary::from_parts(vec!["a".into()], vec![1]).expect("dict")
    }

    #[test]
    fn resealed_snapshot_naming_an_unknown_element_is_refused() {
        let dir = scratch_dir("far-snapshot");
        fs::create_dir_all(&dir).expect("dir");
        // CRC-valid: written by the real writer, not patched afterwards.
        let catalog = [obj(1, 0, 5, &[0]), obj(2, 3, 9, &[0, FAR])];
        let path = dir.join(SNAPSHOT_NAME);
        write_snapshot(&path, 0, &one_term(), &catalog, &Tif::default()).expect("write");
        refused_at(&dir, "snapshot/catalog/object[2]");
    }

    #[test]
    fn resealed_wal_record_naming_an_unknown_element_is_refused() {
        let dir = scratch_dir("far-wal");
        let opts = DurabilityOptions::default();
        let index = Tif::default();
        drop(Durability::create(&dir, &index, &one_term(), &[], opts).expect("create"));
        // A sealed record whose term `terms.log` never made durable.
        let mut wal = Wal::open(&dir, 1, opts.segment_bytes).expect("wal");
        let ops = [
            WalOp::Insert(obj(1, 0, 5, &[0])),
            WalOp::Insert(obj(2, 3, 9, &[FAR])),
        ];
        wal.append(1, &ops).expect("append");
        wal.sync().expect("sync");
        drop(wal);
        refused_at(&dir, "wal/epoch[1]/op[1]");
    }
}
