//! Epoch-snapshot store: never-blocking reads over a single-writer index.
//!
//! Readers call [`EpochStore::snapshot`] and get an `Arc` to an immutable
//! [`Snapshot`]; they then answer any number of queries against it without
//! ever blocking on writers (queries take `&self` on every
//! [`TemporalIrIndex`]). A single **applier thread** owns the only mutable
//! copy of the index ("the master"): it drains the bounded write queue,
//! coalesces the drained commands into one batch, commits it to the
//! master, optionally validates the result, and atomically publishes a
//! clone of the master as the next epoch. Old snapshots stay alive for as
//! long as some reader holds their `Arc` — there is no reclamation
//! protocol to get wrong.
//!
//! Backpressure is explicit: the write queue is a `sync_channel`, and
//! [`EpochStore::enqueue`] returns [`Rejected::Overloaded`] instead of
//! queueing unboundedly. [`EpochStore::flush`] is the write barrier: when
//! it returns, every command enqueued before the call is applied and
//! visible to subsequent [`EpochStore::snapshot`] calls — this is the
//! monotonicity contract the stress tests check (an id inserted before a
//! snapshot was taken is never missing from it).
//!
//! ## The optional journal
//!
//! [`EpochStore::new_durable`] runs the same applier with a journal
//! (`tir-persist`'s [`Durability`]) switched on. The reader side is
//! untouched; the commit step changes from [`apply_ops`] on the master to
//! [`Durability::apply_batch`] — WAL append, fsync, then that same loop —
//! so a batch is published and acknowledged only once it is durable, and
//! an `OK` that reached a client survives `kill -9`. Barriers map onto
//! durability actions:
//!
//! * [`EpochStore::flush`] — after the batch commits, runs the
//!   `snapshot_every` policy (it fires at flush barriers, not on every
//!   batch).
//! * [`EpochStore::force_snapshot`] — writes a snapshot unconditionally.
//! * Shutdown (the store dropping its sender) — a final snapshot, so a
//!   clean restart replays no WAL at all.
//!
//! If the disk fails (a real I/O error or an injected `tir-fault`), the
//! applier **degrades instead of dying**: it latches the store's health
//! to `degraded`, keeps draining the queue, and from then on discards
//! writes (counted in [`EpochStats::degraded_writes`]) and NAKs barriers
//! with [`Rejected::Degraded`]. Readers keep serving the last published —
//! which is also the last acknowledged — epoch: the failed batch was
//! never applied to the master, so nothing unacknowledged ever becomes
//! visible. The latch is one-way; only a restart on healthy I/O clears
//! it. No ack ever lies: every op acknowledged `OK` before the fault is
//! durable, every op after it is explicitly refused. A store without a
//! journal has nothing that can fail and never degrades.

use std::io;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use tir_core::{apply_ops, TemporalIrIndex};
use tir_invidx::Dictionary;
use tir_persist::{Durability, Persist};

use crate::durable::ServeDict;
use crate::protocol::HealthStatus;
use crate::witness::lock;

/// A write command: the workspace's one write op, re-exported under the
/// path this crate's callers use.
pub use tir_core::WriteOp;

/// An immutable published version of the index.
#[derive(Debug)]
pub struct Snapshot<I> {
    /// Monotonically increasing version number (0 = the build snapshot).
    pub epoch: u64,
    /// Number of live (non-tombstoned) objects at this epoch.
    pub live: u64,
    /// The index at this epoch. Shared read-only.
    pub index: I,
}

/// Why a write was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded write queue is full — retry later or shed load.
    Overloaded,
    /// The store is shutting down.
    Closed,
    /// A durability failure latched the store read-only: writes and
    /// barriers are refused until the process restarts on healthy I/O.
    Degraded,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Overloaded => f.write_str("overloaded"),
            Rejected::Closed => f.write_str("closed"),
            Rejected::Degraded => f.write_str("degraded"),
        }
    }
}

/// Shared read-only/ok flag between the applier (which latches it on a
/// durability failure) and the front end (which reports and rejects).
/// A plain two-state `AtomicU8` — `HealthStatus::Draining` is a
/// server-level state, not a store-level one.
#[derive(Debug, Default)]
struct HealthFlag(AtomicU8);

impl HealthFlag {
    fn status(&self) -> HealthStatus {
        if self.0.load(Ordering::SeqCst) == 0 {
            HealthStatus::Ok
        } else {
            HealthStatus::Degraded
        }
    }

    fn set_degraded(&self) {
        self.0.store(1, Ordering::SeqCst);
    }

    fn is_degraded(&self) -> bool {
        self.0.load(Ordering::SeqCst) != 0
    }
}

/// Barrier acknowledgment payload: the epoch reached, or the rejection
/// that made the barrier impossible (a degraded applier NAKs instead of
/// silently dropping the ack channel).
type BarrierAck = SyncSender<Result<u64, Rejected>>;

/// Applier-thread commands.
enum Cmd {
    Write(WriteOp),
    Flush(BarrierAck),
    /// A flush barrier that also makes a journaled store write a snapshot
    /// now (without a journal there is nothing more durable to do).
    Snapshot(BarrierAck),
}

/// Post-swap validation hook: inspects the about-to-be-published index
/// and returns the number of violations found (0 = clean). Wired to
/// `tir-check`'s structural validators by the CLI.
pub type Validator<I> = Box<dyn Fn(&I) -> usize + Send>;

/// Tuning knobs of the store.
pub struct EpochConfig<I> {
    /// Bounded depth of the write queue; beyond it writes are rejected
    /// with [`Rejected::Overloaded`].
    pub queue_depth: usize,
    /// Maximum number of commands coalesced into one epoch swap.
    pub max_batch: usize,
    /// Optional structural validator run on every rebuilt snapshot
    /// before it is published.
    pub validator: Option<Validator<I>>,
}

impl<I> Default for EpochConfig<I> {
    fn default() -> Self {
        EpochConfig {
            queue_depth: 1024,
            max_batch: 256,
            validator: None,
        }
    }
}

/// Counters exported by [`EpochStore::stats`].
#[derive(Debug, Default)]
pub struct EpochStats {
    /// Epoch swaps performed (equals the latest published epoch).
    pub epochs: AtomicU64,
    /// Inserts applied.
    pub inserts: AtomicU64,
    /// Deletes applied (found alive).
    pub deletes: AtomicU64,
    /// Deletes that referenced a dead or unknown id.
    pub missed_deletes: AtomicU64,
    /// Size of the largest coalesced batch so far.
    pub max_batch: AtomicU64,
    /// Total structural violations reported by the validator.
    pub violations: AtomicU64,
    /// Flush barriers served.
    pub flushes: AtomicU64,
    /// Writes discarded because the store was degraded (read-only).
    pub degraded_writes: AtomicU64,
}

/// The epoch-snapshot store. See the module docs for the protocol.
pub struct EpochStore<I> {
    current: Arc<Mutex<Arc<Snapshot<I>>>>,
    tx: Option<SyncSender<Cmd>>,
    applier: Option<JoinHandle<()>>,
    stats: Arc<EpochStats>,
    health: Arc<HealthFlag>,
}

impl<I: TemporalIrIndex + Clone + Send + Sync + 'static> EpochStore<I> {
    /// Wraps a freshly built index and spawns the applier thread.
    /// `live` is the number of live objects in `index`.
    pub fn new(index: I, live: u64, config: EpochConfig<I>) -> EpochStore<I> {
        Self::with_journal(index, 0, live, config, None)
    }

    fn with_journal(
        index: I,
        epoch: u64,
        live: u64,
        config: EpochConfig<I>,
        journal: Option<Journal<I>>,
    ) -> EpochStore<I> {
        let stats = Arc::new(EpochStats::default());
        let health = Arc::new(HealthFlag::default());
        let current = Arc::new(Mutex::new(Arc::new(Snapshot {
            epoch,
            live,
            index: index.clone(),
        })));
        let (tx, rx) = sync_channel(config.queue_depth.max(1));
        let mut applier = Applier {
            master: index,
            live,
            epoch,
            rx,
            publish: Arc::clone(&current),
            max_batch: config.max_batch.max(1),
            validator: config.validator,
            stats: Arc::clone(&stats),
            health: Arc::clone(&health),
            journal,
        };
        let handle = std::thread::Builder::new()
            .name("tir-epoch-applier".into())
            .spawn(move || applier.run())
            .expect("spawning the applier thread");
        EpochStore {
            current,
            tx: Some(tx),
            applier: Some(handle),
            stats,
            health,
        }
    }

    /// The latest published snapshot. O(1): one short mutex hold to
    /// clone an `Arc`.
    pub fn snapshot(&self) -> Arc<Snapshot<I>> {
        Arc::clone(&lock(&self.current))
    }

    /// Enqueues a write without blocking. `Err(Overloaded)` means the
    /// bounded queue is full — the caller sheds load or retries.
    pub fn enqueue(&self, op: WriteOp) -> Result<(), Rejected> {
        if self.health.is_degraded() {
            return Err(Rejected::Degraded);
        }
        let tx = self.tx.as_ref().ok_or(Rejected::Closed)?;
        match tx.try_send(Cmd::Write(op)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(Rejected::Overloaded),
            Err(TrySendError::Disconnected(_)) => Err(Rejected::Closed),
        }
    }

    /// Write barrier: blocks until every command enqueued before this
    /// call is applied and published, then returns the epoch that made
    /// them visible. Unlike [`EpochStore::enqueue`] this *waits* for
    /// queue space instead of shedding load.
    pub fn flush(&self) -> Result<u64, Rejected> {
        let tx = self.tx.as_ref().ok_or(Rejected::Closed)?;
        let (ack_tx, ack_rx) = sync_channel(1);
        tx.send(Cmd::Flush(ack_tx)).map_err(|_| Rejected::Closed)?;
        let epoch = ack_rx.recv().map_err(|_| Rejected::Closed)??;
        // analyze:allow(atomic-ordering): monotonic stat counter, read only for reporting
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(epoch)
    }

    /// Snapshot barrier: on a durable store ([`EpochStore::new_durable`])
    /// this forces a durable snapshot and returns the epoch it captured;
    /// on an in-memory store it is a plain flush barrier.
    pub fn force_snapshot(&self) -> Result<u64, Rejected> {
        let tx = self.tx.as_ref().ok_or(Rejected::Closed)?;
        let (ack_tx, ack_rx) = sync_channel(1);
        tx.send(Cmd::Snapshot(ack_tx))
            .map_err(|_| Rejected::Closed)?;
        ack_rx.recv().map_err(|_| Rejected::Closed)?
    }

    /// The store-level health: `Ok`, or `Degraded` once a durability
    /// failure latched the applier read-only.
    pub fn health(&self) -> HealthStatus {
        self.health.status()
    }

    /// Live counters.
    pub fn stats(&self) -> &EpochStats {
        &self.stats
    }
}

impl<I> Drop for EpochStore<I> {
    fn drop(&mut self) {
        // Closing the channel is the shutdown signal; then wait for the
        // applier to finish its final batch.
        self.tx = None;
        if let Some(handle) = self.applier.take() {
            let _ = handle.join();
        }
    }
}

impl<I: TemporalIrIndex + Persist + Clone + Send + Sync + 'static> EpochStore<I> {
    /// Wraps a recovered (or freshly created) durable state and spawns
    /// the applier thread with the journal on. `durability` must already
    /// own the data directory; `index` must be at `durability.epoch()`.
    pub fn new_durable(
        index: I,
        dict: Arc<Mutex<ServeDict>>,
        durability: Durability,
        config: EpochConfig<I>,
    ) -> EpochStore<I> {
        let (epoch, live) = (durability.epoch(), durability.live() as u64);
        let journal = Journal {
            durability,
            dict,
            snapshot_fn: |d, index, dict, force| {
                if force {
                    d.write_snapshot(index, dict)
                } else {
                    d.maybe_snapshot(index, dict).map(|_| ())
                }
            },
        };
        Self::with_journal(index, epoch, live, config, Some(journal))
    }
}

/// The durable side of a store built by [`EpochStore::new_durable`].
struct Journal<I> {
    durability: Durability,
    /// Snapshots embed the dictionary; shared with the server front end.
    dict: Arc<Mutex<ServeDict>>,
    /// [`Durability::write_snapshot`] (`force`) or
    /// [`Durability::maybe_snapshot`] for this `I`, captured where
    /// `I: Persist` is known so the applier itself needs no such bound.
    snapshot_fn: fn(&mut Durability, &I, &Dictionary, bool) -> io::Result<()>,
}

impl<I> Journal<I> {
    fn snapshot(&mut self, index: &I, force: bool) -> io::Result<()> {
        let dict = lock(&self.dict);
        (self.snapshot_fn)(&mut self.durability, index, dict.dict(), force)
    }
}

struct Applier<I> {
    master: I,
    live: u64,
    epoch: u64,
    rx: Receiver<Cmd>,
    publish: Arc<Mutex<Arc<Snapshot<I>>>>,
    max_batch: usize,
    validator: Option<Validator<I>>,
    stats: Arc<EpochStats>,
    /// Shared with the store front end; latched on durability failure.
    health: Arc<HealthFlag>,
    journal: Option<Journal<I>>,
}

impl<I: TemporalIrIndex + Clone> Applier<I> {
    fn run(&mut self) {
        // Block for the first command; then coalesce whatever else is
        // already queued (up to max_batch) into the same epoch swap.
        while let Ok(first) = self.rx.recv() {
            let mut batch = vec![first];
            while batch.len() < self.max_batch {
                match self.rx.try_recv() {
                    Ok(cmd) => batch.push(cmd),
                    Err(_) => break,
                }
            }
            tir_fault::stall(tir_fault::FaultSite::ApplierDelay);
            let (mut ops, mut acks, mut want_snapshot) = (Vec::new(), Vec::new(), false);
            for cmd in batch {
                match cmd {
                    Cmd::Write(op) => ops.push(op),
                    Cmd::Flush(ack) => acks.push(ack),
                    Cmd::Snapshot(ack) => {
                        want_snapshot = true;
                        acks.push(ack);
                    }
                }
            }
            if self.health.is_degraded() {
                // Read-only mode: keep draining so barriers get an
                // explicit NAK instead of a hang, discard writes.
                self.reject(ops.len(), acks);
            } else {
                self.apply(&ops, acks, want_snapshot);
            }
        }
        // Clean shutdown of a journaled store: one last snapshot so
        // restart replays nothing. A degraded applier skips it — the disk
        // already failed once, and recovery from snapshot + WAL replay
        // reaches the same acknowledged state.
        if let Some(journal) = &mut self.journal {
            if !self.health.is_degraded() && self.epoch > journal.durability.snapshot_epoch() {
                if let Err(e) = journal.snapshot(&self.master, true) {
                    eprintln!("tir-serve: shutdown snapshot failed: {e} (WAL replay will recover)");
                }
            }
        }
    }

    /// Counts `writes` as discarded and NAKs `acks`: what a degraded
    /// store answers, and how a failed batch is refused — it was never
    /// applied, so the published epoch still equals the acknowledged one.
    fn reject(&self, writes: usize, acks: Vec<BarrierAck>) {
        // analyze:allow(atomic-ordering): monotonic stat counter, read only for reporting
        self.stats
            .degraded_writes
            .fetch_add(writes as u64, Ordering::Relaxed);
        for ack in acks {
            let _ = ack.send(Err(Rejected::Degraded));
        }
    }

    fn apply(&mut self, ops: &[WriteOp], acks: Vec<BarrierAck>, want_snapshot: bool) {
        if !ops.is_empty() {
            // Commit: straight onto the master, or through the journal
            // (WAL append → fsync → the same loop) when there is one.
            let deleted = match &mut self.journal {
                None => apply_ops(&mut self.master, ops),
                Some(journal) => match journal.durability.apply_batch(&mut self.master, ops) {
                    Ok(out) => out.deleted,
                    Err(e) => {
                        eprintln!(
                            "tir-serve: durable apply failed: {e}; degrading to read-only \
                             ({} write(s) in the failed batch discarded)",
                            ops.len()
                        );
                        self.health.set_degraded();
                        return self.reject(ops.len(), acks);
                    }
                },
            };
            let wrote = ops.len() as u64;
            let inserts = ops
                .iter()
                .filter(|op| matches!(op, WriteOp::Insert(_)))
                .count() as u64;
            self.epoch += 1;
            self.live = self.live + inserts - deleted;
            // analyze:allow(atomic-ordering): monotonic stat counter, read only for reporting
            self.stats.inserts.fetch_add(inserts, Ordering::Relaxed);
            // analyze:allow(atomic-ordering): monotonic stat counter, read only for reporting
            self.stats.deletes.fetch_add(deleted, Ordering::Relaxed);
            // analyze:allow(atomic-ordering): monotonic stat counter, read only for reporting
            self.stats
                .missed_deletes
                .fetch_add(wrote - inserts - deleted, Ordering::Relaxed);
            if let Some(validator) = &self.validator {
                let violations = validator(&self.master) as u64;
                if violations > 0 {
                    // analyze:allow(atomic-ordering): stat counter; publication order is carried by the snapshot mutex
                    self.stats
                        .violations
                        .fetch_add(violations, Ordering::Relaxed);
                    eprintln!(
                        "tir-serve: epoch {}: {} structural violation(s) in rebuilt snapshot",
                        self.epoch, violations
                    );
                }
            }
            let next = Arc::new(Snapshot {
                epoch: self.epoch,
                live: self.live,
                index: self.master.clone(),
            });
            *lock(&self.publish) = next;
            // analyze:allow(atomic-ordering): gauge trailing the publish mutex above; readers need no ordering from it
            self.stats.epochs.store(self.epoch, Ordering::Relaxed);
            // analyze:allow(atomic-ordering): high-water gauge, read only for reporting
            self.stats.max_batch.fetch_max(wrote, Ordering::Relaxed);
        }
        // Snapshot policy runs at barriers (the batch is already durable
        // in the WAL either way).
        let snapshot = match &mut self.journal {
            Some(journal) if !acks.is_empty() => journal.snapshot(&self.master, want_snapshot),
            _ => Ok(()),
        };
        if let Err(e) = snapshot {
            eprintln!("tir-serve: snapshot failed: {e}; degrading to read-only");
            self.health.set_degraded();
            return self.reject(0, acks);
        }
        // Acks go out only after everything enqueued before the barrier
        // (which sits earlier in the same batch) is committed and
        // published.
        for ack in acks {
            let _ = ack.send(Ok(self.epoch));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir_core::{BruteForce, Collection, Object, TimeTravelQuery};

    fn store() -> EpochStore<BruteForce> {
        let coll = Collection::running_example();
        let bf = BruteForce::build(coll.objects());
        EpochStore::new(bf, coll.len() as u64, EpochConfig::default())
    }

    #[test]
    fn snapshot_epoch_zero_before_writes() {
        let s = store();
        let snap = s.snapshot();
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.live, 8);
        assert_eq!(
            snap.index.query(&TimeTravelQuery::new(5, 9, vec![0, 2])),
            vec![1, 3, 6]
        );
    }

    #[test]
    fn flush_makes_prior_inserts_visible() {
        let s = store();
        let o = Object::new(8, 5, 6, vec![0, 2]);
        s.enqueue(WriteOp::Insert(o.clone())).expect("enqueue");
        let epoch = s.flush().expect("flush");
        assert!(epoch >= 1);
        let snap = s.snapshot();
        assert!(snap.epoch >= epoch);
        assert_eq!(snap.live, 9);
        let hits = snap.index.query(&TimeTravelQuery::new(5, 9, vec![0, 2]));
        assert_eq!(hits, vec![1, 3, 6, 8]);

        s.enqueue(WriteOp::Delete(o)).expect("enqueue");
        s.flush().expect("flush");
        let snap = s.snapshot();
        assert_eq!(snap.live, 8);
        assert_eq!(
            snap.index.query(&TimeTravelQuery::new(5, 9, vec![0, 2])),
            vec![1, 3, 6]
        );
    }

    #[test]
    fn old_snapshots_stay_readable_after_swap() {
        let s = store();
        let old = s.snapshot();
        s.enqueue(WriteOp::Insert(Object::new(8, 5, 6, vec![0, 2])))
            .expect("enqueue");
        s.flush().expect("flush");
        // The pre-swap snapshot still answers with its epoch's data.
        assert_eq!(
            old.index.query(&TimeTravelQuery::new(5, 9, vec![0, 2])),
            vec![1, 3, 6]
        );
        assert_eq!(old.epoch, 0);
    }

    #[test]
    fn missed_delete_is_counted_not_fatal() {
        let s = store();
        let ghost = Object::new(99, 0, 1, vec![0]);
        s.enqueue(WriteOp::Delete(ghost)).expect("enqueue");
        s.flush().expect("flush");
        assert_eq!(s.stats().missed_deletes.load(Ordering::Relaxed), 1);
        assert_eq!(s.snapshot().live, 8);
    }

    #[test]
    fn overload_rejects_instead_of_queueing() {
        let coll = Collection::running_example();
        let bf = BruteForce::build(coll.objects());
        // Tiny queue plus an applier slowed to ~1ms per swap (via the
        // validator hook) make overload deterministic.
        let s = EpochStore::new(
            bf,
            coll.len() as u64,
            EpochConfig {
                queue_depth: 2,
                max_batch: 1,
                validator: Some(Box::new(|_: &BruteForce| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    0
                })),
            },
        );
        let mut next_id = 8u32;
        let mut saw_overload = false;
        for _ in 0..10_000 {
            let o = Object::new(next_id, 0, 1, vec![0]);
            match s.enqueue(WriteOp::Insert(o)) {
                Ok(()) => next_id += 1,
                Err(Rejected::Overloaded) => {
                    saw_overload = true;
                    break;
                }
                Err(e) => panic!("store rejected unexpectedly: {e}"),
            }
        }
        assert!(saw_overload, "a depth-2 queue must overflow eventually");
        // Draining via flush recovers the store.
        s.flush().expect("flush");
        assert!(s.snapshot().live > 8);
    }

    #[test]
    fn validator_runs_on_every_swap() {
        let coll = Collection::running_example();
        let bf = BruteForce::build(coll.objects());
        let s = EpochStore::new(
            bf,
            coll.len() as u64,
            EpochConfig {
                validator: Some(Box::new(|_: &BruteForce| 2)),
                ..Default::default()
            },
        );
        s.enqueue(WriteOp::Insert(Object::new(8, 0, 1, vec![0])))
            .expect("enqueue");
        s.flush().expect("flush");
        assert_eq!(s.stats().violations.load(Ordering::Relaxed), 2);
    }
}
