//! Epoch-snapshot store: never-blocking reads over a single-writer index.
//!
//! Readers call [`EpochStore::snapshot`] and get an `Arc` to an immutable
//! [`Snapshot`]; they then answer any number of queries against it without
//! ever blocking on writers (queries take `&self` on every
//! [`TemporalIrIndex`]). A single **applier thread** owns the only mutable
//! copy of the index ("the master"): it drains the bounded write queue,
//! coalesces the drained commands into one batch, commits it to the
//! master, optionally validates the result, and atomically publishes the
//! master itself as the next epoch. Old snapshots stay alive for as long
//! as some reader holds their `Arc`.
//!
//! ## Two copies, leapfrogging
//!
//! The store keeps two copies of the index: the applier's master and the
//! one inside the published snapshot. Publishing *moves* the master into
//! the next `Arc<Snapshot>` — O(1), no clone — and the swap hands the
//! applier the epoch it just retired. Once the batch's barriers are
//! acked, the applier takes that retired copy back with
//! [`Arc::try_unwrap`] and replays the same ops onto it ([`apply_ops`] is
//! a pure function of state and op), which makes it the next master. A
//! batch therefore costs two applies of what it touched instead of a
//! copy of everything.
//!
//! The applier never waits for readers. If one still pins the retired
//! epoch, the applier keeps that `Arc` and the ops it missed and tries
//! once more when the next batch arrives; if it is pinned even then, the
//! applier lets it go and clones the published copy, which is what every
//! epoch used to cost. A pinned snapshot is never written to: the only
//! way back to `&mut` is `try_unwrap`, which succeeds only for the last
//! holder. [`EpochStats::publish_reused`] and
//! [`EpochStats::publish_cloned`] count which way each master was made.
//!
//! ## Publish cadence
//!
//! With the clone gone an epoch costs microseconds, so the applier is
//! back at the queue before a lone writer has sent the rest of its
//! group, and the group reaches it as one batch or as several, whichever
//! way the scheduler interleaves the two threads — each batch a publish,
//! a replay and (journaled) an fsync. The applier therefore starts
//! epochs at least `EPOCH_GAP` (750 µs) apart: a command that arrives
//! sooner after the last publish waits out the rest of the gap while the
//! queue fills behind it, and the whole group commits as one batch. A
//! batch that is already full never waits, and neither does a store that
//! has been idle for longer than the gap, so the cadence costs a barrier
//! at most the gap and caps nothing but the publish rate (under 1400
//! epochs a second). This is the only place the applier sleeps; it is
//! waiting for writers, never for readers.
//!
//! Backpressure is explicit: the write queue is a `sync_channel`, and
//! [`EpochStore::enqueue`] returns [`Rejected::Overloaded`] instead of
//! queueing unboundedly. [`EpochStore::flush`] is the write barrier: when
//! it returns, every command enqueued before the call is applied and
//! visible to subsequent [`EpochStore::snapshot`] calls — this is the
//! monotonicity contract the differential harness's readers check (each
//! answer a reader reads equals the model's at the epoch its snapshot
//! carries).
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
use std::time::{Duration, Instant};

use tir_core::{apply_ops, TemporalIrIndex};
use tir_persist::Durability;

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
    /// The latest epoch this applier published (0 until its first
    /// publish). An absolute epoch number, not a count of swaps: a
    /// recovered durable store resumes from its recovered epoch.
    pub epochs: AtomicU64,
    /// Masters made by replaying a batch onto the retired copy — one
    /// bump per epoch, here or in `publish_cloned`.
    pub publish_reused: AtomicU64,
    /// Masters made by cloning the published copy, because a reader
    /// still pinned the retired epoch when the next batch arrived.
    pub publish_cloned: AtomicU64,
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
        let journal = Journal { durability, dict };
        Self::with_journal(index, epoch, live, config, Some(journal))
    }

    fn with_journal(
        index: I,
        epoch: u64,
        live: u64,
        config: EpochConfig<I>,
        journal: Option<Journal>,
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
            master: Master::Ready(index),
            live,
            epoch,
            published_at: None,
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

/// The durable side of a store built by [`EpochStore::new_durable`].
struct Journal {
    durability: Durability,
    /// Snapshots embed the dictionary; shared with the server front end.
    dict: Arc<Mutex<ServeDict>>,
}

impl Journal {
    /// Writes a snapshot now (`force`) or when the engine's
    /// `snapshot_every` policy says one is due.
    fn snapshot<I: TemporalIrIndex>(&mut self, index: &I, force: bool) -> io::Result<()> {
        let dict = lock(&self.dict);
        if force {
            self.durability.write_snapshot(index, dict.dict())
        } else {
            self.durability
                .maybe_snapshot(index, dict.dict())
                .map(|_| ())
        }
    }
}

/// The applier's own copy of the index, between publishes.
enum Master<I> {
    /// At the published epoch: the next batch commits here.
    Ready(I),
    /// A reader still pinned the copy the last publish retired. The
    /// applier holds that epoch and the ops published since, and tries
    /// to reclaim it once more when the next batch arrives.
    Pinned(Arc<Snapshot<I>>, Vec<WriteOp>),
    /// Moved into the published snapshot and not yet replaced: the state
    /// inside `Applier::apply` between publish and catch-up.
    Published,
}

/// Least distance between one publish and the start of the next epoch
/// (see "Publish cadence" in the module docs). Longer than a closed-loop
/// client needs to send a group of writes and its barrier over loopback,
/// so such a group commits as one batch; short against the milliseconds
/// the per-epoch clone used to cost.
const EPOCH_GAP: Duration = Duration::from_micros(750);

struct Applier<I> {
    master: Master<I>,
    live: u64,
    epoch: u64,
    /// When this applier last published; `None` until it has.
    published_at: Option<Instant>,
    rx: Receiver<Cmd>,
    publish: Arc<Mutex<Arc<Snapshot<I>>>>,
    max_batch: usize,
    validator: Option<Validator<I>>,
    stats: Arc<EpochStats>,
    /// Shared with the store front end; latched on durability failure.
    health: Arc<HealthFlag>,
    journal: Option<Journal>,
}

impl<I: TemporalIrIndex + Clone> Applier<I> {
    fn run(&mut self) {
        let (mut batch, mut ops, mut acks) = (Vec::new(), Vec::new(), Vec::new());
        // Block for the first command; then coalesce whatever else is
        // already queued (up to max_batch) into the same epoch swap.
        while let Ok(first) = self.rx.recv() {
            batch.push(first);
            self.drain_queue(&mut batch);
            // Publish cadence: too soon after the last publish, let the
            // queue fill for the rest of the gap — unless the batch is
            // full already.
            let gap_left = self
                .published_at
                .and_then(|at| EPOCH_GAP.checked_sub(at.elapsed()));
            if let (Some(wait), true) = (gap_left, batch.len() < self.max_batch) {
                std::thread::sleep(wait);
                self.drain_queue(&mut batch);
            }
            tir_fault::stall(tir_fault::FaultSite::ApplierDelay);
            let mut want_snapshot = false;
            for cmd in batch.drain(..) {
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
                self.reject(ops.len(), &mut acks);
            } else {
                self.apply(&ops, &mut acks, want_snapshot);
            }
            ops.clear();
        }
        // Clean shutdown of a journaled store: one last snapshot so
        // restart replays nothing. A degraded applier skips it — the disk
        // already failed once, and recovery from snapshot + WAL replay
        // reaches the same acknowledged state.
        if let Some(journal) = &mut self.journal {
            if !self.health.is_degraded() && self.epoch > journal.durability.snapshot_epoch() {
                let published = Arc::clone(&lock(&self.publish));
                if let Err(e) = journal.snapshot(&published.index, true) {
                    eprintln!("tir-serve: shutdown snapshot failed: {e} (WAL replay will recover)");
                }
            }
        }
    }

    /// Moves what is queued right now into `batch`, up to `max_batch`.
    fn drain_queue(&self, batch: &mut Vec<Cmd>) {
        while batch.len() < self.max_batch {
            match self.rx.try_recv() {
                Ok(cmd) => batch.push(cmd),
                Err(_) => break,
            }
        }
    }

    /// Counts `writes` as discarded and NAKs `acks`: what a degraded
    /// store answers, and how a failed batch is refused — it was never
    /// applied, so the published epoch still equals the acknowledged one.
    fn reject(&self, writes: usize, acks: &mut Vec<BarrierAck>) {
        // analyze:allow(atomic-ordering): monotonic stat counter, read only for reporting
        self.stats
            .degraded_writes
            .fetch_add(writes as u64, Ordering::Relaxed);
        for ack in acks.drain(..) {
            let _ = ack.send(Err(Rejected::Degraded));
        }
    }

    fn apply(&mut self, ops: &[WriteOp], acks: &mut Vec<BarrierAck>, want_snapshot: bool) {
        let mut retired = None;
        if !ops.is_empty() {
            let mut master = self.take_master();
            // Commit: straight onto the master, or through the journal
            // (WAL append → fsync → the same loop) when there is one.
            let deleted = match &mut self.journal {
                None => apply_ops(&mut master, ops),
                Some(journal) => match journal.durability.apply_batch(&mut master, ops) {
                    Ok(out) => out.deleted,
                    Err(e) => {
                        eprintln!(
                            "tir-serve: durable apply failed: {e}; degrading to read-only \
                             ({} write(s) in the failed batch discarded)",
                            ops.len()
                        );
                        // Nothing was applied: still at the published epoch.
                        self.master = Master::Ready(master);
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
                let violations = validator(&master) as u64;
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
                index: master,
            });
            retired = Some(std::mem::replace(&mut *lock(&self.publish), next));
            self.published_at = Some(Instant::now());
            // analyze:allow(atomic-ordering): gauge trailing the publish mutex above; readers need no ordering from it
            self.stats.epochs.store(self.epoch, Ordering::Relaxed);
            // analyze:allow(atomic-ordering): high-water gauge, read only for reporting
            self.stats.max_batch.fetch_max(wrote, Ordering::Relaxed);
        }
        // Snapshot policy runs at barriers (the batch is already durable
        // in the WAL either way), on the published copy.
        let snapshot = match &mut self.journal {
            Some(journal) if !acks.is_empty() => {
                let published = Arc::clone(&lock(&self.publish));
                journal.snapshot(&published.index, want_snapshot)
            }
            _ => Ok(()),
        };
        match snapshot {
            // Acks go out only after everything enqueued before the
            // barrier (which sits earlier in the same batch) is committed
            // and published.
            Ok(()) => {
                for ack in acks.drain(..) {
                    let _ = ack.send(Ok(self.epoch));
                }
            }
            Err(e) => {
                eprintln!("tir-serve: snapshot failed: {e}; degrading to read-only");
                self.health.set_degraded();
                self.reject(0, acks);
            }
        }
        // Off the ack path: turn the retired copy into the next master.
        if let Some(retired) = retired {
            self.master = match Arc::try_unwrap(retired) {
                Ok(snap) => Master::Ready(self.catch_up(snap.index, ops)),
                Err(pinned) => Master::Pinned(pinned, ops.to_vec()),
            };
        }
    }

    /// The copy the next batch commits to, at the published epoch. A
    /// retired copy that was pinned gets its second and last reclaim
    /// attempt here; if a reader still holds it, the published copy is
    /// cloned instead — the applier never waits for readers.
    fn take_master(&mut self) -> I {
        match std::mem::replace(&mut self.master, Master::Published) {
            Master::Ready(index) => return index,
            Master::Pinned(retired, missed) => {
                if let Ok(snap) = Arc::try_unwrap(retired) {
                    return self.catch_up(snap.index, &missed);
                }
            }
            Master::Published => {}
        }
        // analyze:allow(atomic-ordering): monotonic stat counter, read only for reporting
        self.stats.publish_cloned.fetch_add(1, Ordering::Relaxed);
        // Clone outside the publish lock: readers must not wait for it.
        let published = Arc::clone(&lock(&self.publish));
        published.index.clone()
    }

    /// Replays `ops` — what was published since `index` was retired —
    /// onto the reclaimed copy, bringing it to the published epoch.
    fn catch_up(&self, mut index: I, ops: &[WriteOp]) -> I {
        apply_ops(&mut index, ops);
        // analyze:allow(atomic-ordering): monotonic stat counter, read only for reporting
        self.stats.publish_reused.fetch_add(1, Ordering::Relaxed);
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir_core::{BruteForce, Collection, Object, Tif, TimeTravelQuery};

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

    /// A `Tif` store over the running example, and the catalog it holds.
    fn tif_store() -> (EpochStore<Tif>, Vec<Object>) {
        let coll = Collection::running_example();
        let store = EpochStore::new(Tif::build(&coll), coll.len() as u64, EpochConfig::default());
        (store, coll.objects().to_vec())
    }

    fn assert_exact(snap: &Snapshot<Tif>, model: &[Object]) {
        let grid = tir_check::oracle_query_grid(model, 16, snap.epoch);
        let diverged = tir_check::diff_against_oracle(&snap.index, model, &grid);
        assert!(diverged.is_empty(), "epoch {}: {diverged:?}", snap.epoch);
        assert_eq!(snap.live, model.len() as u64);
    }

    /// Commits `op` as one epoch, mirrors it in `model` and checks the
    /// published copy against the oracle. The snapshot it takes is gone
    /// on return, so this pins nothing.
    fn commit_exact(s: &EpochStore<Tif>, model: &mut Vec<Object>, op: WriteOp) -> u64 {
        match &op {
            WriteOp::Insert(o) => model.push(o.clone()),
            WriteOp::Delete(o) => model.retain(|m| m.id != o.id),
        }
        s.enqueue(op).expect("enqueue");
        let epoch = s.flush().expect("flush");
        let snap = s.snapshot();
        assert_eq!(snap.epoch, epoch);
        assert_exact(&snap, model);
        epoch
    }

    /// `(publish_reused, publish_cloned)` once the applier is done
    /// catching up: an empty flush queues behind that step.
    fn publish_counts(s: &EpochStore<Tif>) -> (u64, u64) {
        s.flush().expect("flush");
        let stats = s.stats();
        (
            stats.publish_reused.load(Ordering::Relaxed),
            stats.publish_cloned.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn unpinned_epochs_leapfrog_without_cloning_and_both_copies_stay_exact() {
        let (s, mut model) = tif_store();
        // One op per epoch, so consecutive epochs are served by
        // alternating copies; each delete removes the previous insert,
        // which only the *other* copy applied first-hand.
        for round in 0..8u32 {
            let o = Object::new(100 + round, 2 + u64::from(round), 9, vec![0, 2]);
            let epoch = commit_exact(&s, &mut model, WriteOp::Insert(o.clone()));
            assert_eq!(epoch, u64::from(2 * round + 1));
            if round % 2 == 1 {
                commit_exact(&s, &mut model, WriteOp::Delete(o));
            } else {
                let ghost = Object::new(9_000 + round, 0, 1, vec![1]);
                commit_exact(&s, &mut model, WriteOp::Delete(ghost));
            }
        }
        assert_eq!(publish_counts(&s), (16, 0));
    }

    #[test]
    fn a_group_sent_inside_the_gap_is_one_epoch_and_epochs_keep_their_distance() {
        let (s, mut model) = tif_store();
        commit_exact(
            &s,
            &mut model,
            WriteOp::Insert(Object::new(50, 1, 4, vec![0])),
        );
        // Each group starts right behind a publish, so the applier waits
        // out the gap before it takes the group's first command: every
        // publish is a full gap behind the one before it, a lower bound
        // no scheduler delay can break.
        const GROUPS: u32 = 6;
        let begun = Instant::now();
        let mut one_epoch_groups = 0;
        let mut before = s.snapshot().epoch;
        for g in 0..GROUPS {
            for k in 0..4 {
                let o = Object::new(200 + 4 * g + k, u64::from(k), 9, vec![0, 1]);
                model.push(o.clone());
                s.enqueue(WriteOp::Insert(o)).expect("enqueue");
            }
            let epoch = s.flush().expect("flush");
            one_epoch_groups += u32::from(epoch == before + 1);
            before = epoch;
        }
        assert!(begun.elapsed() >= EPOCH_GAP * (GROUPS - 1));
        assert_exact(&s.snapshot(), &model);
        // Four in-process enqueues take microseconds, the gap hundreds:
        // short of a descheduled test thread, a group is one epoch.
        assert!(one_epoch_groups >= GROUPS / 2, "{one_epoch_groups}");
    }

    #[test]
    fn pinned_epoch_is_never_mutated_and_the_applier_clones_instead_of_waiting() {
        let (s, mut model) = tif_store();
        let at_pin = model.clone();
        let pinned = s.snapshot();
        // Two epochs go by under the pin: the reclaim fails after the
        // first and again when the second batch arrives, so the second
        // master is a clone of the published copy.
        commit_exact(
            &s,
            &mut model,
            WriteOp::Insert(Object::new(8, 5, 6, vec![0, 2])),
        );
        commit_exact(&s, &mut model, WriteOp::Delete(at_pin[1].clone()));
        assert_eq!(publish_counts(&s), (1, 1));
        assert_eq!(pinned.epoch, 0);
        assert_exact(&pinned, &at_pin);
        drop(pinned);

        // The deferred retry: a pin that outlives the publish but is gone
        // by the next batch costs no clone.
        let at_pin = model.clone();
        let pinned = s.snapshot();
        commit_exact(
            &s,
            &mut model,
            WriteOp::Insert(Object::new(9, 1, 12, vec![1, 2])),
        );
        // Past the first reclaim attempt, which the pin made fail.
        assert_eq!(publish_counts(&s), (1, 1));
        assert_exact(&pinned, &at_pin);
        drop(pinned);
        commit_exact(&s, &mut model, WriteOp::Delete(at_pin[0].clone()));
        commit_exact(
            &s,
            &mut model,
            WriteOp::Insert(Object::new(10, 0, 3, vec![0])),
        );
        assert_eq!(publish_counts(&s), (4, 1));
    }
}
