//! Worker-pool query executor with per-shard dispatch and backpressure.
//!
//! `workers` OS threads each own a bounded request queue. A query is
//! dispatched to the worker chosen by hashing its rarest-first element
//! (per-shard dispatch: queries over the same elements land on the same
//! worker, which keeps that worker's recently traversed postings warm in
//! its core's cache). A full queue rejects with
//! [`Rejected::Overloaded`](crate::epoch::Rejected) — the system degrades
//! by shedding load, never by queueing unboundedly.
//!
//! Each worker drains up to `max_batch` queued requests, grabs **one**
//! epoch snapshot for the whole batch, and answers every query against
//! it, amortizing the snapshot acquisition and giving batch-mates a
//! consistent view.
//!
//! Deadlines: a job may carry an absolute deadline. The worker checks it
//! at dequeue (a job that waited out its budget in the queue is answered
//! [`QueryOutcome::TimedOut`] without touching the index) and arms the
//! [`QueryScratch`] deadline so heavy plans are abandoned mid-flight via
//! the planner's progress probe. A query that completes is answered
//! normally even if the clock passed the deadline — the full answer is
//! correct and already paid for.
//!
//! Panics: each worker thread runs under a respawn-in-place supervisor.
//! A query that panics kills the in-flight job (its client sees a closed
//! reply channel), bumps [`PoolStats::worker_panics`], and re-enters the
//! worker loop with a fresh scratch on the same thread and queue — one
//! poisoned query can never silently shrink the pool.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use tir_core::{ObjectId, QueryScratch, TemporalIrIndex, TimeTravelQuery};

use crate::epoch::{EpochStore, Rejected};

/// An answered query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReply {
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// The answer set (unsorted, exactly-once ids).
    pub ids: Vec<ObjectId>,
}

/// What came back for a submitted query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutcome {
    /// The query completed; here is its answer.
    Answered(QueryReply),
    /// The job's deadline expired (in queue or mid-plan) before the
    /// answer was complete; any partial answer was discarded.
    TimedOut,
}

struct Job {
    query: TimeTravelQuery,
    deadline: Option<std::time::Instant>,
    reply: SyncSender<QueryOutcome>,
}

/// Tuning knobs of the pool.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Bounded per-worker queue depth.
    pub queue_depth: usize,
    /// Maximum queries answered against one snapshot grab.
    pub max_batch: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 4,
            queue_depth: 256,
            max_batch: 32,
        }
    }
}

/// Counters exported by [`QueryPool::stats`].
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Queries answered.
    pub served: AtomicU64,
    /// Queries rejected because a worker queue was full.
    pub overloaded: AtomicU64,
    /// Snapshot grabs (= batches executed).
    pub batches: AtomicU64,
    /// Largest batch answered against a single snapshot.
    pub max_batch: AtomicU64,
    /// Queries answered `TIMEOUT` (deadline expired in queue or
    /// mid-plan).
    pub timeouts: AtomicU64,
    /// Worker panics caught by the respawn supervisor.
    pub worker_panics: AtomicU64,
}

/// The executor. Submitting is cheap and non-blocking; results come back
/// on per-request channels.
pub struct QueryPool<I> {
    txs: Vec<SyncSender<Job>>,
    handles: Vec<JoinHandle<()>>,
    stats: Arc<PoolStats>,
    _marker: std::marker::PhantomData<fn() -> I>,
}

impl<I: TemporalIrIndex + Clone + Send + Sync + 'static> QueryPool<I> {
    /// Spawns the worker threads over a shared [`EpochStore`].
    pub fn new(store: Arc<EpochStore<I>>, config: PoolConfig) -> QueryPool<I> {
        let workers = config.workers.max(1);
        let stats = Arc::new(PoolStats::default());
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = sync_channel::<Job>(config.queue_depth.max(1));
            let store = Arc::clone(&store);
            let stats = Arc::clone(&stats);
            let max_batch = config.max_batch.max(1);
            let handle = std::thread::Builder::new()
                .name(format!("tir-query-{w}"))
                .spawn(move || {
                    // Respawn-in-place supervisor: a panicking query
                    // must not shrink the pool. The queue and shard
                    // routing survive; only the scratch is rebuilt.
                    loop {
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            worker_loop(&rx, &store, &stats, max_batch)
                        }));
                        match run {
                            Ok(()) => break, // queue closed: clean exit
                            Err(_) => {
                                // analyze:allow(atomic-ordering): monotonic stat counter, read only for reporting
                                stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
                .expect("spawning a query worker thread");
            txs.push(tx);
            handles.push(handle);
        }
        QueryPool {
            txs,
            handles,
            stats,
            _marker: std::marker::PhantomData,
        }
    }

    /// Shard routing: hash of the first (lowest-id) query element. All
    /// queries over an element set sharing that element serialize onto
    /// one worker, trading a little balance for cache locality.
    fn shard(&self, q: &TimeTravelQuery) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        q.elems.first().copied().unwrap_or(0).hash(&mut h);
        (h.finish() % self.txs.len() as u64) as usize
    }

    /// Submits a query; the outcome arrives on the returned channel.
    /// `Err(Overloaded)` means the target worker's queue is full.
    pub fn submit(&self, query: TimeTravelQuery) -> Result<Receiver<QueryOutcome>, Rejected> {
        self.submit_with_deadline(query, None)
    }

    /// Submits a query carrying an absolute deadline (see the module
    /// docs for the exact semantics).
    pub fn submit_with_deadline(
        &self,
        query: TimeTravelQuery,
        deadline: Option<std::time::Instant>,
    ) -> Result<Receiver<QueryOutcome>, Rejected> {
        let shard = self.shard(&query);
        let (reply_tx, reply_rx) = sync_channel(1);
        let job = Job {
            query,
            deadline,
            reply: reply_tx,
        };
        match self.txs[shard].try_send(job) {
            Ok(()) => Ok(reply_rx),
            Err(TrySendError::Full(_)) => {
                // analyze:allow(atomic-ordering): monotonic stat counter, read only for reporting
                self.stats.overloaded.fetch_add(1, Ordering::Relaxed);
                Err(Rejected::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => Err(Rejected::Closed),
        }
    }

    /// Submits and waits for the answer (the closed-loop client path).
    /// A closed reply channel (shutdown, or a worker panic that killed
    /// the in-flight job) surfaces as [`Rejected::Closed`].
    pub fn execute(&self, query: TimeTravelQuery) -> Result<QueryReply, Rejected> {
        match self.execute_with_deadline(query, None)? {
            QueryOutcome::Answered(reply) => Ok(reply),
            // Unreachable without a deadline; map defensively.
            QueryOutcome::TimedOut => Err(Rejected::Closed),
        }
    }

    /// Submits with a deadline and waits for the outcome.
    pub fn execute_with_deadline(
        &self,
        query: TimeTravelQuery,
        deadline: Option<std::time::Instant>,
    ) -> Result<QueryOutcome, Rejected> {
        let rx = self.submit_with_deadline(query, deadline)?;
        rx.recv().map_err(|_| Rejected::Closed)
    }

    /// Live counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.txs.len()
    }
}

impl<I> Drop for QueryPool<I> {
    fn drop(&mut self) {
        self.txs.clear(); // closes every queue; workers drain and exit
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop<I>(rx: &Receiver<Job>, store: &EpochStore<I>, stats: &PoolStats, max_batch: usize)
where
    I: TemporalIrIndex + Clone + Send + Sync + 'static,
{
    // Per-worker reusable arena: after warm-up, the only steady-state
    // allocation per query is the reply vector handed to the client.
    let mut scratch = QueryScratch::default();
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
        }
        // Chaos hook: simulate a slow worker once per batch; deadlined
        // jobs then expire in-queue and answer TIMEOUT at dequeue.
        tir_fault::stall(tir_fault::FaultSite::WorkerStall);
        let snap = store.snapshot();
        // analyze:allow(atomic-ordering): monotonic stat counter, read only for reporting
        stats.batches.fetch_add(1, Ordering::Relaxed);
        // analyze:allow(atomic-ordering): high-water gauge, read only for reporting
        stats
            .max_batch
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        for job in batch {
            if let Some(deadline) = job.deadline {
                if std::time::Instant::now() >= deadline {
                    // analyze:allow(atomic-ordering): monotonic stat counter, read only for reporting
                    stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    // A client that hung up before its answer is not an error.
                    let _ = job.reply.send(QueryOutcome::TimedOut);
                    continue;
                }
            }
            scratch.set_deadline(job.deadline);
            let mut ids: Vec<ObjectId> = Vec::new();
            snap.index.query_into(&job.query, &mut scratch, &mut ids);
            let outcome = if scratch.timed_out() {
                // analyze:allow(atomic-ordering): monotonic stat counter, read only for reporting
                stats.timeouts.fetch_add(1, Ordering::Relaxed);
                QueryOutcome::TimedOut
            } else {
                // analyze:allow(atomic-ordering): monotonic stat counter; replies synchronize via the channel
                stats.served.fetch_add(1, Ordering::Relaxed);
                QueryOutcome::Answered(QueryReply {
                    epoch: snap.epoch,
                    ids,
                })
            };
            // A client that hung up before its answer is not an error.
            let _ = job.reply.send(outcome);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::epoch::{EpochConfig, WriteOp};
    use tir_core::{BruteForce, Collection, Object};

    fn pool_over_example() -> (Arc<EpochStore<BruteForce>>, QueryPool<BruteForce>) {
        let coll = Collection::running_example();
        let store = Arc::new(EpochStore::new(
            BruteForce::build(coll.objects()),
            coll.len() as u64,
            EpochConfig::default(),
        ));
        let pool = QueryPool::new(Arc::clone(&store), PoolConfig::default());
        (store, pool)
    }

    #[test]
    fn answers_match_direct_queries() {
        let (_store, pool) = pool_over_example();
        let reply = pool
            .execute(TimeTravelQuery::new(5, 9, vec![0, 2]))
            .expect("execute");
        let mut ids = reply.ids;
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3, 6]);
        assert_eq!(reply.epoch, 0);
    }

    #[test]
    fn sees_writes_after_flush() {
        let (store, pool) = pool_over_example();
        store
            .enqueue(WriteOp::Insert(Object::new(8, 5, 6, vec![0, 2])))
            .expect("enqueue");
        store.flush().expect("flush");
        let reply = pool
            .execute(TimeTravelQuery::new(5, 9, vec![0, 2]))
            .expect("execute");
        let mut ids = reply.ids;
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3, 6, 8]);
        assert!(reply.epoch >= 1);
    }

    #[test]
    fn same_element_routes_to_same_shard() {
        let (_store, pool) = pool_over_example();
        let a = TimeTravelQuery::new(0, 5, vec![0, 2]);
        let b = TimeTravelQuery::new(9, 12, vec![0, 1]);
        assert_eq!(pool.shard(&a), pool.shard(&b));
    }

    #[test]
    fn many_concurrent_submitters() {
        let (_store, pool) = pool_over_example();
        let pool = Arc::new(pool);
        let mut joins = Vec::new();
        for t in 0..8 {
            let pool = Arc::clone(&pool);
            joins.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let q = TimeTravelQuery::new(5, 9, vec![(t + i) % 3]);
                    match pool.execute(q) {
                        Ok(reply) => {
                            // Exactly-once ids.
                            let mut ids = reply.ids.clone();
                            ids.sort_unstable();
                            ids.dedup();
                            assert_eq!(ids.len(), reply.ids.len());
                        }
                        Err(Rejected::Overloaded) => {} // legal under load
                        Err(e) => panic!("pool rejected: {e}"),
                    }
                }
            }));
        }
        for j in joins {
            j.join().expect("submitter thread");
        }
        assert!(pool.stats().served.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn already_expired_deadline_answers_timeout() {
        let (_store, pool) = pool_over_example();
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        let outcome = pool
            .execute_with_deadline(q.clone(), Some(std::time::Instant::now()))
            .expect("execute");
        assert_eq!(outcome, QueryOutcome::TimedOut);
        assert_eq!(pool.stats().timeouts.load(Ordering::Relaxed), 1);
        // A generous deadline answers normally.
        let later = std::time::Instant::now() + std::time::Duration::from_secs(60);
        match pool.execute_with_deadline(q, Some(later)).expect("execute") {
            QueryOutcome::Answered(reply) => {
                let mut ids = reply.ids;
                ids.sort_unstable();
                assert_eq!(ids, vec![1, 3, 6]);
            }
            QueryOutcome::TimedOut => panic!("a 60s deadline must not expire"),
        }
    }

    /// A [`BruteForce`] wrapper that panics on one magic start time, in
    /// a query or an insert — stands in for any latent bug a hostile
    /// request can reach on a worker or on the applier.
    #[derive(Clone)]
    pub(crate) struct PanicOnMagic(pub(crate) BruteForce);

    pub(crate) const MAGIC_START: u64 = 777_777;

    impl TemporalIrIndex for PanicOnMagic {
        fn name(&self) -> &'static str {
            "PanicOnMagic"
        }
        fn query_into(
            &self,
            q: &TimeTravelQuery,
            scratch: &mut QueryScratch,
            out: &mut Vec<ObjectId>,
        ) {
            assert_ne!(q.interval.st, MAGIC_START, "injected query panic");
            self.0.query_into(q, scratch, out);
        }
        fn insert(&mut self, o: &Object) {
            assert_ne!(o.interval.st, MAGIC_START, "injected insert panic");
            self.0.insert(o);
        }
        fn delete(&mut self, o: &Object) -> bool {
            self.0.delete(o)
        }
        fn size_bytes(&self) -> usize {
            self.0.size_bytes()
        }
    }

    #[test]
    fn worker_panic_is_caught_and_the_worker_respawns() {
        let coll = Collection::running_example();
        let store = Arc::new(EpochStore::new(
            PanicOnMagic(BruteForce::build(coll.objects())),
            coll.len() as u64,
            EpochConfig::default(),
        ));
        let pool = QueryPool::new(
            Arc::clone(&store),
            PoolConfig {
                workers: 1, // one shard: the poisoned and clean queries share a worker
                ..PoolConfig::default()
            },
        );
        let poisoned = TimeTravelQuery::new(MAGIC_START, MAGIC_START + 1, vec![0]);
        assert_eq!(
            pool.execute(poisoned).expect_err("panic kills the reply"),
            Rejected::Closed
        );
        // The respawned worker still answers on the same queue — and its
        // answer orders this thread after the supervisor's panic count.
        let reply = pool
            .execute(TimeTravelQuery::new(5, 9, vec![0, 2]))
            .expect("respawned worker answers");
        assert_eq!(pool.stats().worker_panics.load(Ordering::Relaxed), 1);
        let mut ids = reply.ids;
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3, 6]);
    }
}
