//! Run-to-completion query executor behind an admission gate.
//!
//! A query runs on the thread that asked for it — for `tir serve`, the
//! connection thread that parsed the request. No thread, channel or
//! wake-up sits between the request and the index walk; what the pool
//! adds is admission. A caller first takes a **permit** from the gate:
//! one of `workers` reusable [`QueryScratch`] arenas behind one mutex
//! and condvar. At most `workers` queries run at once, at most
//! `workers × queue_depth` callers wait for a permit, and the next
//! caller is refused with
//! [`Rejected::Overloaded`](crate::epoch::Rejected) — the system
//! degrades by shedding load, never by queueing unboundedly. The gate is
//! held only to pop or push a scratch, never while a query runs.
//!
//! Deadlines: a query may carry an absolute deadline. It is checked once
//! the permit is granted (a caller that waited out its budget at the gate
//! is answered [`QueryOutcome::TimedOut`] without touching the index) and
//! armed on the [`QueryScratch`] so heavy plans are abandoned mid-flight
//! via the planner's progress probe. A query that completes is answered
//! normally even if the clock passed the deadline — the full answer is
//! correct and already paid for.
//!
//! Panics: the index walk runs under `catch_unwind`. A query that panics
//! answers [`Rejected::Closed`], counts in [`PoolStats::worker_panics`],
//! and hands a fresh scratch back to the gate — one poisoned query can
//! never shrink the pool or take its connection thread down.
//!
//! Counters: the gate keeps the pool's [`PoolStats`] and updates them in
//! the critical sections a query already passes through — a refusal in
//! `acquire`, every other outcome when the permit goes back — so counting
//! adds no lock. A query's planner work comes from its scratch
//! ([`QueryScratch::last_stats`]), the one place that counts it.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use tir_core::{ObjectId, PlanStats, QueryScratch, TemporalIrIndex, TimeTravelQuery};

use crate::epoch::{EpochStore, Rejected};
use crate::witness::{lock, wait};

/// An answered query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReply {
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// The answer set: strictly ascending, so exactly-once, ids — the
    /// order a `HITS` line carries. The pool puts them in order while it
    /// holds the permit (`QueryScratch::order_answer_ids`); an index that
    /// reports an id twice breaks the contract visibly, with the
    /// duplicate kept.
    pub ids: Vec<ObjectId>,
}

/// What came back for an executed query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutcome {
    /// The query completed; here is its answer.
    Answered(QueryReply),
    /// The deadline expired (waiting for a permit or mid-plan) before
    /// the answer was complete; any partial answer was discarded.
    TimedOut,
}

/// Shape of the admission gate.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Queries that may run at once (permits).
    pub workers: usize,
    /// Callers that may wait per permit before the next is refused.
    pub queue_depth: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 4,
            queue_depth: 256,
        }
    }
}

/// The pool's counters since it was built, as [`QueryPool::stats`] reads
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Queries answered.
    pub served: u64,
    /// Queries refused because the gate's waiting room was full.
    pub overloaded: u64,
    /// Queries answered `TIMEOUT` (deadline expired at the gate or
    /// mid-plan).
    pub timeouts: u64,
    /// Query panics caught on the calling thread.
    pub worker_panics: u64,
    /// The planner work of every query that reached the index walk:
    /// answered, timed out mid-plan or panicked. A query refused at the
    /// gate, or whose deadline expired before the walk, adds nothing.
    pub plan: PlanStats,
}

impl PoolStats {
    /// Counts one query that held a permit, and the work its walk did.
    fn count(&mut self, outcome: &Result<QueryOutcome, Rejected>, work: PlanStats) {
        match outcome {
            Ok(QueryOutcome::Answered(_)) => self.served += 1,
            Ok(QueryOutcome::TimedOut) => self.timeouts += 1,
            Err(_) => self.worker_panics += 1,
        }
        self.plan += work;
    }
}

/// The gate's state: a permit *is* an idle scratch.
struct Gate {
    idle: Vec<QueryScratch>,
    waiting: usize,
    stats: PoolStats,
}

/// The executor: runs each query on its caller, at most `workers` at a
/// time.
pub struct QueryPool<I> {
    store: Arc<EpochStore<I>>,
    gate: Mutex<Gate>,
    freed: Condvar,
    workers: usize,
    max_waiting: usize,
}

impl<I: TemporalIrIndex + Clone + Send + Sync + 'static> QueryPool<I> {
    /// Builds the gate over a shared [`EpochStore`]. Spawns nothing.
    pub fn new(store: Arc<EpochStore<I>>, config: PoolConfig) -> QueryPool<I> {
        let workers = config.workers.max(1);
        QueryPool {
            store,
            gate: Mutex::new(Gate {
                // After warm-up, the only steady-state allocation per
                // query is the reply vector handed to the caller: it is
                // put in order on the permit's own word arena.
                idle: (0..workers).map(|_| QueryScratch::default()).collect(),
                waiting: 0,
                stats: PoolStats::default(),
            }),
            freed: Condvar::new(),
            workers,
            max_waiting: workers.saturating_mul(config.queue_depth.max(1)),
        }
    }

    /// Runs a query to completion on the calling thread.
    /// [`Rejected::Overloaded`] means the gate's waiting room is full;
    /// [`Rejected::Closed`] that the query panicked.
    pub fn execute(&self, query: TimeTravelQuery) -> Result<QueryReply, Rejected> {
        match self.execute_with_deadline(query, None)? {
            QueryOutcome::Answered(reply) => Ok(reply),
            // Unreachable without a deadline; map defensively.
            QueryOutcome::TimedOut => Err(Rejected::Closed),
        }
    }

    /// [`QueryPool::execute`] with an absolute deadline (see the module
    /// docs for the exact semantics).
    pub fn execute_with_deadline(
        &self,
        query: TimeTravelQuery,
        deadline: Option<Instant>,
    ) -> Result<QueryOutcome, Rejected> {
        let mut scratch = self.acquire()?;
        let (outcome, work) = self.run(&query, deadline, &mut scratch);
        let mut gate = lock(&self.gate);
        gate.idle.push(scratch);
        gate.stats.count(&outcome, work);
        let wake = gate.waiting > 0;
        drop(gate);
        if wake {
            // Asked first: an unconditional notify is a syscall per query.
            self.freed.notify_one();
        }
        outcome
    }

    /// Takes a permit, waiting for one if the waiting room has space.
    fn acquire(&self) -> Result<QueryScratch, Rejected> {
        let mut gate = lock(&self.gate);
        let mut queued = false;
        loop {
            if let Some(scratch) = gate.idle.pop() {
                gate.waiting -= usize::from(queued);
                return Ok(scratch);
            }
            if !queued {
                if gate.waiting >= self.max_waiting {
                    gate.stats.overloaded += 1;
                    return Err(Rejected::Overloaded);
                }
                gate.waiting += 1;
                queued = true;
            }
            // analyze:allow(blocking-under-lock): a condvar wait releases the gate while parked; permits return without it held
            gate = wait(&self.freed, gate);
        }
    }

    /// The query itself, permit in hand and gate released: its outcome,
    /// and the planner work it did.
    fn run(
        &self,
        query: &TimeTravelQuery,
        deadline: Option<Instant>,
        scratch: &mut QueryScratch,
    ) -> (Result<QueryOutcome, Rejected>, PlanStats) {
        // Chaos hook: simulate a slow query; it and the callers waiting
        // behind its permit then find their deadlines expired.
        tir_fault::stall(tir_fault::FaultSite::WorkerStall);
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return (Ok(QueryOutcome::TimedOut), PlanStats::default());
        }
        // The counts read below are this query's even if the walk panics
        // before the index resets the scratch.
        scratch.reset();
        scratch.set_deadline(deadline);
        let snap = self.store.snapshot();
        let mut ids: Vec<ObjectId> = Vec::new();
        let walk = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            snap.index.query_into(query, scratch, &mut ids);
            if !scratch.timed_out() {
                scratch.order_answer_ids(&mut ids);
            }
        }));
        let work = scratch.last_stats();
        if walk.is_err() {
            // The arena may be half-written: the permit goes back fresh.
            *scratch = QueryScratch::default();
            return (Err(Rejected::Closed), work);
        }
        if scratch.timed_out() {
            return (Ok(QueryOutcome::TimedOut), work);
        }
        let reply = QueryReply {
            epoch: snap.epoch,
            ids,
        };
        (Ok(QueryOutcome::Answered(reply)), work)
    }

    /// The counters, read in one critical section of the gate.
    pub fn stats(&self) -> PoolStats {
        lock(&self.gate).stats
    }

    /// Number of permits.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::epoch::{EpochConfig, WriteOp};
    use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
    use tir_core::{BruteForce, Collection, Object, Tif};

    fn pool_over<I>(index: I, config: PoolConfig) -> QueryPool<I>
    where
        I: TemporalIrIndex + Clone + Send + Sync + 'static,
    {
        let live = Collection::running_example().len() as u64;
        let store = EpochStore::new(index, live, EpochConfig::default());
        QueryPool::new(Arc::new(store), config)
    }

    pub(crate) fn example_index() -> BruteForce {
        BruteForce::build(Collection::running_example().objects())
    }

    #[test]
    fn answers_match_direct_queries() {
        let pool = pool_over(example_index(), PoolConfig::default());
        let reply = pool
            .execute(TimeTravelQuery::new(5, 9, vec![0, 2]))
            .expect("execute");
        assert_eq!(reply.ids, vec![1, 3, 6]);
        assert_eq!(reply.epoch, 0);
    }

    #[test]
    fn sees_writes_after_flush() {
        let pool = pool_over(example_index(), PoolConfig::default());
        let insert = WriteOp::Insert(Object::new(8, 5, 6, vec![0, 2]));
        pool.store.enqueue(insert).expect("enqueue");
        pool.store.flush().expect("flush");
        let reply = pool
            .execute(TimeTravelQuery::new(5, 9, vec![0, 2]))
            .expect("execute");
        assert_eq!(reply.ids, vec![1, 3, 6, 8]);
        assert!(reply.epoch >= 1);
    }

    #[test]
    fn many_concurrent_submitters() {
        let pool = pool_over(example_index(), PoolConfig::default());
        std::thread::scope(|s| {
            for t in 0..8 {
                let pool = &pool;
                s.spawn(move || {
                    for i in 0..200 {
                        let q = TimeTravelQuery::new(5, 9, vec![(t + i) % 3]);
                        match pool.execute(q) {
                            Ok(reply) => {
                                // In order, so exactly once.
                                assert!(reply.ids.windows(2).all(|w| w[0] < w[1]));
                            }
                            Err(Rejected::Overloaded) => {} // legal under load
                            Err(e) => panic!("pool rejected: {e}"),
                        }
                    }
                });
            }
        });
        assert!(pool.stats().served > 0);
        // Every permit came back and nobody is still counted as waiting.
        let gate = lock(&pool.gate);
        assert_eq!((gate.idle.len(), gate.waiting), (pool.workers(), 0));
    }

    #[test]
    fn already_expired_deadline_answers_timeout() {
        let pool = pool_over(example_index(), PoolConfig::default());
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        let outcome = pool
            .execute_with_deadline(q.clone(), Some(Instant::now()))
            .expect("execute");
        assert_eq!(outcome, QueryOutcome::TimedOut);
        assert_eq!(pool.stats().timeouts, 1);
        // A generous deadline answers normally.
        let later = Instant::now() + std::time::Duration::from_secs(60);
        match pool.execute_with_deadline(q, Some(later)).expect("execute") {
            QueryOutcome::Answered(reply) => assert_eq!(reply.ids, vec![1, 3, 6]),
            QueryOutcome::TimedOut => panic!("a 60s deadline must not expire"),
        }
    }

    #[test]
    fn plan_counts_are_the_walks_sum_and_a_gate_timeout_adds_none() {
        let coll = Collection::running_example();
        let (direct, pool) = (Tif::build(&coll), pool_over(Tif::build(&coll), ONE_BY_ONE));
        let (mut scratch, mut out, mut want) =
            (QueryScratch::default(), Vec::new(), PlanStats::default());
        for elems in [vec![0, 2], vec![1], vec![0, 1, 2], vec![5]] {
            let q = TimeTravelQuery::new(2, 9, elems);
            out.clear();
            direct.query_into(&q, &mut scratch, &mut out);
            want += scratch.last_stats();
            pool.execute(q).expect("execute");
        }
        assert!(want.steps() > 0);
        assert_eq!(pool.stats().plan, want);
        // Expired before the walk: counted as a timeout, with no work.
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        let outcome = pool.execute_with_deadline(q, Some(Instant::now()));
        assert_eq!(outcome, Ok(QueryOutcome::TimedOut));
        let stats = pool.stats();
        assert_eq!((stats.served, stats.timeouts, stats.plan), (4, 1, want));
    }

    /// A [`BruteForce`] that shows a test's hook the start time of every
    /// query and insert before running it.
    #[derive(Clone)]
    pub(crate) struct Hooked(BruteForce, Arc<dyn Fn(u64) + Send + Sync>);

    impl TemporalIrIndex for Hooked {
        fn name(&self) -> &'static str {
            "Hooked"
        }
        fn query_into(
            &self,
            q: &TimeTravelQuery,
            scratch: &mut QueryScratch,
            out: &mut Vec<ObjectId>,
        ) {
            self.1(q.interval.st);
            self.0.query_into(q, scratch, out);
        }
        fn insert(&mut self, o: &Object) {
            self.1(o.interval.st);
            self.0.insert(o);
        }
        fn delete(&mut self, o: &Object) -> bool {
            self.0.delete(o)
        }
        fn size_bytes(&self) -> usize {
            self.0.size_bytes()
        }
    }

    pub(crate) const MAGIC_START: u64 = 777_777;

    /// Panics on one magic start time — stands in for any latent bug a
    /// hostile request can reach on a connection thread or the applier.
    pub(crate) fn panic_on_magic(index: BruteForce) -> Hooked {
        Hooked(
            index,
            Arc::new(|st| assert_ne!(st, MAGIC_START, "injected panic")),
        )
    }

    /// An index whose every query reports on the returned receiver that
    /// it is inside the index, then parks there until the test sends it a
    /// token: a permit held for exactly as long as the test says.
    pub(crate) fn parked_index() -> (Hooked, Receiver<()>, SyncSender<()>) {
        let (entered, entered_rx) = sync_channel(8);
        let (release, tokens) = sync_channel::<()>(8);
        let tokens = Mutex::new(tokens);
        let park = move |_| {
            entered.send(()).expect("test listens");
            let tokens = tokens.lock().expect("token lock");
            tokens.recv().expect("test releases every parked query");
        };
        (Hooked(example_index(), Arc::new(park)), entered_rx, release)
    }

    /// One permit, one place to wait.
    pub(crate) const ONE_BY_ONE: PoolConfig = PoolConfig {
        workers: 1,
        queue_depth: 1,
    };

    fn parked_pool() -> (QueryPool<Hooked>, Receiver<()>, SyncSender<()>) {
        let (index, entered, release) = parked_index();
        (pool_over(index, ONE_BY_ONE), entered, release)
    }

    fn wait_until_waiting(pool: &QueryPool<Hooked>, n: usize) {
        while lock(&pool.gate).waiting != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn second_caller_waits_and_the_third_is_overloaded() {
        let (pool, entered, release) = parked_pool();
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        std::thread::scope(|s| {
            let first = s.spawn(|| pool.execute(q.clone()));
            entered.recv().expect("first query holds the permit");
            let second = s.spawn(|| pool.execute(TimeTravelQuery::new(5, 9, vec![1])));
            wait_until_waiting(&pool, 1);
            assert_eq!(pool.execute(q.clone()), Err(Rejected::Overloaded));
            assert_eq!(pool.stats().overloaded, 1);
            assert!(entered.try_recv().is_err(), "the waiter has not run");
            for _ in 0..2 {
                release.send(()).expect("release");
            }
            let first = first.join().expect("first caller").expect("answered");
            let second = second.join().expect("second caller").expect("answered");
            assert_eq!(first.ids, vec![1, 3, 6]);
            let direct = example_index().answer(&TimeTravelQuery::new(5, 9, vec![1]));
            assert_eq!(second.ids, direct);
        });
        assert_eq!(pool.stats().served, 2);
    }

    #[test]
    fn deadline_that_expires_at_the_gate_never_touches_the_index() {
        let (pool, entered, release) = parked_pool();
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        std::thread::scope(|s| {
            let first = s.spawn(|| pool.execute(q.clone()));
            entered.recv().expect("first query holds the permit");
            let deadline = Instant::now() + std::time::Duration::from_millis(200);
            let (pool, q) = (&pool, &q);
            let second = s.spawn(move || pool.execute_with_deadline(q.clone(), Some(deadline)));
            wait_until_waiting(pool, 1);
            // The budget runs out while the caller is still at the gate.
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
            release.send(()).expect("release");
            first.join().expect("first caller").expect("answered");
            let second = second.join().expect("second caller");
            assert_eq!(second, Ok(QueryOutcome::TimedOut));
        });
        assert!(entered.try_recv().is_err(), "the timed-out query ran");
        assert_eq!(pool.stats().timeouts, 1);
    }

    #[test]
    fn query_panic_is_caught_and_the_permit_comes_back() {
        // One permit: the poisoned and the clean query need the same one.
        let pool = pool_over(panic_on_magic(example_index()), ONE_BY_ONE);
        let poisoned = TimeTravelQuery::new(MAGIC_START, MAGIC_START + 1, vec![0]);
        assert_eq!(
            pool.execute(poisoned).expect_err("the panic is the answer"),
            Rejected::Closed
        );
        assert_eq!(pool.stats().worker_panics, 1);
        let reply = pool
            .execute(TimeTravelQuery::new(5, 9, vec![0, 2]))
            .expect("the only permit came back");
        assert_eq!(reply.ids, vec![1, 3, 6]);
    }
}
