//! The common interface of every temporal-IR index in this crate.

use crate::types::{Object, ObjectId, TimeTravelQuery};
use tir_invidx::QueryScratch;

/// A time-travel IR index: answers [`TimeTravelQuery`]s and supports
/// incremental maintenance.
///
/// Contract shared by all implementations:
///
/// * a query returns the exact answer set of Definition 2.1, with **every
///   qualifying id exactly once**, in unspecified order;
/// * a query whose `elems` is empty returns an empty result (the paper's
///   queries always carry at least one element);
/// * `insert` may use ids larger than anything indexed so far; re-using a
///   live id is a caller bug;
/// * `delete` is *logical* (tombstones), returns whether the object was
///   found, and is idempotent.
pub trait TemporalIrIndex {
    /// Short stable name used in benchmark tables (e.g. `"tIF+Slicing"`).
    fn name(&self) -> &'static str;

    /// Answers a query through a reusable [`QueryScratch`], appending the
    /// answer set to `out` — the one query entry point every index
    /// implements. Steady-state callers that hold one scratch and one
    /// output buffer per loop (the serve pool's permits, bench loops) thereby
    /// amortize every intermediate allocation; per-query planner counters
    /// land in [`QueryScratch::last_stats`].
    fn query_into(&self, q: &TimeTravelQuery, scratch: &mut QueryScratch, out: &mut Vec<ObjectId>);

    /// Answers a query into a fresh vector: [`Self::query_into`] with a
    /// throwaway scratch, for one-off callers.
    fn query(&self, q: &TimeTravelQuery) -> Vec<ObjectId> {
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        self.query_into(q, &mut scratch, &mut out);
        out
    }

    /// Adds one object.
    fn insert(&mut self, o: &Object);

    /// Logically deletes one object; the caller passes the full object so
    /// the index can locate its entries. Returns true if found alive.
    fn delete(&mut self, o: &Object) -> bool;

    /// Approximate heap footprint in bytes.
    fn size_bytes(&self) -> usize;

    /// Adds a batch of objects. The default loops over [`Self::insert`];
    /// composite indexes override it with a merge-rebuild of every
    /// touched division, which is what the paper's batch-insert
    /// experiments (Table 6) measure.
    fn insert_batch(&mut self, batch: &[Object]) {
        for o in batch {
            self.insert(o);
        }
    }
}

// Compile-time `Send + Sync` audit: every index implementation must be
// safely shareable across reader threads (queries take `&self`) and
// transferable to the single-writer applier thread of the serving layer.
// The nine registry methods are audited by `Method::build`, whose return
// type demands both of every row; the types outside the registry are
// pinned here. An index that smuggles in `Rc`/`RefCell`/raw-pointer
// state breaks the build, not a stress test.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<crate::oracle::BruteForce>();
    assert_send_sync::<crate::ranked::RankedTif>();
};

/// Inserts a batch of objects (the paper's insertion experiments use 1%,
/// 5% and 10% batches).
pub fn insert_batch<I: TemporalIrIndex + ?Sized>(index: &mut I, batch: &[Object]) {
    index.insert_batch(batch);
}

/// Deletes a batch of objects; returns how many were found.
pub fn delete_batch<I: TemporalIrIndex + ?Sized>(index: &mut I, batch: &[Object]) -> usize {
    batch.iter().filter(|o| index.delete(o)).count()
}

/// One write to an index — the unit the serving queue carries, the WAL
/// logs and recovery replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert one object (its id must not be live; admission control is
    /// the caller's job, e.g. the server's catalog).
    Insert(Object),
    /// Logically delete one object (passed whole so any index can locate
    /// its postings).
    Delete(Object),
}

/// Applies `ops` in order — the one write loop behind the in-memory
/// store, the durable engine and WAL replay. Returns how many deletes
/// found their object alive.
pub fn apply_ops<I: TemporalIrIndex + ?Sized>(index: &mut I, ops: &[WriteOp]) -> u64 {
    let mut deleted = 0;
    for op in ops {
        match op {
            WriteOp::Insert(o) => index.insert(o),
            WriteOp::Delete(o) => deleted += u64::from(index.delete(o)),
        }
    }
    deleted
}
