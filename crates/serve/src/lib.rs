//! # tir-serve
//!
//! The concurrent query-serving layer over any [`TemporalIrIndex`]
//! (`tir-core`): what turns this repo's single-threaded index structures
//! into something that can take sustained mixed read/write traffic.
//!
//! Three pieces, std-only:
//!
//! * **[`epoch`]** — the [`EpochStore`](epoch::EpochStore): readers grab
//!   an `Arc` snapshot and never block; a single applier thread coalesces
//!   insert/delete batches, commits them to its private master copy,
//!   optionally validates the result (`tir-check` hook), and atomically
//!   swaps in the next epoch. The same applier runs with a journal
//!   switched on
//!   ([`EpochStore::new_durable`](epoch::EpochStore::new_durable),
//!   `tir-persist`): a batch is then published and acknowledged only
//!   after its WAL record is fsynced, snapshots land on flush barriers
//!   and shutdown, a failing disk latches the store read-only, and
//!   restart recovers to last-snapshot + WAL replay. [`durable`] holds
//!   the dictionary whose new terms reach `terms.log` before any op
//!   naming them is enqueued.
//! * **[`pool`]** — the [`QueryPool`](pool::QueryPool): an admission
//!   gate, not a thread pool. A query runs to completion on the thread
//!   that asked, holding one of `workers` permits (each a reusable
//!   scratch arena); a bounded number of callers wait for a permit and
//!   the next one gets explicit `Overloaded` backpressure.
//! * **[`server`]/[`loadgen`]** — a TCP front end speaking the
//!   line-oriented [`protocol`] (`QUERY`/`INSERT`/`DELETE`/`STATS`…) and
//!   a closed-loop load generator reporting throughput and p50/p95/p99
//!   latency from the in-crate [`histogram`].
//!
//! ```
//! use std::sync::Arc;
//! use tir_core::prelude::*;
//! use tir_serve::epoch::{EpochConfig, EpochStore, WriteOp};
//! use tir_serve::pool::{PoolConfig, QueryPool};
//!
//! let coll = Collection::running_example();
//! let store = Arc::new(EpochStore::new(
//!     IrHintPerf::build(&coll),
//!     coll.len() as u64,
//!     EpochConfig::default(),
//! ));
//! let pool = QueryPool::new(Arc::clone(&store), PoolConfig::default());
//!
//! // Reads never block on this write:
//! store.enqueue(WriteOp::Insert(Object::new(8, 5, 6, vec![0, 2]))).unwrap();
//! store.flush().unwrap(); // write barrier
//! let mut ids = pool.execute(TimeTravelQuery::new(5, 9, vec![0, 2])).unwrap().ids;
//! ids.sort_unstable();
//! assert_eq!(ids, vec![1, 3, 6, 8]);
//! ```
//!
//! [`TemporalIrIndex`]: tir_core::TemporalIrIndex

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
pub mod epoch;
pub mod histogram;
pub mod json;
pub mod loadgen;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod witness;

pub use durable::ServeDict;
pub use epoch::{EpochConfig, EpochStore, Rejected, Snapshot, WriteOp};
pub use histogram::LatencyHistogram;
pub use json::Json;
pub use loadgen::{Connection, LoadgenConfig, LoadgenReport};
pub use pool::{PoolConfig, QueryOutcome, QueryPool, QueryReply};
pub use protocol::HealthStatus;
pub use server::{spawn_server, spawn_server_durable, ServerConfig, ServerHandle};
