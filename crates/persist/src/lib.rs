//! # tir-persist
//!
//! The durability layer of the workspace: everything an index needs to
//! survive the death of its process.
//!
//! Two cooperating halves:
//!
//! * **Snapshots** — a versioned, checksummed, little-endian on-disk
//!   format ([`snapshot`]) storing the dictionary and the object catalog,
//!   each column in its own CRC32-guarded section, plus a header tag
//!   naming the `tir_core::Method` that was serving. No postings and no
//!   per-index code: every method's index is a deterministic function of
//!   the catalog, so [`Durability::recover`] rebuilds the tagged method
//!   over the decoded catalog with the registry's own constructor.
//! * **The write-ahead log** ([`wal`]) — appended and fsynced *before* a
//!   batch is applied, one CRC32-guarded record per epoch, with
//!   size-based segment rotation and truncate-on-torn-tail replay.
//!   [`Durability`] sequences the two halves: WAL append → fsync → apply
//!   → (periodically) snapshot-rename → WAL prune, so a restart recovers
//!   to last-snapshot + WAL replay, reaching at least the last
//!   acknowledged epoch — and exactly the epochs whose records are
//!   durable.
//!
//! Crash discipline is testable: every step of the durable apply and
//! snapshot paths is preceded by one `tir-fault` probe, and the root
//! `crash_points` test arms each in turn (`tir_fault::OneShot`) in a
//! differential-harness script on a durable server, demanding that two
//! recoveries each reach exactly the model's catalog. The ops
//! themselves are `tir_core::WriteOp` ([`WalOp`] is that type) and are
//! applied by `tir_core::apply_ops`, live and on replay alike.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cols;
pub mod crc;
pub mod engine;
pub mod snapshot;
pub mod termlog;
pub mod wal;

pub use crc::{crc32, Crc32};
pub use engine::{
    ApplyOutcome, Durability, DurabilityOptions, PersistStats, Recovered, SNAPSHOT_NAME,
};
pub use snapshot::{
    check_elements_known, write_snapshot, SnapshotError, SnapshotFile, SnapshotMeta, FORMAT_VERSION,
};
pub use termlog::TermLog;
pub use wal::{WalOp, WalStats};
