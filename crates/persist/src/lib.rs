//! # tir-persist
//!
//! The durability layer of the workspace: everything an index needs to
//! survive the death of its process.
//!
//! Two cooperating halves:
//!
//! * **Snapshots** — a versioned, checksummed, little-endian on-disk
//!   format ([`snapshot`]) storing the dictionary, the object catalog,
//!   and the canonical SoA postings columns, each in its own
//!   64-byte-aligned section with a CRC32. A snapshot is written via the [`Persist`] trait and loaded
//!   either *fully* (rebuilding the native in-memory index) or
//!   *zero-copy* through the safe mmap wrapper in [`mmap`] — the
//!   [`snapshot::MappedPostings`] view answers time-travel queries
//!   straight out of the mapped columns without deserializing a single
//!   posting onto the heap.
//! * **The write-ahead log** ([`wal`]) — appended and fsynced *before* a
//!   batch is applied, one CRC32-guarded record per epoch, with
//!   size-based segment rotation and truncate-on-torn-tail replay.
//!   [`Durability`] sequences the two halves: WAL append → fsync → apply
//!   → (periodically) snapshot-rename → WAL prune, so a restart recovers
//!   to last-snapshot + WAL replay, reaching at least the last
//!   acknowledged epoch — and exactly the epochs whose records are
//!   durable.
//!
//! The only `unsafe` in the crate lives in the audited [`mmap`] wrapper
//! module (one of the workspace's two such modules, with
//! `tir-invidx`'s `simd`); everything else is `#![deny]`-ed and the
//! `unsafe-code` rule of `tir-analyze` enforces the containment
//! statically.
//!
//! Crash discipline is testable: every step of the durable apply and
//! snapshot paths is preceded by one `tir-fault` probe, and the
//! crash-recovery proptests arm each in turn (`tir_fault::OneShot`)
//! while replaying `mixed_stream` ops, demanding exact
//! `BruteForce`-oracle agreement after recovery at every point. The ops
//! themselves are `tir_core::WriteOp` ([`WalOp`] is that type) and are
//! applied by `tir_core::apply_ops`, live and on replay alike.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cols;
pub mod crc;
pub mod engine;
pub mod mmap;
pub mod snapshot;
pub mod termlog;
pub mod wal;

pub use cols::{U32Col, U64Col};
pub use crc::{crc32, Crc32};
pub use engine::{
    ApplyOutcome, Durability, DurabilityOptions, PersistStats, Recovered, SNAPSHOT_NAME,
};
pub use mmap::{Bytes, LoadMode};
pub use snapshot::{
    write_snapshot, IndexKind, MappedPostings, Persist, SnapshotError, SnapshotFile, SnapshotMeta,
    SnapshotWriter, FORMAT_VERSION,
};
pub use termlog::TermLog;
pub use wal::{WalOp, WalStats};
