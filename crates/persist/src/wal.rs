//! The write-ahead log: CRC-per-record segments with rotation, torn-tail
//! truncation, and pruning against the last durable snapshot.
//!
//! ## Record layout (little-endian)
//!
//! | bytes | field |
//! |-------|-------|
//! | 4 | magic `TIRW` |
//! | 4 | payload length |
//! | 8 | epoch the record produces when applied |
//! | … | payload |
//! | 4 | CRC32 over `len ‖ epoch ‖ payload` |
//!
//! The payload is an op batch: `op_count: u32`, then per op a tag byte
//! (1 = insert, 2 = delete), `id: u32`, `st: u64`, `end: u64`,
//! `desc_len: u32`, and `desc_len` element ids. One record per applied
//! batch keeps the WAL in lockstep with the epoch counter: replaying
//! records `snapshot_epoch+1 ..= e` reproduces epoch `e` exactly.
//!
//! ## Segments
//!
//! Records append to `wal-{first_epoch:016x}.log`; when a segment
//! exceeds the rotation threshold the writer fsyncs it, starts
//! `wal-{next_epoch:016x}.log`, and fsyncs the directory so the new name
//! is durable. After a snapshot at epoch `s`, every segment fully
//! covered by the snapshot (a later segment starts at or below `s + 1`)
//! is deleted.
//!
//! ## Recovery
//!
//! [`Wal::replay`] streams records in epoch order across segments. A
//! torn record (short read or CRC mismatch) **at the tail of the last
//! segment** is the signature of a crash mid-append: the tail is
//! truncated away and replay ends. The same damage anywhere else cannot
//! be crash fallout (everything before the tail was fsynced) and is
//! reported as corruption instead.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use tir_core::Object;

use crate::cols::{put_u32, put_u64, read_u32, read_u64};
use crate::crc::crc32;

/// One logged write operation: the workspace's one write op, under the
/// name this crate's callers use.
pub use tir_core::WriteOp as WalOp;

/// First 4 bytes of every WAL record.
pub const RECORD_MAGIC: [u8; 4] = *b"TIRW";
/// Bytes before the payload: magic + length + epoch.
const RECORD_HEADER: usize = 16;
/// Default segment-rotation threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;
/// Bytes of one encoded op before its elements: tag, id, start, end and
/// element count.
const OP_HEAD: usize = 25;
/// Refuse records claiming payloads past this bound (corrupt length
/// fields would otherwise drive huge allocations during replay).
const MAX_PAYLOAD: u32 = 256 << 20;

/// Running WAL counters (mirrored into STATS by the server).
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Records appended since open.
    pub records: u64,
    /// Payload + framing bytes appended since open.
    pub bytes: u64,
    /// `fsync` calls issued since open.
    pub fsyncs: u64,
    /// Segments currently on disk.
    pub segments: u64,
}

/// What [`Wal::replay`] found on disk.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Records in epoch order: `(epoch, ops)`.
    pub batches: Vec<(u64, Vec<WalOp>)>,
    /// True if a torn tail was truncated away.
    pub truncated_tail: bool,
}

fn segment_name(first_epoch: u64) -> String {
    format!("wal-{first_epoch:016x}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(first) = entry.file_name().to_str().and_then(parse_segment_name) {
            segs.push((first, entry.path()));
        }
    }
    segs.sort_unstable_by_key(|(first, _)| *first);
    Ok(segs)
}

/// Serializes an op batch into the record payload.
pub fn encode_ops(ops: &[WalOp]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, ops.len() as u32);
    for op in ops {
        let (tag, o) = match op {
            WalOp::Insert(o) => (1u8, o),
            WalOp::Delete(o) => (2u8, o),
        };
        buf.push(tag);
        put_u32(&mut buf, o.id);
        put_u64(&mut buf, o.interval.st);
        put_u64(&mut buf, o.interval.end);
        put_u32(&mut buf, o.desc.len() as u32);
        for &e in o.desc.iter() {
            put_u32(&mut buf, e);
        }
    }
    buf
}

/// Parses a record payload back into ops. `at` names the record in
/// corruption errors, and is formatted only when one is raised.
pub fn decode_ops(payload: &[u8], at: impl fmt::Display) -> io::Result<Vec<WalOp>> {
    let corrupt = |msg: String| io::Error::new(io::ErrorKind::InvalidData, format!("{at}: {msg}"));
    let n = read_u32(payload, 0).ok_or_else(|| corrupt("payload shorter than op count".into()))?
        as usize;
    // Capacities trust the length fields only as far as the payload could
    // hold them: an op is at least `OP_HEAD` bytes, an element 4.
    let mut ops = Vec::with_capacity(n.min(payload.len() / OP_HEAD));
    let mut pos = 4usize;
    for i in 0..n {
        let tag = *payload
            .get(pos)
            .ok_or_else(|| corrupt(format!("op[{i}] tag past payload end")))?;
        pos += 1;
        let id = read_u32(payload, pos).ok_or_else(|| corrupt(format!("op[{i}] id truncated")))?;
        let st = read_u64(payload, pos + 4)
            .ok_or_else(|| corrupt(format!("op[{i}] start truncated")))?;
        let end =
            read_u64(payload, pos + 12).ok_or_else(|| corrupt(format!("op[{i}] end truncated")))?;
        let dlen = read_u32(payload, pos + 20)
            .ok_or_else(|| corrupt(format!("op[{i}] desc length truncated")))?
            as usize;
        if id & (1 << 31) != 0 {
            return Err(corrupt(format!("op[{i}] id {id} uses the tombstone bit")));
        }
        if st > end {
            return Err(corrupt(format!("op[{i}] inverted interval [{st}, {end}]")));
        }
        pos += 24;
        let mut desc = Vec::with_capacity(dlen.min(payload.len().saturating_sub(pos) / 4));
        for j in 0..dlen {
            desc.push(
                read_u32(payload, pos + j * 4)
                    .ok_or_else(|| corrupt(format!("op[{i}] desc[{j}] truncated")))?,
            );
        }
        pos += dlen * 4;
        let o = Object::new(id, st, end, desc);
        ops.push(match tag {
            1 => WalOp::Insert(o),
            2 => WalOp::Delete(o),
            other => return Err(corrupt(format!("op[{i}] unknown tag {other}"))),
        });
    }
    if pos != payload.len() {
        return Err(corrupt(format!(
            "{} trailing payload bytes after {n} ops",
            payload.len() - pos
        )));
    }
    Ok(ops)
}

/// A record's place in the log, `segment-path@byte-offset`, as replay's
/// refusals name it. A clean record never formats it.
struct RecordAt<'a> {
    path: &'a Path,
    pos: usize,
}

impl fmt::Display for RecordAt<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.path.display(), self.pos)
    }
}

/// The append side of the log: an open active segment plus rotation
/// state. Single-writer by construction (it lives inside the applier).
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    active: File,
    active_path: PathBuf,
    active_first_epoch: u64,
    active_len: u64,
    segment_bytes: u64,
    stats: WalStats,
}

impl Wal {
    /// Opens the WAL in `dir` for appending; the next record will carry
    /// `next_epoch`. Creates the first segment if none exists; otherwise
    /// appends to the newest one (call [`Wal::replay`] first so the tail
    /// is clean).
    pub fn open(dir: &Path, next_epoch: u64, segment_bytes: u64) -> io::Result<Wal> {
        let segs = list_segments(dir)?;
        let n_segs = segs.len() as u64;
        let (first_epoch, path, created) = match segs.last() {
            Some((first, path)) => (*first, path.clone(), false),
            None => (next_epoch, dir.join(segment_name(next_epoch)), true),
        };
        let active = OpenOptions::new().create(true).append(true).open(&path)?;
        let active_len = active.metadata()?.len();
        if created {
            fsync_dir(dir)?;
        }
        Ok(Wal {
            dir: dir.to_path_buf(),
            active,
            active_path: path,
            active_first_epoch: first_epoch,
            active_len,
            segment_bytes,
            stats: WalStats {
                segments: n_segs.max(1),
                ..WalStats::default()
            },
        })
    }

    /// Counters since open.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Appends one record (rotating first if the active segment is
    /// full). Does **not** fsync — call [`Wal::sync`] before treating
    /// the record as durable.
    pub fn append(&mut self, epoch: u64, ops: &[WalOp]) -> io::Result<()> {
        if self.active_len >= self.segment_bytes {
            self.rotate(epoch)?;
        }
        let payload = encode_ops(ops);
        let mut rec = Vec::with_capacity(RECORD_HEADER + payload.len() + 4);
        rec.extend_from_slice(&RECORD_MAGIC);
        put_u32(&mut rec, payload.len() as u32);
        put_u64(&mut rec, epoch);
        rec.extend_from_slice(&payload);
        let crc = crc32(&rec[4..]);
        put_u32(&mut rec, crc);

        // Fault site: an injected ENOSPC-style failure, or a short write
        // that lands a torn prefix of the record and then fails.
        match tir_fault::check(tir_fault::FaultSite::WalAppend) {
            tir_fault::FaultAction::ShortWrite => {
                let cut = rec.len() / 2;
                self.active.write_all(&rec[..cut])?;
                self.active_len += cut as u64;
                // analyze:allow(error-swallow): injected-fault path — the injected error is returned either way; the sync only makes the torn prefix durable for the recovery that follows
                let _ = self.active.sync_all();
                return Err(tir_fault::injected_error(tir_fault::FaultSite::WalAppend));
            }
            tir_fault::FaultAction::None | tir_fault::FaultAction::Stall(_) => {}
            _ => return Err(tir_fault::injected_error(tir_fault::FaultSite::WalAppend)),
        }
        self.active.write_all(&rec)?;
        self.active_len += rec.len() as u64;
        self.stats.records += 1;
        self.stats.bytes += rec.len() as u64;
        Ok(())
    }

    /// Fsyncs the active segment — the durability barrier.
    pub fn sync(&mut self) -> io::Result<()> {
        tir_fault::fire(tir_fault::FaultSite::WalSync)?;
        self.active.sync_all()?;
        self.stats.fsyncs += 1;
        Ok(())
    }

    fn rotate(&mut self, next_epoch: u64) -> io::Result<()> {
        self.active.sync_all()?;
        self.stats.fsyncs += 1;
        let path = self.dir.join(segment_name(next_epoch));
        self.active = OpenOptions::new().create(true).append(true).open(&path)?;
        self.active_path = path;
        self.active_first_epoch = next_epoch;
        self.active_len = 0;
        self.stats.segments += 1;
        fsync_dir(&self.dir)
    }

    /// Deletes every segment fully covered by a snapshot at
    /// `snapshot_epoch`: a segment goes iff it is not the active one and
    /// a later segment starts at or below `snapshot_epoch + 1`.
    pub fn prune(&mut self, snapshot_epoch: u64) -> io::Result<u64> {
        let segs = list_segments(&self.dir)?;
        let mut removed = 0u64;
        for (i, (_, path)) in segs.iter().enumerate() {
            let covered = segs
                .get(i + 1)
                .map(|(next_first, _)| *next_first <= snapshot_epoch + 1)
                .unwrap_or(false);
            if covered && *path != self.active_path {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        if removed > 0 {
            self.stats.segments = self.stats.segments.saturating_sub(removed);
            fsync_dir(&self.dir)?;
        }
        Ok(removed)
    }

    /// Reads every record with epoch > `snapshot_epoch` from `dir`, in
    /// epoch order, truncating a torn tail in the **last** segment.
    /// Corruption anywhere else is a hard error.
    pub fn replay(dir: &Path, snapshot_epoch: u64) -> io::Result<Replayed> {
        let segs = list_segments(dir)?;
        let mut out = Replayed::default();
        let mut expected_next: Option<u64> = None;
        for (si, (seg_first, path)) in segs.iter().enumerate() {
            let last_segment = si + 1 == segs.len();
            let mut bytes = Vec::new();
            File::open(path)?.read_to_end(&mut bytes)?;
            let mut pos = 0usize;
            let mut keep = 0usize; // bytes of clean records
            loop {
                if pos == bytes.len() {
                    break;
                }
                let at = RecordAt { path, pos };
                let torn = |msg: &str| -> io::Result<bool> {
                    if last_segment {
                        Ok(true) // truncate below
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("wal {at}: {msg} in a non-final segment"),
                        ))
                    }
                };
                if bytes.len() - pos < RECORD_HEADER && torn("truncated record header")? {
                    break;
                }
                if bytes[pos..pos + 4] != RECORD_MAGIC && torn("bad record magic")? {
                    break;
                }
                let plen = read_u32(&bytes, pos + 4).unwrap_or(0);
                if plen > MAX_PAYLOAD && torn(&format!("implausible payload length {plen}"))? {
                    break;
                }
                let total = RECORD_HEADER + plen as usize + 4;
                if bytes.len() - pos < total && torn("truncated record body")? {
                    break;
                }
                let body = &bytes[pos + 4..pos + RECORD_HEADER + plen as usize];
                let stored_crc = read_u32(&bytes, pos + RECORD_HEADER + plen as usize).unwrap_or(0);
                if crc32(body) != stored_crc && torn("record CRC mismatch")? {
                    break;
                }
                let epoch = read_u64(&bytes, pos + 8).unwrap_or(0);
                if let Some(want) = expected_next {
                    if epoch != want {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("wal {at}: epoch {epoch}, expected {want} (gap or reorder)"),
                        ));
                    }
                } else if si == 0 && epoch > snapshot_epoch + 1 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "wal {at}: first record is epoch {epoch} but the snapshot covers only {snapshot_epoch} (missing segment?)"
                        ),
                    ));
                } else if epoch < *seg_first {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "wal {at}: epoch {epoch} below the segment's first epoch {seg_first}"
                        ),
                    ));
                }
                expected_next = Some(epoch + 1);
                let payload = &bytes[pos + RECORD_HEADER..pos + RECORD_HEADER + plen as usize];
                if epoch > snapshot_epoch {
                    out.batches.push((epoch, decode_ops(payload, at)?));
                }
                pos += total;
                keep = pos;
            }
            if keep < bytes.len() {
                // Torn tail in the last segment: truncate it away so the
                // next append starts on a clean boundary.
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(keep as u64)?;
                f.sync_all()?;
                out.truncated_tail = true;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tir-wal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn op(id: u32, st: u64, end: u64) -> WalOp {
        WalOp::Insert(Object::new(id, st, end, vec![1, 2, 3]))
    }

    #[test]
    fn roundtrip_and_replay() {
        let dir = scratch_dir("roundtrip");
        let mut wal = Wal::open(&dir, 1, DEFAULT_SEGMENT_BYTES).expect("open");
        wal.append(1, &[op(10, 0, 5)]).expect("append");
        wal.append(
            2,
            &[
                op(11, 3, 9),
                WalOp::Delete(Object::new(10, 0, 5, vec![1, 2, 3])),
            ],
        )
        .expect("append");
        wal.sync().expect("sync");
        drop(wal);
        let r = Wal::replay(&dir, 0).expect("replay");
        assert!(!r.truncated_tail);
        assert_eq!(r.batches.len(), 2);
        assert_eq!(r.batches[0].0, 1);
        assert_eq!(r.batches[1].1.len(), 2);
        // Replay above a snapshot skips covered records.
        let r = Wal::replay(&dir, 1).expect("replay");
        assert_eq!(r.batches.len(), 1);
        assert_eq!(r.batches[0].0, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = scratch_dir("torn");
        let mut wal = Wal::open(&dir, 1, DEFAULT_SEGMENT_BYTES).expect("open");
        wal.append(1, &[op(1, 0, 1)]).expect("append");
        wal.sync().expect("sync");
        let seg = dir.join(segment_name(1));
        let clean_len = fs::metadata(&seg).expect("meta").len();
        drop(wal);
        // Simulate a crash mid-append: garbage half-record at the tail.
        let mut f = OpenOptions::new()
            .append(true)
            .open(&seg)
            .expect("open seg");
        f.write_all(b"TIRW\xFF\x00").expect("write garbage");
        drop(f);
        let r = Wal::replay(&dir, 0).expect("replay");
        assert!(r.truncated_tail);
        assert_eq!(r.batches.len(), 1);
        assert_eq!(fs::metadata(&seg).expect("meta").len(), clean_len);
        // The log accepts appends again after truncation.
        let mut wal = Wal::open(&dir, 2, DEFAULT_SEGMENT_BYTES).expect("reopen");
        wal.append(2, &[op(2, 1, 2)]).expect("append");
        wal.sync().expect("sync");
        drop(wal);
        let r = Wal::replay(&dir, 0).expect("replay");
        assert_eq!(r.batches.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_prune() {
        let dir = scratch_dir("rotate");
        // Tiny threshold: every record rotates into its own segment.
        let mut wal = Wal::open(&dir, 1, 1).expect("open");
        for e in 1..=4u64 {
            wal.append(e, &[op(e as u32, 0, e)]).expect("append");
            wal.sync().expect("sync");
        }
        assert_eq!(list_segments(&dir).expect("list").len(), 4);
        // Snapshot at epoch 3 covers segments whose successor starts ≤ 4.
        wal.prune(3).expect("prune");
        let left = list_segments(&dir).expect("list");
        assert_eq!(left.len(), 1, "only the active segment survives: {left:?}");
        let r = Wal::replay(&dir, 3).expect("replay");
        assert_eq!(r.batches.len(), 1);
        assert_eq!(r.batches[0].0, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_in_non_final_segment_is_a_hard_error() {
        let dir = scratch_dir("nonfinal-trunc");
        // Tiny threshold: each record rotates into its own segment.
        let mut wal = Wal::open(&dir, 1, 1).expect("open");
        wal.append(1, &[op(1, 0, 1)]).expect("append");
        wal.sync().expect("sync");
        wal.append(2, &[op(2, 0, 2)]).expect("append");
        wal.sync().expect("sync");
        drop(wal);
        // Chop the FIRST segment mid-record: truncation-shaped damage
        // (no byte flips, exactly what a torn tail looks like). Were
        // this the final segment it would be silently truncated away;
        // in a non-final segment it means an acked batch is gone while
        // later segments still replay, so it must be a hard error.
        let seg = dir.join(segment_name(1));
        let len = fs::metadata(&seg).expect("meta").len();
        assert!(len > 5);
        let f = OpenOptions::new().write(true).open(&seg).expect("open seg");
        f.set_len(len - 5).expect("truncate");
        drop(f);
        let err = Wal::replay(&dir, 0).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("non-final segment"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_mid_stream_is_a_hard_error() {
        let dir = scratch_dir("midcorrupt");
        let mut wal = Wal::open(&dir, 1, 1).expect("open");
        wal.append(1, &[op(1, 0, 1)]).expect("append");
        wal.sync().expect("sync");
        wal.append(2, &[op(2, 0, 2)]).expect("append");
        wal.sync().expect("sync");
        drop(wal);
        // Flip a payload byte in the FIRST (non-final) segment.
        let seg = dir.join(segment_name(1));
        let mut bytes = fs::read(&seg).expect("read");
        let mid = bytes.len() - 6;
        bytes[mid] ^= 0xFF;
        fs::write(&seg, &bytes).expect("write");
        let err = Wal::replay(&dir, 0).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let ops = vec![op(5, 1, 2)];
        let mut payload = encode_ops(&ops);
        assert_eq!(decode_ops(&payload, "t").expect("ok"), ops);
        payload.push(0); // trailing byte
        assert!(decode_ops(&payload, "t").is_err());
        payload.pop();
        payload[4] = 9; // unknown tag
        assert!(decode_ops(&payload, "t").is_err());
        assert!(decode_ops(&payload[..7], "t").is_err());
    }

    #[test]
    fn decode_refuses_what_object_new_asserts() {
        // Re-sealed WAL damage the mutation loop found (snapshot_roundtrip
        // cases 3 and 71): an inverted interval and an id with the
        // tombstone bit panicked in `Object::new` instead of erroring.
        let payload = encode_ops(&[op(5, 1, 2)]);
        let mut inverted = payload.clone();
        inverted[9..17].copy_from_slice(&9u64.to_le_bytes());
        let err = decode_ops(&inverted, "seg@16").expect_err("inverted");
        assert!(err
            .to_string()
            .contains("seg@16: op[0] inverted interval [9, 2]"));
        let mut tombstoned = payload;
        tombstoned[5..9].copy_from_slice(&(5u32 | 1 << 31).to_le_bytes());
        let err = decode_ops(&tombstoned, "seg@16").expect_err("tombstone bit");
        assert!(err.to_string().contains("tombstone bit"), "{err}");
    }
}
