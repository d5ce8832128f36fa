//! The versioned, checksummed on-disk snapshot: a header, the
//! dictionary and the object catalog — nothing derived from them.
//!
//! Every index of the registry is a deterministic function of the
//! catalog and cheap to build, so the snapshot stores no postings and
//! knows no index layout: the header's **method tag** says which
//! [`Method`] to rebuild on recovery, and that is all an index
//! contributes to the file.
//!
//! ## File layout (little-endian throughout)
//!
//! | range / section id | contents |
//! |--------------------|----------|
//! | `0..64` | header: magic `TIRSNAP1`, format version, method tag, epoch, live count, section count, file length, CRC32 over header + table |
//! | `64..320` | section table: 8 slots × 32 B (`id, offset, len, crc32`) |
//! | 10 / 11 / 12 | dictionary: term offsets (`u32`), UTF-8 blob, document frequencies (`u32`) |
//! | 20 / 21 / 22 | catalog: object ids ascending (`u32`), lifespan starts, ends (`u64`) |
//! | 23 / 24 | catalog: description offsets, description elements (`u32`) |
//!
//! Writing is atomic: callers write to a temp file ([`write_snapshot`]
//! fsyncs it), then rename over `snapshot.tir` and fsync the directory —
//! a crash leaves either the old snapshot or the new one, never a torn
//! hybrid. [`SnapshotFile::open`] verifies the magic, version, file
//! length, and every CRC before handing out data, and the two decoders
//! ([`SnapshotFile::dictionary`], [`SnapshotFile::catalog_objects`])
//! check every invariant the in-memory types assert; corrupt, truncated,
//! or version-skewed files are rejected with a path-addressed
//! [`SnapshotError::Corrupt`], never a panic.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

use tir_core::{Interval, Method, Object, TemporalIrIndex};
use tir_invidx::Dictionary;

use crate::cols::{put_u32, put_u64, read_u32, read_u64, U32Col, U64Col};
use crate::crc::{crc32, Crc32};

/// First 8 bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"TIRSNAP1";
/// Current format version; files with any other version are rejected.
pub const FORMAT_VERSION: u32 = 2;
/// Fixed capacity of the section table.
const MAX_SECTIONS: usize = 8;
/// Byte length of the header.
const HEADER_LEN: usize = 64;
/// Byte length of one section-table entry.
const ENTRY_LEN: usize = 32;
/// Where section payloads begin.
const PAYLOAD_START: usize = HEADER_LEN + MAX_SECTIONS * ENTRY_LEN;

/// Section ids.
mod section {
    /// Dictionary term offsets (`len+1` × u32).
    pub const DICT_OFFS: u32 = 10;
    /// Dictionary UTF-8 term blob.
    pub const DICT_BLOB: u32 = 11;
    /// Dictionary document frequencies (`len` × u32).
    pub const DICT_FREQ: u32 = 12;
    /// Catalog object ids, strictly ascending.
    pub const CAT_IDS: u32 = 20;
    /// Catalog lifespan starts.
    pub const CAT_STS: u32 = 21;
    /// Catalog lifespan ends.
    pub const CAT_ENDS: u32 = 22;
    /// Catalog description offsets (`len+1` × u32).
    pub const CAT_DESC_OFFS: u32 = 23;
    /// Catalog description element ids, concatenated.
    pub const CAT_DESC: u32 = 24;
}

/// The header tag of the registry method whose index reports `name`:
/// its 1-based position in [`Method::ALL`], which is append-only for
/// that reason.
fn method_tag(name: &str) -> Option<u32> {
    let pos = Method::ALL.iter().position(|m| m.paper_name() == name)?;
    Some(pos as u32 + 1)
}

/// Why a snapshot could not be read.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file could not be read.
    Io(io::Error),
    /// The file is corrupt, truncated, or version-skewed. `at` is a
    /// path-addressed location (e.g. `snapshot/catalog/ids[3]`).
    Corrupt {
        /// Path-addressed location of the violation.
        at: String,
        /// Human-readable description.
        msg: String,
    },
}

impl SnapshotError {
    pub(crate) fn corrupt(at: impl Into<String>, msg: impl Into<String>) -> SnapshotError {
        SnapshotError::Corrupt {
            at: at.into(),
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o: {e}"),
            SnapshotError::Corrupt { at, msg } => write!(f, "{at}: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

impl From<SnapshotError> for io::Error {
    fn from(e: SnapshotError) -> io::Error {
        match e {
            SnapshotError::Io(e) => e,
            // analyze:allow(hot-path-alloc): error-path formatting during snapshot load; queries never construct SnapshotErrors
            corrupt => io::Error::new(io::ErrorKind::InvalidData, corrupt.to_string()),
        }
    }
}

/// Refuses `o` as corrupt at `at` if its description names an element
/// id the `terms`-term dictionary does not hold. Recovery sizes
/// per-element tables by the largest id it is handed, so a CRC-valid record
/// naming element `u32::MAX - 1` would otherwise ask for 16 GiB.
pub fn check_elements_known(
    o: &Object,
    terms: usize,
    at: impl FnOnce() -> String,
) -> Result<(), SnapshotError> {
    match o.desc.iter().find(|&&e| e as usize >= terms) {
        Some(e) => Err(SnapshotError::corrupt(
            at(),
            format!("element {e} outside the {terms}-term dictionary"),
        )),
        None => Ok(()),
    }
}

/// The parsed header of a snapshot.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotMeta {
    /// The method recovery rebuilds over the catalog.
    pub method: Method,
    /// Epoch the snapshot captures.
    pub epoch: u64,
    /// Live objects at that epoch (the catalog's length).
    pub live: u64,
}

struct SectionEntry {
    id: u32,
    offset: usize,
    end: usize,
}

/// Writes a snapshot of `catalog` (any order) and `dict` into `path` — a
/// temp file the caller then renames into place — and fsyncs it.
/// `index` contributes its method tag and nothing else; an index that is
/// not a registry method has nothing recovery could rebuild and is
/// refused.
pub fn write_snapshot<'a, I: TemporalIrIndex>(
    path: &Path,
    epoch: u64,
    dict: &Dictionary,
    catalog: impl IntoIterator<Item = &'a Object>,
    index: &I,
) -> io::Result<()> {
    let tag = method_tag(index.name()).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} is not a registry method", index.name()),
        )
    })?;

    // Every section is reserved at its exact length, so the one encoding
    // pass below never grows a buffer.
    let terms = dict.len() as u32;
    let blob_len: usize = (0..terms).map(|id| dict.term(id).map_or(0, str::len)).sum();
    let mut offs = Vec::with_capacity(4 * (dict.len() + 1));
    let mut blob = Vec::with_capacity(blob_len);
    let mut freq = Vec::with_capacity(4 * dict.len());
    put_u32(&mut offs, 0);
    for id in 0..terms {
        blob.extend_from_slice(dict.term(id).unwrap_or("").as_bytes());
        put_u32(&mut offs, blob.len() as u32);
        put_u32(&mut freq, dict.freq(id));
    }

    // The durable engine's mirror hands the catalog over in id order;
    // only another order pays for a sort.
    let mut catalog: Vec<&Object> = catalog.into_iter().collect();
    if !catalog.is_sorted_by_key(|o| o.id) {
        catalog.sort_unstable_by_key(|o| o.id);
    }
    let n = catalog.len();
    let desc_len: usize = catalog.iter().map(|o| o.desc.len()).sum();
    let mut ids = Vec::with_capacity(4 * n);
    let mut sts = Vec::with_capacity(8 * n);
    let mut ends = Vec::with_capacity(8 * n);
    let mut desc_offs = Vec::with_capacity(4 * (n + 1));
    let mut desc = Vec::with_capacity(4 * desc_len);
    put_u32(&mut desc_offs, 0);
    for o in &catalog {
        put_u32(&mut ids, o.id);
        put_u64(&mut sts, o.interval.st);
        put_u64(&mut ends, o.interval.end);
        for &e in o.desc.iter() {
            put_u32(&mut desc, e);
        }
        put_u32(&mut desc_offs, (desc.len() / 4) as u32);
    }

    let sections: [(u32, Vec<u8>); MAX_SECTIONS] = [
        (section::DICT_OFFS, offs),
        (section::DICT_BLOB, blob),
        (section::DICT_FREQ, freq),
        (section::CAT_IDS, ids),
        (section::CAT_STS, sts),
        (section::CAT_ENDS, ends),
        (section::CAT_DESC_OFFS, desc_offs),
        (section::CAT_DESC, desc),
    ];
    let file_len = PAYLOAD_START + sections.iter().map(|(_, b)| b.len()).sum::<usize>();

    let mut head = Vec::with_capacity(PAYLOAD_START);
    head.extend_from_slice(&MAGIC);
    put_u32(&mut head, FORMAT_VERSION);
    put_u32(&mut head, tag);
    put_u64(&mut head, epoch);
    put_u64(&mut head, n as u64);
    put_u32(&mut head, sections.len() as u32);
    put_u64(&mut head, file_len as u64);
    let crc_at = head.len();
    put_u32(&mut head, 0); // CRC placeholder
    head.resize(HEADER_LEN, 0);
    let mut offset = PAYLOAD_START;
    for (id, bytes) in &sections {
        put_u32(&mut head, *id);
        put_u32(&mut head, 0);
        put_u64(&mut head, offset as u64);
        put_u64(&mut head, bytes.len() as u64);
        put_u32(&mut head, crc32(bytes));
        put_u32(&mut head, 0);
        offset += bytes.len();
    }
    let crc = crc32(&head);
    head[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());

    let mut file = File::create(path)?;
    file.write_all(&head)?;
    for (_, bytes) in &sections {
        file.write_all(bytes)?;
    }
    file.sync_all()
}

/// An opened, fully CRC-verified snapshot: the file's bytes plus the
/// parsed section table and [`SnapshotMeta`].
pub struct SnapshotFile {
    bytes: Vec<u8>,
    sections: Vec<SectionEntry>,
    meta: SnapshotMeta,
}

impl std::fmt::Debug for SnapshotFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotFile")
            .field("meta", &self.meta)
            .field("sections", &self.sections.len())
            .finish()
    }
}

impl SnapshotFile {
    /// Reads and verifies `path`: magic, version, length, header CRC,
    /// and every section CRC. Rejects corrupt, truncated, or
    /// version-skewed files with a path-addressed error.
    pub fn open(path: &Path) -> Result<SnapshotFile, SnapshotError> {
        let bytes = std::fs::read(path)?;
        let header = |msg: String| SnapshotError::corrupt("snapshot/header", msg);
        if bytes.len() < PAYLOAD_START {
            return Err(header(format!(
                "file is {} bytes, smaller than the header",
                bytes.len()
            )));
        }
        if bytes[0..8] != MAGIC {
            return Err(header("bad magic: not a tir snapshot".into()));
        }
        let version = read_u32(&bytes, 8).unwrap_or(0);
        if version != FORMAT_VERSION {
            return Err(header(format!(
                "format version {version} unsupported (this build reads {FORMAT_VERSION})"
            )));
        }
        let tag = read_u32(&bytes, 12).unwrap_or(0);
        let epoch = read_u64(&bytes, 16).unwrap_or(0);
        let live = read_u64(&bytes, 24).unwrap_or(0);
        let n_sections = read_u32(&bytes, 32).unwrap_or(0) as usize;
        let file_len = read_u64(&bytes, 36).unwrap_or(0);
        if file_len != bytes.len() as u64 {
            return Err(header(format!(
                "file is {} bytes but header says {file_len} (truncated?)",
                bytes.len()
            )));
        }
        if n_sections > MAX_SECTIONS {
            return Err(header(format!(
                "section count {n_sections} exceeds the table capacity {MAX_SECTIONS}"
            )));
        }
        let stored_crc = read_u32(&bytes, 44).unwrap_or(0);
        let mut hc = Crc32::new();
        hc.update(&bytes[0..44]);
        hc.update(&[0, 0, 0, 0]);
        hc.update(&bytes[48..PAYLOAD_START]);
        if hc.finish() != stored_crc {
            return Err(header("header/table CRC mismatch".into()));
        }
        let method = (tag as usize)
            .checked_sub(1)
            .and_then(|i| Method::ALL.get(i).copied())
            .ok_or_else(|| header(format!("unknown method tag {tag}")))?;

        let mut sections = Vec::with_capacity(n_sections);
        for i in 0..n_sections {
            let base = HEADER_LEN + i * ENTRY_LEN;
            let id = read_u32(&bytes, base).unwrap_or(0);
            let offset = read_u64(&bytes, base + 8).unwrap_or(0);
            let len = read_u64(&bytes, base + 16).unwrap_or(0);
            let crc = read_u32(&bytes, base + 24).unwrap_or(0);
            let at = format!("snapshot/section[{id}]");
            let end = offset
                .checked_add(len)
                .ok_or_else(|| SnapshotError::corrupt(at.clone(), "offset + length overflows"))?;
            if end > bytes.len() as u64 {
                return Err(SnapshotError::corrupt(
                    at,
                    format!("extends to byte {end} past the file end {}", bytes.len()),
                ));
            }
            let (offset, end) = (offset as usize, end as usize);
            if crc32(&bytes[offset..end]) != crc {
                return Err(SnapshotError::corrupt(at, "section CRC mismatch"));
            }
            sections.push(SectionEntry { id, offset, end });
        }
        Ok(SnapshotFile {
            bytes,
            sections,
            meta: SnapshotMeta {
                method,
                epoch,
                live,
            },
        })
    }

    /// The parsed header.
    pub fn meta(&self) -> &SnapshotMeta {
        &self.meta
    }

    fn section_bytes(&self, id: u32) -> Result<&[u8], SnapshotError> {
        self.sections
            .iter()
            .find(|s| s.id == id)
            .map(|s| &self.bytes[s.offset..s.end])
            .ok_or_else(|| {
                SnapshotError::corrupt(format!("snapshot/section[{id}]"), "section missing")
            })
    }

    fn u32_col(&self, id: u32) -> Result<U32Col<'_>, SnapshotError> {
        U32Col::new(self.section_bytes(id)?).ok_or_else(|| {
            SnapshotError::corrupt(
                format!("snapshot/section[{id}]"),
                "length is not a multiple of 4",
            )
        })
    }

    fn u64_col(&self, id: u32) -> Result<U64Col<'_>, SnapshotError> {
        U64Col::new(self.section_bytes(id)?).ok_or_else(|| {
            SnapshotError::corrupt(
                format!("snapshot/section[{id}]"),
                "length is not a multiple of 8",
            )
        })
    }

    /// Decodes the dictionary.
    pub fn dictionary(&self) -> Result<Dictionary, SnapshotError> {
        let offs = self.u32_col(section::DICT_OFFS)?;
        let blob = self.section_bytes(section::DICT_BLOB)?;
        let freq = self.u32_col(section::DICT_FREQ)?;
        if offs.len() != freq.len() + 1 {
            return Err(SnapshotError::corrupt(
                "snapshot/dict",
                format!(
                    "{} frequencies need {} offsets, found {}",
                    freq.len(),
                    freq.len() + 1,
                    offs.len()
                ),
            ));
        }
        let mut terms = Vec::with_capacity(freq.len());
        let mut prev = 0u32;
        for i in 0..freq.len() {
            let end = offs.get(i + 1);
            if end < prev || end as usize > blob.len() {
                return Err(SnapshotError::corrupt(
                    format!("snapshot/dict/offs[{}]", i + 1),
                    format!(
                        "offset {end} not monotone within the {}–byte blob",
                        blob.len()
                    ),
                ));
            }
            let term = std::str::from_utf8(&blob[prev as usize..end as usize]).map_err(|_| {
                SnapshotError::corrupt(format!("snapshot/dict/term[{i}]"), "invalid UTF-8")
            })?;
            terms.push(term.to_string());
            prev = end;
        }
        Dictionary::from_parts(terms, freq.iter().collect())
            .map_err(|msg| SnapshotError::corrupt("snapshot/dict", msg))
    }

    /// Decodes the catalog, sorted by id. This is the gate recovery
    /// builds from, so it checks everything [`Object::new`] and
    /// `Collection::new` would assert: strictly ascending tombstone-free
    /// ids, `st <= end`, and strictly ascending descriptions.
    pub fn catalog_objects(&self) -> Result<Vec<Object>, SnapshotError> {
        let ids = self.u32_col(section::CAT_IDS)?;
        let sts = self.u64_col(section::CAT_STS)?;
        let ends = self.u64_col(section::CAT_ENDS)?;
        let desc_offs = self.u32_col(section::CAT_DESC_OFFS)?;
        let desc = self.u32_col(section::CAT_DESC)?;
        let n = ids.len();
        if n as u64 != self.meta.live
            || sts.len() != n
            || ends.len() != n
            || desc_offs.len() != n + 1
        {
            return Err(SnapshotError::corrupt(
                "snapshot/catalog",
                format!(
                    "header says {} objects but columns hold {n}/{}/{}/{}",
                    self.meta.live,
                    sts.len(),
                    ends.len(),
                    desc_offs.len().saturating_sub(1)
                ),
            ));
        }
        let mut out: Vec<Object> = Vec::with_capacity(n);
        let mut prev_off = 0u32;
        for i in 0..n {
            let (id, st, end) = (ids.get(i), sts.get(i), ends.get(i));
            if id & (1 << 31) != 0 {
                return Err(SnapshotError::corrupt(
                    format!("snapshot/catalog/ids[{i}]"),
                    format!("id {id} uses the tombstone bit"),
                ));
            }
            if out.last().is_some_and(|prev| prev.id >= id) {
                return Err(SnapshotError::corrupt(
                    format!("snapshot/catalog/ids[{i}]"),
                    format!("ids not strictly ascending at {id}"),
                ));
            }
            if st > end {
                return Err(SnapshotError::corrupt(
                    format!("snapshot/catalog/object[{id}]"),
                    format!("interval inverted: [{st}, {end}]"),
                ));
            }
            let off = desc_offs.get(i + 1);
            if off < prev_off || off as usize > desc.len() {
                return Err(SnapshotError::corrupt(
                    format!("snapshot/catalog/desc_offs[{}]", i + 1),
                    format!(
                        "offset {off} not monotone within {} desc entries",
                        desc.len()
                    ),
                ));
            }
            let d: Arc<[u32]> = (prev_off as usize..off as usize)
                .map(|j| desc.get(j))
                .collect();
            if d.windows(2).any(|w| w[0] >= w[1]) {
                return Err(SnapshotError::corrupt(
                    format!("snapshot/catalog/object[{id}]"),
                    "description not strictly ascending",
                ));
            }
            out.push(Object {
                id,
                interval: Interval { st, end },
                desc: d,
            });
            prev_off = off;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_tags_are_pinned() {
        // On-disk values: a reordered `Method::ALL` must fail here, not
        // silently rebuild old directories as another method.
        let tags: Vec<(u32, &str)> = Method::ALL
            .iter()
            .map(|m| {
                (
                    method_tag(m.paper_name()).expect("registry method"),
                    m.name(),
                )
            })
            .collect();
        assert_eq!(
            tags,
            [
                (1, "tif"),
                (2, "slicing"),
                (3, "sharding"),
                (4, "tif-hint-bs"),
                (5, "tif-hint-ms"),
                (6, "hybrid"),
                (7, "irhint-perf"),
                (8, "irhint-size"),
                (9, "ctif"),
            ]
        );
        assert_eq!(method_tag("brute-force"), None);
    }
}
