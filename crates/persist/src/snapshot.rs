//! The versioned, checksummed on-disk snapshot format and the
//! [`Persist`] trait.
//!
//! ## File layout (little-endian throughout)
//!
//! | range | contents |
//! |-------|----------|
//! | `0..64` | header: magic `TIRSNAP1`, format version, index kind, epoch, live count, section count, file length, CRC32 over header+table |
//! | `64..832` | section table: 24 slots × 32 B (`id, offset, len, crc32`) |
//! | `832..` | sections, each padded to a 64-byte-aligned offset |
//!
//! Sections are plain SoA columns:
//!
//! | id | section | column type |
//! |----|---------|-------------|
//! | 1 | META — domain, index config, column lengths | fixed 48 B |
//! | 10/11/12 | dictionary term offsets / UTF-8 blob / frequencies | `u32 / u8 / u32` |
//! | 20–24 | catalog ids / starts / ends / desc offsets / desc elems | `u32 / u64 / u64 / u32 / u32` |
//! | 30–34 | canonical postings: elems / offsets / ids / starts / ends | `u32 / u32 / u32 / u64 / u64` |
//!
//! The **canonical postings** sections hold every live posting sorted by
//! `(element, id)` — exactly the [`CompactTemporalInverted`] layout — so
//! *any* index's snapshot can be queried zero-copy through
//! [`MappedPostings`] without deserializing a posting onto the heap.
//! Tombstoned postings are dropped at write time: snapshotting compacts.
//!
//! Writing is atomic: callers write to a temp file (the writer fsyncs on
//! [`SnapshotWriter::finish`]), then rename over `snapshot.tir` and
//! fsync the directory — a crash leaves either the old snapshot or the
//! new one, never a torn hybrid. [`SnapshotFile::open`] verifies the
//! magic, version, file length, and every CRC before handing out data;
//! corrupt, truncated, or version-skewed files are rejected with a
//! path-addressed [`SnapshotError::Corrupt`].

use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

use tir_core::{BruteForce, Method, Object, Tif, TifHint, TifHintConfig, TimeTravelQuery};
use tir_invidx::{live, raw, CompactTemporalInverted, Dictionary, Kernel, QueryScratch};

use crate::cols::{put_u32, put_u64, U32Col, U64Col};
use crate::crc::{crc32, Crc32};
use crate::mmap::{Bytes, LoadMode};

/// First 8 bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"TIRSNAP1";
/// Current format version; files with any other version are rejected.
pub const FORMAT_VERSION: u32 = 1;
/// Section payloads start at offsets aligned to this many bytes.
pub const SECTION_ALIGN: u64 = 64;
/// Fixed capacity of the section table.
pub const MAX_SECTIONS: usize = 24;
/// Byte length of the header.
const HEADER_LEN: u64 = 64;
/// Byte length of one section-table entry.
const ENTRY_LEN: u64 = 32;
/// Where section payloads begin (64 + 24·32 = 832, itself 64-aligned).
const PAYLOAD_START: u64 = HEADER_LEN + MAX_SECTIONS as u64 * ENTRY_LEN;

/// Section ids.
pub mod section {
    /// Fixed-size metadata (domain, config, column lengths).
    pub const META: u32 = 1;
    /// Dictionary term offsets (`len+1` × u32).
    pub const DICT_OFFS: u32 = 10;
    /// Dictionary UTF-8 term blob.
    pub const DICT_BLOB: u32 = 11;
    /// Dictionary document frequencies (`len` × u32).
    pub const DICT_FREQ: u32 = 12;
    /// Catalog object ids, ascending.
    pub const CAT_IDS: u32 = 20;
    /// Catalog lifespan starts.
    pub const CAT_STS: u32 = 21;
    /// Catalog lifespan ends.
    pub const CAT_ENDS: u32 = 22;
    /// Catalog description offsets (`len+1` × u32).
    pub const CAT_DESC_OFFS: u32 = 23;
    /// Catalog description element ids, concatenated.
    pub const CAT_DESC: u32 = 24;
    /// Postings: distinct elements, ascending.
    pub const POST_ELEMS: u32 = 30;
    /// Postings: per-element offsets (`elems+1` × u32).
    pub const POST_OFFS: u32 = 31;
    /// Postings: object ids, ascending within each element.
    pub const POST_IDS: u32 = 32;
    /// Postings: lifespan starts, parallel to ids.
    pub const POST_STS: u32 = 33;
    /// Postings: lifespan ends, parallel to ids.
    pub const POST_ENDS: u32 = 34;
}

/// What kind of index a snapshot stores — the format tag dispatched on
/// at load time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// [`Tif`].
    Tif = 1,
    /// [`TifHint`] with the binary-search strategy.
    TifHintBs = 2,
    /// [`TifHint`] with the merge-sort strategy.
    TifHintMs = 3,
    /// A bare [`CompactTemporalInverted`].
    CompactTemporal = 4,
    /// The [`BruteForce`] oracle (tests and recovery verification).
    BruteForce = 5,
}

impl IndexKind {
    /// Parses the header tag.
    pub fn from_u32(v: u32) -> Option<IndexKind> {
        match v {
            1 => Some(IndexKind::Tif),
            2 => Some(IndexKind::TifHintBs),
            3 => Some(IndexKind::TifHintMs),
            4 => Some(IndexKind::CompactTemporal),
            5 => Some(IndexKind::BruteForce),
            _ => None,
        }
    }

    /// The registry method this kind snapshots; `None` for the two
    /// kinds that are not served methods.
    pub fn method(&self) -> Option<Method> {
        match self {
            IndexKind::Tif => Some(Method::Tif),
            IndexKind::TifHintBs => Some(Method::TifHintBs),
            IndexKind::TifHintMs => Some(Method::TifHintMs),
            IndexKind::CompactTemporal | IndexKind::BruteForce => None,
        }
    }

    /// The CLI method name of this kind.
    pub fn method_name(&self) -> &'static str {
        match (self.method(), self) {
            (Some(m), _) => m.name(),
            (None, IndexKind::CompactTemporal) => "compact-temporal",
            (None, _) => "brute-force",
        }
    }
}

/// Why a snapshot could not be read.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file could not be read.
    Io(io::Error),
    /// The file is corrupt, truncated, or version-skewed. `at` is a
    /// path-addressed location (e.g. `snapshot/postings/elem[3]`).
    Corrupt {
        /// Path-addressed location of the violation.
        at: String,
        /// Human-readable description.
        msg: String,
    },
}

impl SnapshotError {
    fn corrupt(at: impl Into<String>, msg: impl Into<String>) -> SnapshotError {
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

/// Parsed header + META fields of a snapshot.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotMeta {
    /// Index kind tag.
    pub kind: IndexKind,
    /// Epoch the snapshot captures.
    pub epoch: u64,
    /// Live objects at that epoch.
    pub live: u64,
    /// Time domain minimum.
    pub domain_min: u64,
    /// Time domain maximum.
    pub domain_max: u64,
    /// Index-specific config word A (tIF+HINT: strategy, 1=bs 2=ms).
    pub config_a: u32,
    /// Index-specific config word B (tIF+HINT: `m`).
    pub config_b: u32,
    /// Total canonical postings.
    pub postings: u64,
    /// Dictionary entries.
    pub dict_len: u64,
    /// Catalog entries.
    pub catalog_len: u64,
}

struct SectionEntry {
    id: u32,
    offset: u64,
    len: u64,
    crc: u32,
}

/// Streaming snapshot writer over a temp file. Sections append in call
/// order; [`SnapshotWriter::finish`] seeks back, writes the header and
/// table, and fsyncs.
pub struct SnapshotWriter {
    file: File,
    sections: Vec<SectionEntry>,
    pos: u64,
}

impl SnapshotWriter {
    /// Creates (truncating) the file at `path` and reserves header space.
    pub fn create(path: &Path) -> io::Result<SnapshotWriter> {
        let mut file = File::create(path)?;
        file.write_all(&vec![0u8; PAYLOAD_START as usize])?;
        Ok(SnapshotWriter {
            file,
            sections: Vec::new(),
            pos: PAYLOAD_START,
        })
    }

    /// Appends one section, padding to the alignment boundary first.
    pub fn section(&mut self, id: u32, bytes: &[u8]) -> io::Result<()> {
        if self.sections.len() == MAX_SECTIONS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "snapshot section table full",
            ));
        }
        let aligned = self.pos.div_ceil(SECTION_ALIGN) * SECTION_ALIGN;
        if aligned > self.pos {
            let pad = vec![0u8; (aligned - self.pos) as usize];
            self.file.write_all(&pad)?;
            self.pos = aligned;
        }
        self.file.write_all(bytes)?;
        self.sections.push(SectionEntry {
            id,
            offset: aligned,
            len: bytes.len() as u64,
            crc: crc32(bytes),
        });
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Writes the header + section table and fsyncs the file.
    pub fn finish(mut self, kind: IndexKind, epoch: u64, live: u64) -> io::Result<()> {
        let mut head = Vec::with_capacity(PAYLOAD_START as usize);
        head.extend_from_slice(&MAGIC);
        put_u32(&mut head, FORMAT_VERSION);
        put_u32(&mut head, kind as u32);
        put_u64(&mut head, epoch);
        put_u64(&mut head, live);
        put_u32(&mut head, self.sections.len() as u32);
        put_u64(&mut head, self.pos);
        let crc_at = head.len();
        put_u32(&mut head, 0); // CRC placeholder
        head.resize(HEADER_LEN as usize, 0);
        for s in &self.sections {
            put_u32(&mut head, s.id);
            put_u32(&mut head, 0);
            put_u64(&mut head, s.offset);
            put_u64(&mut head, s.len);
            put_u32(&mut head, s.crc);
            put_u32(&mut head, 0);
        }
        head.resize(PAYLOAD_START as usize, 0);
        let crc = crc32(&head);
        head[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&head)?;
        self.file.sync_all()
    }
}

/// Writes everything an index needs into `path` (a temp file the caller
/// then renames into place): dictionary, catalog (sorted by id),
/// canonical postings, and the index's extra sections.
pub fn write_snapshot<P: Persist>(
    path: &Path,
    epoch: u64,
    dict: &Dictionary,
    catalog: &[Object],
    index: &P,
) -> io::Result<()> {
    let mut w = SnapshotWriter::create(path)?;

    // Canonical postings, sorted by (elem, id), live only.
    let mut tuples: Vec<(u32, u32, u64, u64)> = Vec::new();
    let by_id: std::collections::HashMap<u32, (u64, u64)> = catalog
        .iter()
        .map(|o| (o.id, (o.interval.st, o.interval.end)))
        .collect();
    let intervals = |id: u32| by_id.get(&id).copied();
    index.collect_postings(&intervals, &mut tuples);
    tuples.sort_unstable();

    // META.
    let (mut dmin, mut dmax) = (u64::MAX, 0u64);
    for &(_, _, st, end) in &tuples {
        dmin = dmin.min(st);
        dmax = dmax.max(end);
    }
    for o in catalog {
        dmin = dmin.min(o.interval.st);
        dmax = dmax.max(o.interval.end);
    }
    if dmin > dmax {
        (dmin, dmax) = (0, 0);
    }
    let (config_a, config_b) = index.meta_words();
    let mut meta = Vec::with_capacity(48);
    put_u64(&mut meta, dmin);
    put_u64(&mut meta, dmax);
    put_u32(&mut meta, config_a);
    put_u32(&mut meta, config_b);
    put_u64(&mut meta, tuples.len() as u64);
    put_u64(&mut meta, dict.len() as u64);
    put_u64(&mut meta, catalog.len() as u64);
    w.section(section::META, &meta)?;

    // Dictionary.
    let mut offs = Vec::new();
    let mut blob = Vec::new();
    let mut freq = Vec::new();
    put_u32(&mut offs, 0);
    for id in 0..dict.len() as u32 {
        let term = dict.term(id).unwrap_or("");
        blob.extend_from_slice(term.as_bytes());
        put_u32(&mut offs, blob.len() as u32);
        put_u32(&mut freq, dict.freq(id));
    }
    w.section(section::DICT_OFFS, &offs)?;
    w.section(section::DICT_BLOB, &blob)?;
    w.section(section::DICT_FREQ, &freq)?;

    // Catalog, sorted by id.
    let mut order: Vec<usize> = (0..catalog.len()).collect();
    order.sort_unstable_by_key(|&i| catalog[i].id);
    let (mut ids, mut sts, mut ends) = (Vec::new(), Vec::new(), Vec::new());
    let (mut desc_offs, mut desc) = (Vec::new(), Vec::new());
    put_u32(&mut desc_offs, 0);
    let mut n_desc = 0u32;
    for &i in &order {
        let o = &catalog[i];
        put_u32(&mut ids, o.id);
        put_u64(&mut sts, o.interval.st);
        put_u64(&mut ends, o.interval.end);
        for &e in &o.desc {
            put_u32(&mut desc, e);
        }
        n_desc += o.desc.len() as u32;
        put_u32(&mut desc_offs, n_desc);
    }
    w.section(section::CAT_IDS, &ids)?;
    w.section(section::CAT_STS, &sts)?;
    w.section(section::CAT_ENDS, &ends)?;
    w.section(section::CAT_DESC_OFFS, &desc_offs)?;
    w.section(section::CAT_DESC, &desc)?;

    // Postings columns.
    let (mut elems, mut poffs) = (Vec::new(), Vec::new());
    let (mut pids, mut psts, mut pends) = (Vec::new(), Vec::new(), Vec::new());
    put_u32(&mut poffs, 0);
    let mut last_elem = None;
    for (row, &(e, id, st, end)) in tuples.iter().enumerate() {
        if last_elem != Some(e) {
            if last_elem.is_some() {
                put_u32(&mut poffs, row as u32);
            }
            put_u32(&mut elems, e);
            last_elem = Some(e);
        }
        put_u32(&mut pids, id);
        put_u64(&mut psts, st);
        put_u64(&mut pends, end);
    }
    if last_elem.is_some() {
        put_u32(&mut poffs, tuples.len() as u32);
    }
    w.section(section::POST_ELEMS, &elems)?;
    w.section(section::POST_OFFS, &poffs)?;
    w.section(section::POST_IDS, &pids)?;
    w.section(section::POST_STS, &psts)?;
    w.section(section::POST_ENDS, &pends)?;

    w.finish(index.kind(), epoch, catalog.len() as u64)
}

/// An opened, fully CRC-verified snapshot. Holds the bytes (mapped or
/// heap) plus the parsed section table and [`SnapshotMeta`].
pub struct SnapshotFile {
    bytes: Bytes,
    sections: Vec<SectionEntry>,
    meta: SnapshotMeta,
}

impl std::fmt::Debug for SnapshotFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotFile")
            .field("meta", &self.meta)
            .field("sections", &self.sections.len())
            .field("mapped", &self.bytes.is_mapped())
            .finish()
    }
}

impl SnapshotFile {
    /// Opens and verifies `path`: magic, version, length, header CRC,
    /// and every section CRC. Rejects corrupt, truncated, or
    /// version-skewed files with a path-addressed error.
    pub fn open(path: &Path, mode: LoadMode) -> Result<SnapshotFile, SnapshotError> {
        let bytes = Bytes::load(path, mode)?;
        if (bytes.len() as u64) < PAYLOAD_START {
            return Err(SnapshotError::corrupt(
                "snapshot/header",
                format!("file is {} bytes, smaller than the header", bytes.len()),
            ));
        }
        if bytes[0..8] != MAGIC {
            return Err(SnapshotError::corrupt(
                "snapshot/header",
                "bad magic: not a tir snapshot",
            ));
        }
        let version = crate::cols::read_u32(&bytes, 8).unwrap_or(0);
        if version != FORMAT_VERSION {
            return Err(SnapshotError::corrupt(
                "snapshot/header",
                format!("format version {version} unsupported (this build reads {FORMAT_VERSION})"),
            ));
        }
        let kind_raw = crate::cols::read_u32(&bytes, 12).unwrap_or(0);
        let kind = IndexKind::from_u32(kind_raw).ok_or_else(|| {
            SnapshotError::corrupt("snapshot/header", format!("unknown index kind {kind_raw}"))
        })?;
        let epoch = crate::cols::read_u64(&bytes, 16).unwrap_or(0);
        let live = crate::cols::read_u64(&bytes, 24).unwrap_or(0);
        let n_sections = crate::cols::read_u32(&bytes, 32).unwrap_or(0) as usize;
        let file_len = crate::cols::read_u64(&bytes, 36).unwrap_or(0);
        if file_len != bytes.len() as u64 {
            return Err(SnapshotError::corrupt(
                "snapshot/header",
                format!(
                    "file is {} bytes but header says {file_len} (truncated?)",
                    bytes.len()
                ),
            ));
        }
        if n_sections > MAX_SECTIONS {
            return Err(SnapshotError::corrupt(
                "snapshot/header",
                format!("section count {n_sections} exceeds the table capacity {MAX_SECTIONS}"),
            ));
        }
        let stored_crc = crate::cols::read_u32(&bytes, 44).unwrap_or(0);
        let mut hc = Crc32::new();
        hc.update(&bytes[0..44]);
        hc.update(&[0, 0, 0, 0]);
        hc.update(&bytes[48..PAYLOAD_START as usize]);
        if hc.finish() != stored_crc {
            return Err(SnapshotError::corrupt(
                "snapshot/header",
                "header/table CRC mismatch",
            ));
        }

        let mut sections = Vec::with_capacity(n_sections);
        for i in 0..n_sections {
            let base = (HEADER_LEN + i as u64 * ENTRY_LEN) as usize;
            let id = crate::cols::read_u32(&bytes, base).unwrap_or(0);
            let offset = crate::cols::read_u64(&bytes, base + 8).unwrap_or(0);
            let len = crate::cols::read_u64(&bytes, base + 16).unwrap_or(0);
            let crc = crate::cols::read_u32(&bytes, base + 24).unwrap_or(0);
            let at = format!("snapshot/section[{id}]");
            if !offset.is_multiple_of(SECTION_ALIGN) {
                return Err(SnapshotError::corrupt(
                    at,
                    format!("offset {offset} unaligned"),
                ));
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| SnapshotError::corrupt(at.clone(), "offset + length overflows"))?;
            if end > bytes.len() as u64 {
                return Err(SnapshotError::corrupt(
                    at,
                    format!("extends to byte {end} past the file end {}", bytes.len()),
                ));
            }
            let payload = &bytes[offset as usize..end as usize];
            if crc32(payload) != crc {
                return Err(SnapshotError::corrupt(at, "section CRC mismatch"));
            }
            sections.push(SectionEntry {
                id,
                offset,
                len,
                crc,
            });
        }

        // META is mandatory.
        let meta_bytes = sections
            .iter()
            .find(|s| s.id == section::META)
            .map(|s| &bytes[s.offset as usize..(s.offset + s.len) as usize])
            .ok_or_else(|| SnapshotError::corrupt("snapshot/meta", "META section missing"))?;
        if meta_bytes.len() < 48 {
            return Err(SnapshotError::corrupt(
                "snapshot/meta",
                format!("META is {} bytes, expected 48", meta_bytes.len()),
            ));
        }
        let meta = SnapshotMeta {
            kind,
            epoch,
            live,
            domain_min: crate::cols::read_u64(meta_bytes, 0).unwrap_or(0),
            domain_max: crate::cols::read_u64(meta_bytes, 8).unwrap_or(0),
            config_a: crate::cols::read_u32(meta_bytes, 16).unwrap_or(0),
            config_b: crate::cols::read_u32(meta_bytes, 20).unwrap_or(0),
            postings: crate::cols::read_u64(meta_bytes, 24).unwrap_or(0),
            dict_len: crate::cols::read_u64(meta_bytes, 32).unwrap_or(0),
            catalog_len: crate::cols::read_u64(meta_bytes, 40).unwrap_or(0),
        };
        Ok(SnapshotFile {
            bytes,
            sections,
            meta,
        })
    }

    /// Parsed header + META.
    pub fn meta(&self) -> &SnapshotMeta {
        &self.meta
    }

    /// True if the backing bytes are a zero-copy mapping.
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    /// Raw bytes of a section, if present.
    pub fn section_bytes(&self, id: u32) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|s| s.id == id)
            .map(|s| &self.bytes[s.offset as usize..(s.offset + s.len) as usize])
    }

    /// A section as a `u32` column.
    pub fn u32_col(&self, id: u32) -> Result<U32Col<'_>, SnapshotError> {
        let bytes = self.section_bytes(id).ok_or_else(|| {
            // analyze:allow(hot-path-alloc): load-time error path; never taken by a query (suffix collision with the planner)
            SnapshotError::corrupt(format!("snapshot/section[{id}]"), "section missing")
        })?;
        U32Col::new(bytes).ok_or_else(|| {
            SnapshotError::corrupt(
                // analyze:allow(hot-path-alloc): load-time error path; never taken by a query (suffix collision with the planner)
                format!("snapshot/section[{id}]"),
                "length is not a multiple of 4",
            )
        })
    }

    /// A section as a `u64` column.
    pub fn u64_col(&self, id: u32) -> Result<U64Col<'_>, SnapshotError> {
        let bytes = self.section_bytes(id).ok_or_else(|| {
            // analyze:allow(hot-path-alloc): load-time error path; never taken by a query (suffix collision with the planner)
            SnapshotError::corrupt(format!("snapshot/section[{id}]"), "section missing")
        })?;
        U64Col::new(bytes).ok_or_else(|| {
            SnapshotError::corrupt(
                // analyze:allow(hot-path-alloc): load-time error path; never taken by a query (suffix collision with the planner)
                format!("snapshot/section[{id}]"),
                "length is not a multiple of 8",
            )
        })
    }

    /// Rebuilds the dictionary (heap path).
    pub fn dictionary(&self) -> Result<Dictionary, SnapshotError> {
        let offs = self.u32_col(section::DICT_OFFS)?;
        let blob = self
            .section_bytes(section::DICT_BLOB)
            .ok_or_else(|| SnapshotError::corrupt("snapshot/dict/blob", "section missing"))?;
        let freq = self.u32_col(section::DICT_FREQ)?;
        if offs.len() != self.meta.dict_len as usize + 1
            || freq.len() != self.meta.dict_len as usize
        {
            return Err(SnapshotError::corrupt(
                "snapshot/dict",
                format!(
                    "META says {} terms but offsets hold {} and freqs {}",
                    self.meta.dict_len,
                    offs.len().saturating_sub(1),
                    freq.len()
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
        Dictionary::from_parts(terms, freq.to_vec())
            .map_err(|msg| SnapshotError::corrupt("snapshot/dict", msg))
    }

    /// Rebuilds the catalog objects, sorted by id (heap path).
    pub fn catalog_objects(&self) -> Result<Vec<Object>, SnapshotError> {
        let ids = self.u32_col(section::CAT_IDS)?;
        let sts = self.u64_col(section::CAT_STS)?;
        let ends = self.u64_col(section::CAT_ENDS)?;
        let desc_offs = self.u32_col(section::CAT_DESC_OFFS)?;
        let desc = self.u32_col(section::CAT_DESC)?;
        let n = self.meta.catalog_len as usize;
        if ids.len() != n || sts.len() != n || ends.len() != n || desc_offs.len() != n + 1 {
            return Err(SnapshotError::corrupt(
                "snapshot/catalog",
                format!(
                    "META says {n} objects but columns hold {}/{}/{}/{}",
                    ids.len(),
                    sts.len(),
                    ends.len(),
                    desc_offs.len().saturating_sub(1)
                ),
            ));
        }
        let mut out = Vec::with_capacity(n);
        let mut prev_off = 0u32;
        for i in 0..n {
            let end = desc_offs.get(i + 1);
            if end < prev_off || end as usize > desc.len() {
                return Err(SnapshotError::corrupt(
                    format!("snapshot/catalog/desc_offs[{}]", i + 1),
                    format!(
                        "offset {end} not monotone within {} desc entries",
                        desc.len()
                    ),
                ));
            }
            let d: Vec<u32> = (prev_off as usize..end as usize)
                .map(|j| desc.get(j))
                .collect();
            out.push(Object::new(ids.get(i), sts.get(i), ends.get(i), d));
            prev_off = end;
        }
        Ok(out)
    }

    /// The canonical postings as owned tuples, sorted by (elem, id) —
    /// the full-load path for [`Persist::restore`].
    pub fn postings_tuples(&self) -> Result<Vec<(u32, u32, u64, u64)>, SnapshotError> {
        let view = self.postings()?;
        let mut out = Vec::with_capacity(self.meta.postings as usize);
        for ei in 0..view.elems.len() {
            let e = view.elems.get(ei);
            let (lo, hi) = view.bounds(ei)?;
            for row in lo..hi {
                out.push((e, view.ids.get(row), view.sts.get(row), view.ends.get(row)));
            }
        }
        Ok(out)
    }

    /// The zero-copy postings view — queries run straight off the
    /// mapped columns.
    pub fn postings(&self) -> Result<MappedPostings<'_>, SnapshotError> {
        let elems = self.u32_col(section::POST_ELEMS)?;
        let offs = self.u32_col(section::POST_OFFS)?;
        let ids = self.u32_col(section::POST_IDS)?;
        let sts = self.u64_col(section::POST_STS)?;
        let ends = self.u64_col(section::POST_ENDS)?;
        let rows = ids.len();
        if sts.len() != rows || ends.len() != rows {
            return Err(SnapshotError::corrupt(
                "snapshot/postings",
                // analyze:allow(hot-path-alloc): load-time error path; never taken by a query (suffix collision with the planner)
                format!(
                    "parallel columns disagree: {rows} ids, {} sts, {} ends",
                    sts.len(),
                    ends.len()
                ),
            ));
        }
        if !elems.is_empty() && offs.len() != elems.len() + 1 {
            return Err(SnapshotError::corrupt(
                "snapshot/postings",
                // analyze:allow(hot-path-alloc): load-time error path; never taken by a query (suffix collision with the planner)
                format!(
                    "{} elements need {} offsets, found {}",
                    elems.len(),
                    elems.len() + 1,
                    offs.len()
                ),
            ));
        }
        if rows as u64 != self.meta.postings {
            return Err(SnapshotError::corrupt(
                "snapshot/postings",
                // analyze:allow(hot-path-alloc): load-time error path; never taken by a query (suffix collision with the planner)
                format!(
                    "META says {} postings but columns hold {rows}",
                    self.meta.postings
                ),
            ));
        }
        Ok(MappedPostings {
            elems,
            offs,
            ids,
            sts,
            ends,
        })
    }
}

/// Zero-copy query view over the canonical postings sections: the
/// element directory plus parallel id/start/end columns, read in place
/// (mmap or heap) with no per-posting deserialization.
#[derive(Debug, Clone, Copy)]
pub struct MappedPostings<'a> {
    /// Distinct elements, ascending.
    pub elems: U32Col<'a>,
    /// Per-element offsets (`elems.len() + 1` entries).
    pub offs: U32Col<'a>,
    /// Object ids, ascending within each element.
    pub ids: U32Col<'a>,
    /// Lifespan starts, parallel to `ids`.
    pub sts: U64Col<'a>,
    /// Lifespan ends, parallel to `ids`.
    pub ends: U64Col<'a>,
}

impl MappedPostings<'_> {
    /// Row bounds of element index `ei`, validated against the columns.
    fn bounds(&self, ei: usize) -> Result<(usize, usize), SnapshotError> {
        let lo = self.offs.get(ei) as usize;
        let hi = self.offs.get(ei + 1) as usize;
        if lo > hi || hi > self.ids.len() {
            return Err(SnapshotError::corrupt(
                format!("snapshot/postings/offs[{ei}]"),
                format!("row range {lo}..{hi} invalid over {} rows", self.ids.len()),
            ));
        }
        Ok((lo, hi))
    }

    /// Number of postings of element `e` (0 if absent).
    pub fn postings_len(&self, e: u32) -> usize {
        match self.elems.binary_search(e) {
            Ok(ei) => {
                let lo = self.offs.get(ei) as usize;
                let hi = self.offs.get(ei + 1) as usize;
                hi.saturating_sub(lo)
            }
            Err(_) => 0,
        }
    }

    /// Answers a time-travel query straight off the columns: seed scan
    /// over the least-frequent element's rows with the temporal filter,
    /// then id-merge intersections against each remaining element's
    /// ascending id column. Allocation-free outside the caller-owned
    /// scratch and output buffers.
    pub fn query_into(&self, q: &TimeTravelQuery, scratch: &mut QueryScratch, out: &mut Vec<u32>) {
        scratch.reset();
        // Plan: element *positions* in the directory, shortest first.
        for &e in &q.elems {
            match self.elems.binary_search(e) {
                Ok(ei) => scratch.plan.push(ei as u32),
                Err(_) => return, // an element with no postings ⇒ empty
            }
        }
        if scratch.plan.is_empty() {
            return;
        }
        let len_of =
            |ei: u32| self.offs.get(ei as usize + 1) as usize - self.offs.get(ei as usize) as usize;
        scratch.plan.sort_unstable_by_key(|&ei| len_of(ei));

        // Seed: temporal filter over the shortest list.
        let seed = scratch.plan[0] as usize;
        let (lo, hi) = (
            self.offs.get(seed) as usize,
            self.offs.get(seed + 1) as usize,
        );
        for row in lo..hi {
            if self.sts.get(row) <= q.interval.end && self.ends.get(row) >= q.interval.st {
                scratch.cands.push(self.ids.get(row));
            }
        }
        scratch.note(Kernel::Merge, (hi - lo) as u64);

        // Intersections: merge walk over ascending id columns.
        for pi in 1..scratch.plan.len() {
            if scratch.cands.is_empty() {
                break;
            }
            let ei = scratch.plan[pi] as usize;
            let (lo, hi) = (self.offs.get(ei) as usize, self.offs.get(ei + 1) as usize);
            let mut keep = 0usize;
            let mut row = lo;
            let mut scanned = 0u64;
            for ci in 0..scratch.cands.len() {
                let cand = scratch.cands[ci];
                while row < hi && self.ids.get(row) < cand {
                    row += 1;
                    scanned += 1;
                }
                if row < hi && self.ids.get(row) == cand {
                    scratch.cands[keep] = cand;
                    keep += 1;
                }
            }
            scratch.cands.truncate(keep);
            scratch.note(Kernel::Merge, scanned);
        }
        scratch.take_into(out);
    }
}

/// Snapshot support: how an index writes its sections and rebuilds
/// itself from them. Implemented for [`Tif`], [`TifHint`],
/// [`CompactTemporalInverted`], and the [`BruteForce`] oracle.
pub trait Persist: Sized {
    /// The format tag written into the header.
    fn kind(&self) -> IndexKind;

    /// Index-specific META words (tIF+HINT stores strategy and `m`).
    fn meta_words(&self) -> (u32, u32) {
        (0, 0)
    }

    /// Appends every **live** posting as `(elem, id, st, end)`.
    /// `intervals` resolves an object id to its lifespan for indexes
    /// that do not store endpoints themselves (e.g. tIF+HINT under the
    /// storage optimization); indexes that do can ignore it.
    fn collect_postings(
        &self,
        intervals: &dyn Fn(u32) -> Option<(u64, u64)>,
        out: &mut Vec<(u32, u32, u64, u64)>,
    );

    /// Rebuilds the native in-memory index from a verified snapshot —
    /// the full-load path.
    fn restore(snap: &SnapshotFile) -> Result<Self, SnapshotError>;
}

fn expect_kind(snap: &SnapshotFile, want: &[IndexKind]) -> Result<(), SnapshotError> {
    if want.contains(&snap.meta().kind) {
        Ok(())
    } else {
        Err(SnapshotError::corrupt(
            "snapshot/header",
            format!(
                "snapshot stores {:?}, not one of the requested kinds {want:?}",
                snap.meta().kind
            ),
        ))
    }
}

impl Persist for Tif {
    fn kind(&self) -> IndexKind {
        IndexKind::Tif
    }

    fn collect_postings(
        &self,
        _intervals: &dyn Fn(u32) -> Option<(u64, u64)>,
        out: &mut Vec<(u32, u32, u64, u64)>,
    ) {
        self.for_each_list(|e, list| {
            for i in 0..list.ids.len() {
                if live(list.ids[i]) {
                    out.push((e, list.ids[i], list.sts[i], list.ends[i]));
                }
            }
        });
    }

    fn restore(snap: &SnapshotFile) -> Result<Tif, SnapshotError> {
        expect_kind(snap, &[IndexKind::Tif])?;
        Ok(Tif::from_postings(&snap.postings_tuples()?))
    }
}

impl Persist for TifHint {
    fn kind(&self) -> IndexKind {
        match self.strategy() {
            tir_core::IntersectStrategy::BinarySearch => IndexKind::TifHintBs,
            tir_core::IntersectStrategy::MergeSort => IndexKind::TifHintMs,
        }
    }

    fn meta_words(&self) -> (u32, u32) {
        let cfg = self.config();
        let strategy = match cfg.strategy {
            tir_core::IntersectStrategy::BinarySearch => 1,
            tir_core::IntersectStrategy::MergeSort => 2,
        };
        (strategy, cfg.m)
    }

    fn collect_postings(
        &self,
        intervals: &dyn Fn(u32) -> Option<(u64, u64)>,
        out: &mut Vec<(u32, u32, u64, u64)>,
    ) {
        // Per-element live ids come from a full-domain range query (each
        // id exactly once); endpoints come from the catalog because the
        // storage optimization elides them inside divisions.
        let mut ids = Vec::new();
        self.for_each_hint(|e, h| {
            let d = h.domain();
            ids.clear();
            h.range_query_into(d.min(), d.max(), &mut ids);
            for &id in &ids {
                if let Some((st, end)) = intervals(raw(id)) {
                    out.push((e, raw(id), st, end));
                }
            }
        });
    }

    fn restore(snap: &SnapshotFile) -> Result<TifHint, SnapshotError> {
        expect_kind(snap, &[IndexKind::TifHintBs, IndexKind::TifHintMs])?;
        let meta = snap.meta();
        let strategy = match meta.config_a {
            1 => tir_core::IntersectStrategy::BinarySearch,
            2 => tir_core::IntersectStrategy::MergeSort,
            other => {
                return Err(SnapshotError::corrupt(
                    "snapshot/meta",
                    format!("unknown tIF+HINT strategy word {other}"),
                ))
            }
        };
        let config = TifHintConfig {
            strategy,
            m: meta.config_b,
        };
        Ok(TifHint::from_postings(
            &snap.postings_tuples()?,
            (meta.domain_min, meta.domain_max),
            config,
        ))
    }
}

impl Persist for CompactTemporalInverted {
    fn kind(&self) -> IndexKind {
        IndexKind::CompactTemporal
    }

    fn collect_postings(
        &self,
        _intervals: &dyn Fn(u32) -> Option<(u64, u64)>,
        out: &mut Vec<(u32, u32, u64, u64)>,
    ) {
        for (ei, &e) in self.elements().iter().enumerate() {
            let lo = self.offsets()[ei] as usize;
            let hi = self.offsets()[ei + 1] as usize;
            for row in lo..hi {
                let id = self.all_ids()[row];
                if live(id) {
                    out.push((e, id, self.all_sts()[row], self.all_ends()[row]));
                }
            }
        }
    }

    fn restore(snap: &SnapshotFile) -> Result<CompactTemporalInverted, SnapshotError> {
        expect_kind(snap, &[IndexKind::CompactTemporal])?;
        let mut tuples = snap.postings_tuples()?;
        Ok(CompactTemporalInverted::build(&mut tuples))
    }
}

impl Persist for BruteForce {
    fn kind(&self) -> IndexKind {
        IndexKind::BruteForce
    }

    fn collect_postings(
        &self,
        _intervals: &dyn Fn(u32) -> Option<(u64, u64)>,
        out: &mut Vec<(u32, u32, u64, u64)>,
    ) {
        self.for_each_live(|o| {
            for &e in &o.desc {
                out.push((e, o.id, o.interval.st, o.interval.end));
            }
        });
    }

    fn restore(snap: &SnapshotFile) -> Result<BruteForce, SnapshotError> {
        expect_kind(snap, &[IndexKind::BruteForce])?;
        Ok(BruteForce::build(&snap.catalog_objects()?))
    }
}
