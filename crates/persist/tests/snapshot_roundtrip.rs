//! Snapshot roundtrips: for every registry method, a data directory whose
//! catalog has holes and ids far above its length is written, opened and
//! recovered, and the rebuilt index must be `Validate`-clean and
//! oracle-equal. Corruption anywhere in the file must be detected at
//! open time, and a CRC-valid file whose catalog breaks an in-memory
//! invariant must be rejected by the decoder, never panic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::io;
use std::path::PathBuf;

use tir_check::Validate;
use tir_core::prelude::*;
use tir_core::with_method;
use tir_datagen::SyntheticConfig;
use tir_invidx::Dictionary;
use tir_persist::wal::Wal;
use tir_persist::{
    write_snapshot, Durability, DurabilityOptions, Recovered, SnapshotError, SnapshotFile, TermLog,
    WalOp, SNAPSHOT_NAME,
};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tir-snap-rt-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn corpus() -> Collection {
    let mut cfg = SyntheticConfig::default().scaled(0.002);
    cfg.desc_size = 4;
    cfg.seed = 77;
    tir_datagen::generate(&cfg)
}

fn dict_for(coll: &Collection) -> Dictionary {
    // A synthetic dictionary covering every element id in the corpus.
    let mut d = Dictionary::new();
    for e in 0..coll.dict_size() as u32 {
        assert_eq!(d.intern(&format!("term-{e}")), e);
        for _ in 0..coll.freq(e) {
            d.bump_freq(e);
        }
    }
    d
}

/// One method through create → delete a third, insert far above `len` →
/// snapshot → open → recover.
fn roundtrip<I>(method: Method, build: impl Fn(&Collection) -> I)
where
    I: TemporalIrIndex + Validate + 'static,
{
    let coll = corpus();
    let dict = dict_for(&coll);
    let dir = scratch(method.name());
    let opts = DurabilityOptions::default();
    let mut index = build(&coll);
    let mut d = Durability::create(&dir, &index, &dict, coll.objects(), opts).expect("create");
    let mut ops: Vec<WalOp> = coll
        .objects()
        .iter()
        .step_by(3)
        .map(|o| WalOp::Delete(o.clone()))
        .collect();
    for (k, o) in coll.objects().iter().step_by(40).enumerate() {
        let mut o = o.clone();
        o.id = 4_000_000 + 1000 * k as u32;
        ops.push(WalOp::Insert(o));
    }
    d.apply_batch(&mut index, &ops).expect("apply");
    d.write_snapshot(&index, &dict).expect("snapshot");
    let live = d.catalog_sorted();
    assert!(live.len() < coll.len() && live.last().expect("non-empty").id > 4_000_000);
    drop(d);

    let snap = SnapshotFile::open(&dir.join(SNAPSHOT_NAME)).expect("open snapshot");
    assert_eq!(snap.meta().method, method);
    assert_eq!(snap.meta().epoch, 1);
    assert_eq!(snap.meta().live, live.len() as u64);
    let rdict = snap.dictionary().expect("dictionary");
    assert_eq!(rdict.len(), dict.len());
    assert_eq!(rdict.lookup("term-1"), Some(1));
    assert_eq!(rdict.freq(1), dict.freq(1));
    assert_eq!(snap.catalog_objects().expect("catalog"), live);

    let r: Recovered<I> = Durability::recover(&dir, opts).expect("recover");
    assert_eq!((r.epoch, r.replayed), (1, 0), "{method}");
    assert_eq!(r.index.name(), method.paper_name());
    assert_eq!(r.durability.catalog_sorted(), live);
    let violations = r.index.validate();
    assert!(violations.is_empty(), "{method}: {violations:?}");
    let grid = tir_check::oracle_query_grid(&live, 48, 7);
    let diverged = tir_check::diff_against_oracle(&r.index, &live, &grid);
    assert!(diverged.is_empty(), "{method}: {diverged:?}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_method_roundtrips_a_catalog_with_holes() {
    for method in Method::ALL {
        with_method!(method, |I, build| roundtrip::<I>(method, build));
    }
}

#[test]
fn recovery_through_a_mismatching_type_is_refused() {
    let coll = corpus();
    let dir = scratch("mismatch");
    let opts = DurabilityOptions::default();
    let index = Tif::build(&coll);
    Durability::create(&dir, &index, &dict_for(&coll), coll.objects(), opts).expect("create");
    let err = Durability::recover::<TifHint>(&dir, opts).expect_err("tif dir as TifHint");
    assert!(err.to_string().contains("snapshot stores tif"), "{err}");
    // The oracle is not a registry method: nothing could rebuild it.
    let oracle = BruteForce::build(coll.objects());
    let oracle_dir = scratch("oracle");
    assert!(Durability::create(&oracle_dir, &oracle, &Dictionary::new(), &[], opts).is_err());
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&oracle_dir);
}

#[test]
fn every_corrupted_byte_region_is_detected() {
    let coll = corpus();
    let index = Tif::build(&coll);
    let path = scratch("corrupt").join("corrupt.tir");
    write_snapshot(&path, 1, &dict_for(&coll), coll.objects(), &index).expect("write");
    let clean = fs::read(&path).expect("read");
    // Flip one byte in every CRC-covered region: the header, each
    // section-table entry, and the head/middle/tail of every section
    // payload.
    let mut positions: Vec<usize> = vec![0, 9, 13, 20, 33, 40];
    let n_sections = u32::from_le_bytes(clean[32..36].try_into().unwrap()) as usize;
    assert_eq!(n_sections, 8);
    for i in 0..n_sections {
        let base = 64 + i * 32;
        positions.extend([base, base + 8, base + 16, base + 24]);
        let off = u64::from_le_bytes(clean[base + 8..base + 16].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(clean[base + 16..base + 24].try_into().unwrap()) as usize;
        assert!(len > 0, "section {i} is empty");
        positions.extend([off, off + len / 2, off + len - 1]);
    }
    for pos in positions {
        let mut bad = clean.clone();
        bad[pos] ^= 0x40;
        fs::write(&path, &bad).expect("write corrupted");
        match SnapshotFile::open(&path) {
            Err(SnapshotError::Corrupt { .. }) => {}
            Err(other) => panic!("byte {pos}: wrong error kind {other}"),
            Ok(_) => panic!("byte {pos}: corruption not detected"),
        }
    }
    // Truncation too.
    fs::write(&path, &clean[..clean.len() / 2]).expect("truncate");
    assert!(matches!(
        SnapshotFile::open(&path),
        Err(SnapshotError::Corrupt { .. })
    ));
    let _ = fs::remove_file(&path);
}

#[test]
fn unknown_version_and_method_are_rejected() {
    let coll = corpus();
    let index = Tif::build(&coll);
    let path = scratch("skew").join("skew.tir");
    write_snapshot(&path, 1, &dict_for(&coll), coll.objects(), &index).expect("write");
    let clean = fs::read(&path).expect("read");

    // The CRC guards the header, so a bare flip is caught; a file from
    // another format version (the previous one, or a future one) or with
    // a tag this build has no method for carries a *valid* CRC and must
    // still be refused — patch the field AND fix the CRC.
    for (at, value, expect) in [
        (8, 1, "version"),
        (8, 99, "version"),
        (12, 99, "method tag"),
    ] {
        let mut patched = clean.clone();
        patched[at] = value;
        let crc = {
            let mut c = tir_persist::Crc32::new();
            c.update(&patched[0..44]);
            c.update(&[0, 0, 0, 0]);
            c.update(&patched[48..320]);
            c.finish()
        };
        patched[44..48].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &patched).expect("write patched");
        let err = SnapshotFile::open(&path).expect_err("skewed header");
        assert!(err.to_string().contains(expect), "{err}");
    }
    let _ = fs::remove_file(&path);
}

/// Splitmix64: the mutation loop's own stream, seeded per case.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn a_shuffled_catalog_writes_the_sorted_catalogs_bytes() {
    let coll = corpus();
    let (index, dict) = (Tif::build(&coll), dict_for(&coll));
    let dir = scratch("shuffled");
    let sorted_path = dir.join("sorted.tir");
    write_snapshot(&sorted_path, 3, &dict, coll.objects(), &index).expect("write sorted");
    let sorted = fs::read(&sorted_path).expect("read sorted");

    let mut shuffled: Vec<&Object> = coll.objects().iter().collect();
    let mut rng = 0x5EED;
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, (mix(&mut rng) % (i as u64 + 1)) as usize);
    }
    assert!(
        !shuffled.is_sorted_by_key(|o| o.id),
        "the shuffle moved nothing"
    );
    let shuffled_path = dir.join("shuffled.tir");
    write_snapshot(&shuffled_path, 3, &dict, shuffled, &index).expect("write shuffled");
    assert!(
        fs::read(&shuffled_path).expect("read shuffled") == sorted,
        "a shuffled catalog must write the sorted catalog's bytes"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Byte length of the header plus the section table.
const TABLE_END: usize = 320;

/// Makes a damaged file pass every checksum again: the header's file
/// length, each section's CRC over whatever range its (possibly damaged)
/// table entry names, then the header CRC — so the damage reaches the
/// decoders behind them.
fn reseal(bytes: &mut [u8]) {
    if bytes.len() < TABLE_END {
        return;
    }
    let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let len = bytes.len() as u64;
    bytes[36..44].copy_from_slice(&len.to_le_bytes());
    let sections = u32::from_le_bytes(bytes[32..36].try_into().unwrap()).min(8) as usize;
    for base in (0..sections).map(|i| 64 + i * 32) {
        let (offset, n) = (word(bytes, base + 8), word(bytes, base + 16));
        if let Some(end) = offset.checked_add(n).filter(|&end| end <= len) {
            let crc = tir_persist::crc32(&bytes[offset as usize..end as usize]);
            bytes[base + 24..base + 28].copy_from_slice(&crc.to_le_bytes());
        }
    }
    let mut c = tir_persist::Crc32::new();
    c.update(&bytes[0..44]);
    c.update(&[0, 0, 0, 0]);
    c.update(&bytes[48..TABLE_END]);
    let crc = c.finish();
    bytes[44..48].copy_from_slice(&crc.to_le_bytes());
}

/// Largest description element for which the fuzz loop builds a
/// `Collection`: its frequency table has one slot per element id up to the
/// largest, so a flipped high byte would ask for gigabytes (see ROADMAP
/// item 2). Larger catalogs are checked against what `Collection::new`
/// asserts without building one.
const BUILT_ELEM_LIMIT: u32 = 1 << 20;

/// The snapshot v2 reader under a seeded mutation loop: 512 cases, each
/// flipping (half of them inside the header and section table), cutting
/// off or appending 1–4 bytes of a valid file, and in every other case
/// re-sealing the checksums so the decoders see the damage. Opening and
/// decoding ends in `Corrupt` or in a catalog `Collection::new` accepts,
/// never in a panic.
#[test]
fn mutated_snapshots_are_corrupt_or_sound_never_a_panic() {
    let coll = corpus();
    let path = scratch("fuzz").join(SNAPSHOT_NAME);
    write_snapshot(
        &path,
        3,
        &dict_for(&coll),
        coll.objects(),
        &Tif::build(&coll),
    )
    .expect("write");
    let clean = fs::read(&path).expect("read");
    let (mut caught_by_crc, mut caught_by_decoder, mut accepted) = (0, 0, 0);
    for case in 0..512u64 {
        let mut rng = case;
        let mut bytes = clean.clone();
        let edits = 1 + (mix(&mut rng) % 4) as usize;
        match mix(&mut rng) % 3 {
            0 => {
                for _ in 0..edits {
                    let span = if mix(&mut rng).is_multiple_of(2) {
                        TABLE_END
                    } else {
                        bytes.len()
                    };
                    let at = (mix(&mut rng) % span as u64) as usize;
                    bytes[at] ^= 1 + (mix(&mut rng) % 255) as u8;
                }
            }
            1 => bytes.truncate(bytes.len() - edits),
            _ => bytes.extend((0..edits).map(|_| mix(&mut rng) as u8)),
        }
        let resealed = case % 2 == 1;
        if resealed {
            reseal(&mut bytes);
        }
        fs::write(&path, &bytes).expect("write mutated");
        let corrupt = |e: SnapshotError, what: &str| match e {
            SnapshotError::Corrupt { .. } => {}
            other => panic!("case {case}: {what} failed with {other}, not Corrupt"),
        };
        let snap = match SnapshotFile::open(&path) {
            Ok(snap) => snap,
            Err(e) => {
                corrupt(e, "open");
                caught_by_crc += usize::from(!resealed);
                caught_by_decoder += usize::from(resealed);
                continue;
            }
        };
        if let Err(e) = snap.dictionary() {
            corrupt(e, "dictionary");
        }
        match snap.catalog_objects() {
            Err(e) => {
                corrupt(e, "catalog");
                caught_by_decoder += 1;
            }
            Ok(objects) => {
                let largest = objects.iter().filter_map(|o| o.desc.last()).max();
                if largest.is_none_or(|&e| e < BUILT_ELEM_LIMIT) {
                    Collection::new(objects);
                } else {
                    assert!(objects.windows(2).all(|w| w[0].id < w[1].id), "case {case}");
                }
                accepted += 1;
            }
        }
    }
    // Both layers saw damage: the checksums, and what is behind them.
    assert!(caught_by_crc > 0 && caught_by_decoder > 0 && accepted > 0);
    let _ = fs::remove_file(&path);
}

/// Records the largest single allocation this thread asks for while armed,
/// so a reader can be held to allocating no more than its input holds.
struct Largest;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            LARGEST.with(|l| l.set(l.get().max(size)));
        }
    });
}

// SAFETY: delegates every call verbatim to `System`; the wrapper only
// records a size and never touches the memory.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: the caller's contract, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: the caller's contract, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
        // SAFETY: the caller's contract, forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from the paired call above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// Runs `f` and returns its result with the largest single allocation it
/// made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, LARGEST.with(Cell::get))
}

/// What a reader of `len` input bytes may allocate at once: its input,
/// decoded into a few times as many bytes, plus paths and messages.
fn allocation_bound(len: usize) -> usize {
    4 * len + 1024
}

/// One case of the log mutation loops: flips, cuts off or appends 1–4
/// bytes.
fn mutate(bytes: &mut Vec<u8>, rng: &mut u64) {
    let edits = 1 + (mix(rng) % 4) as usize;
    match mix(rng) % 3 {
        0 => {
            for _ in 0..edits {
                let at = (mix(rng) % bytes.len() as u64) as usize;
                bytes[at] ^= 1 + (mix(rng) % 255) as u8;
            }
        }
        1 => bytes.truncate(bytes.len().saturating_sub(edits)),
        _ => bytes.extend((0..edits).map(|_| mix(rng) as u8)),
    }
}

/// Recomputes the CRC of every record whose framing still fits, following
/// the (possibly damaged) length fields: `head` bytes before the payload,
/// whose length is the `u32` at `len_at`, a CRC over `crc_from..` the
/// payload's end, then the CRC itself.
fn reseal_records(bytes: &mut [u8], head: usize, len_at: usize, crc_from: usize) {
    let mut pos = 0usize;
    while bytes.len() - pos >= head {
        let at = pos + len_at;
        let plen = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let end = pos + head + plen;
        if end + 4 > bytes.len() {
            return;
        }
        let crc = tir_persist::crc32(&bytes[pos + crc_from..end]);
        bytes[end..end + 4].copy_from_slice(&crc.to_le_bytes());
        pos = end + 4;
    }
}

/// Eight batches of one to three inserts and deletes.
fn wal_batches() -> Vec<Vec<WalOp>> {
    let op = |b: u32, i: u32| {
        let id = 10 * b + i;
        let st = u64::from(id);
        let o = Object::new(id, st, st + 5 + u64::from(b), vec![b % 4, 4 + i]);
        if (b + i) % 4 == 3 {
            WalOp::Delete(o)
        } else {
            WalOp::Insert(o)
        }
    };
    (0..8)
        .map(|b| (0..1 + b % 3).map(|i| op(b, i)).collect())
        .collect()
}

/// The WAL reader under the snapshot loop's mutations: 512 cases over a
/// log of several segments, each damaging one segment and in every other
/// case re-sealing its record CRCs so `decode_ops` sees the damage. Replay
/// ends in `InvalidData` naming `path@offset` or in `Ok` — a prefix of the
/// written batches where nothing was re-sealed — never in a panic or an
/// allocation larger than the log.
#[test]
fn mutated_wal_segments_are_invalid_or_a_prefix_never_a_panic() {
    let dir = scratch("wal-fuzz");
    let written = wal_batches();
    let mut wal = Wal::open(&dir, 1, 200).expect("open");
    for (epoch, ops) in (1..).zip(&written) {
        wal.append(epoch, ops).expect("append");
        wal.sync().expect("sync");
    }
    drop(wal);
    let mut segs: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("list")
        .map(|e| e.expect("entry").path())
        .collect();
    segs.sort();
    assert!(segs.len() >= 3, "{segs:?}");
    let clean: Vec<Vec<u8>> = segs.iter().map(|p| fs::read(p).expect("read")).collect();
    let (mut invalid, mut prefixes) = (0, 0);
    for case in 0..512u64 {
        let mut rng = case;
        let s = (mix(&mut rng) % segs.len() as u64) as usize;
        let mut bytes = clean[s].clone();
        mutate(&mut bytes, &mut rng);
        let resealed = case % 2 == 1;
        if resealed {
            reseal_records(&mut bytes, 16, 4, 4);
        }
        for (path, clean) in segs.iter().zip(&clean) {
            fs::write(path, clean).expect("restore");
        }
        fs::write(&segs[s], &bytes).expect("write mutated");
        let len: usize = clean.iter().map(Vec::len).sum::<usize>() + bytes.len();
        let (got, largest) = largest_allocation(|| Wal::replay(&dir, 0));
        assert!(
            largest <= allocation_bound(len),
            "case {case}: a {largest}-byte allocation replaying {len} bytes"
        );
        match got {
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "case {case}: {e}");
                let msg = e.to_string();
                let named = segs
                    .iter()
                    .any(|p| msg.contains(&format!("{}@", p.display())));
                assert!(named, "case {case}: {msg} names no segment offset");
                invalid += 1;
            }
            Ok(replayed) if !resealed => {
                let got: Vec<&Vec<WalOp>> = replayed.batches.iter().map(|(_, ops)| ops).collect();
                let want: Vec<&Vec<WalOp>> = written.iter().take(got.len()).collect();
                assert_eq!(
                    got, want,
                    "case {case}: not a prefix of the written batches"
                );
                prefixes += 1;
            }
            Ok(_) => {}
        }
    }
    assert!(invalid > 0 && prefixes > 0);
    let _ = fs::remove_dir_all(&dir);
}

/// `terms.log` under the same loop: recovery onto a dictionary that holds
/// the first three of ten logged terms ends in `InvalidData` naming
/// `terms.log@offset` or in `Ok` — the dictionary extended by a prefix of
/// the logged terms where nothing was re-sealed — never in a panic or an
/// allocation larger than the log.
#[test]
fn mutated_term_logs_are_invalid_or_a_prefix_never_a_panic() {
    let dir = scratch("termlog-fuzz");
    let terms: Vec<String> = (0..10).map(|i| format!("term-{i}")).collect();
    let mut log = TermLog::open(&dir).expect("open");
    for (id, term) in (0..).zip(&terms) {
        log.append(id, term).expect("append");
    }
    let path = log.path().to_path_buf();
    drop(log);
    let clean = fs::read(&path).expect("read");
    let snapshot_terms = || Dictionary::from_parts(terms[..3].to_vec(), vec![0; 3]).expect("parts");
    let (mut invalid, mut prefixes) = (0, 0);
    for case in 0..512u64 {
        let mut rng = case;
        let mut bytes = clean.clone();
        mutate(&mut bytes, &mut rng);
        let resealed = case % 2 == 1;
        if resealed {
            reseal_records(&mut bytes, 8, 4, 0);
        }
        fs::write(&path, &bytes).expect("write mutated");
        let mut dict = snapshot_terms();
        let (got, largest) = largest_allocation(|| TermLog::recover(&dir, &mut dict));
        assert!(
            largest <= allocation_bound(bytes.len()),
            "case {case}: a {largest}-byte allocation recovering {} bytes",
            bytes.len()
        );
        match got {
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "case {case}: {e}");
                assert!(e.to_string().starts_with("terms.log@"), "case {case}: {e}");
                invalid += 1;
            }
            Ok(_) if !resealed => {
                let got: Vec<&str> = (0..dict.len() as u32)
                    .filter_map(|id| dict.term(id))
                    .collect();
                assert!(dict.len() >= 3, "case {case}: snapshot terms lost");
                assert_eq!(
                    got,
                    terms[..dict.len()].to_vec(),
                    "case {case}: not a prefix"
                );
                prefixes += 1;
            }
            Ok(_) => {}
        }
    }
    assert!(invalid > 0 && prefixes > 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn malformed_catalog_rows_are_corrupt_not_panics() {
    // Rows `Object::new` / `Collection::new` would assert on, written by
    // the real writer from struct-literal objects: every CRC is valid.
    let obj = |id: u32, st: u64, end: u64, desc: &[u32]| Object {
        id,
        interval: Interval { st, end },
        desc: desc.into(),
    };
    let good = obj(1, 0, 9, &[0, 2]);
    for (bad, at) in [
        (obj(2, 9, 3, &[0]), "snapshot/catalog/object[2]"),
        (obj(1 << 31, 0, 1, &[0]), "snapshot/catalog/ids[1]"),
        (obj(1, 0, 1, &[0]), "snapshot/catalog/ids[1]"),
        (obj(2, 0, 1, &[2, 1]), "snapshot/catalog/object[2]"),
        (obj(2, 0, 1, &[1, 1]), "snapshot/catalog/object[2]"),
    ] {
        let dir = scratch("malformed");
        let path = dir.join(SNAPSHOT_NAME);
        let catalog = [good.clone(), bad];
        write_snapshot(&path, 0, &Dictionary::new(), &catalog, &Tif::default()).expect("write");
        let snap = SnapshotFile::open(&path).expect("CRC-valid");
        match snap.catalog_objects() {
            Err(SnapshotError::Corrupt { at: got, .. }) => assert_eq!(got, at),
            other => panic!("{at}: expected Corrupt, got {other:?}"),
        }
        let err = Durability::recover::<Tif>(&dir, DurabilityOptions::default())
            .expect_err("recovery must refuse the catalog");
        assert!(err.to_string().contains(at), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
