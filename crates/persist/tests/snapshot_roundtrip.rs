//! Snapshot roundtrips: for every registry method, a data directory whose
//! catalog has holes and ids far above its length is written, opened and
//! recovered, and the rebuilt index must be `Validate`-clean and
//! oracle-equal. Corruption anywhere in the file must be detected at
//! open time, and a CRC-valid file whose catalog breaks an in-memory
//! invariant must be rejected by the decoder, never panic.

use std::fs;
use std::path::PathBuf;

use tir_check::Validate;
use tir_core::prelude::*;
use tir_core::with_method;
use tir_datagen::SyntheticConfig;
use tir_invidx::Dictionary;
use tir_persist::{
    write_snapshot, Durability, DurabilityOptions, Recovered, SnapshotError, SnapshotFile, WalOp,
    SNAPSHOT_NAME,
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
    Durability::create(&dir, &index, &Dictionary::new(), coll.objects(), opts).expect("create");
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

#[test]
fn malformed_catalog_rows_are_corrupt_not_panics() {
    // Rows `Object::new` / `Collection::new` would assert on, written by
    // the real writer from struct-literal objects: every CRC is valid.
    let obj = |id: u32, st: u64, end: u64, desc: &[u32]| Object {
        id,
        interval: Interval { st, end },
        desc: desc.to_vec(),
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
