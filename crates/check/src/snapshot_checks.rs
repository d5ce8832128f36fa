//! Snapshot fsck: validation of an on-disk `tir-persist` snapshot.
//!
//! `SnapshotFile::open` proves the bytes are the bytes that were written
//! (magic, version, length, every CRC); the two decoders prove the
//! *content* is a well-formed dictionary and catalog (monotone offset
//! directories, UTF-8 terms, strictly ascending ids, ordered intervals,
//! sorted descriptions); this module runs all three and adds the one
//! check that spans both: every catalog element resolves in the
//! dictionary. Every finding is a path-addressed [`Violation`]
//! (`snapshot/catalog/ids[3]: ids not strictly ascending`), the same
//! currency the in-memory validators use — `tir check --file` prints
//! them verbatim.

use std::path::Path;

use tir_persist::{check_elements_known, SnapshotError, SnapshotFile};

use crate::Violation;

/// Opens and validates the snapshot at `path`. Open failures (bad magic,
/// CRC mismatch, truncation, …) become the single violation the open
/// reported; a readable file gets the content walk.
pub fn validate_snapshot(path: &Path) -> Vec<Violation> {
    let snap = match SnapshotFile::open(path) {
        Ok(snap) => snap,
        Err(e) => return vec![violation_of(e)],
    };
    let mut out = Vec::new();
    let dict_len = match snap.dictionary() {
        Ok(dict) => Some(dict.len()),
        Err(e) => {
            out.push(violation_of(e));
            None
        }
    };
    match (snap.catalog_objects(), dict_len) {
        (Ok(catalog), Some(terms)) => {
            for o in &catalog {
                let at = || format!("snapshot/catalog/object[{}]", o.id);
                if let Err(e) = check_elements_known(o, terms, at) {
                    out.push(violation_of(e));
                }
            }
        }
        (Ok(_), None) => {}
        (Err(e), _) => out.push(violation_of(e)),
    }
    out
}

fn violation_of(e: SnapshotError) -> Violation {
    match e {
        SnapshotError::Corrupt { at, msg } => Violation::new(at, msg),
        SnapshotError::Io(e) => Violation::new("snapshot/file", e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path as StdPath;
    use std::path::PathBuf;
    use tir_core::{Collection, Interval, Object, Tif};
    use tir_invidx::Dictionary;
    use tir_persist::write_snapshot;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tir-fsck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    fn write_example(path: &StdPath) {
        let coll = Collection::running_example();
        let mut dict = Dictionary::new();
        for t in ["a", "b", "c"] {
            dict.intern(t);
        }
        let index = Tif::build(&coll);
        write_snapshot(path, 3, &dict, coll.objects(), &index).expect("write");
    }

    #[test]
    fn clean_snapshot_passes_fsck() {
        let path = scratch("clean.tir");
        write_example(&path);
        let violations = validate_snapshot(&path);
        assert!(violations.is_empty(), "{violations:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_rows_and_unknown_elements_are_violations() {
        let path = scratch("rows.tir");
        let row = |id, st, end, desc: &[u32]| Object {
            id,
            interval: Interval { st, end },
            desc: desc.into(),
        };
        let dict = Dictionary::new();
        for (catalog, at) in [
            // `Object::new` would panic on this one.
            ([row(1, 9, 3, &[])], "snapshot/catalog/object[1]"),
            ([row(1 << 31, 0, 1, &[])], "snapshot/catalog/ids[0]"),
            // Well-formed, but no term of the (empty) dictionary is 7.
            ([row(1, 0, 1, &[7])], "snapshot/catalog/object[1]"),
        ] {
            write_snapshot(&path, 0, &dict, &catalog, &Tif::default()).expect("write");
            let violations = validate_snapshot(&path);
            assert_eq!(violations.len(), 1, "{violations:?}");
            assert_eq!(violations[0].path, at);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_one_violation() {
        let violations = validate_snapshot(Path::new("/nonexistent/nope.tir"));
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].path, "snapshot/file");
    }

    #[test]
    fn corrupted_bytes_are_reported_not_panicked() {
        let path = scratch("corrupt.tir");
        write_example(&path);
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip the epoch field: inside the header, covered by its CRC.
        bytes[16] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");
        let violations = validate_snapshot(&path);
        assert!(!violations.is_empty(), "header flip undetected");
        let _ = std::fs::remove_file(&path);
    }
}
