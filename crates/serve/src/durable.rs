//! The server's dictionary, optionally backed by a durable term log.
//!
//! Terms are durable *before* any op referencing them: the server
//! interns new terms through [`ServeDict`], which appends to the
//! `terms.log` sidecar (fsynced) before the write op can be enqueued on
//! the [`EpochStore`](crate::epoch::EpochStore), so no WAL record can
//! ever name a term id that recovery cannot resolve.

use tir_invidx::Dictionary;
use tir_persist::TermLog;

/// The server's dictionary plus an optional durable term log. One lock
/// guards both so a term id can never be enqueued before the log entry
/// that defines it is on disk.
pub struct ServeDict {
    dict: Dictionary,
    log: Option<TermLog>,
}

impl ServeDict {
    /// An in-memory dictionary (no durability).
    pub fn volatile(dict: Dictionary) -> ServeDict {
        ServeDict { dict, log: None }
    }

    /// A dictionary whose new terms are appended to `log` (fsynced)
    /// before their ids are handed out.
    pub fn durable(dict: Dictionary, log: TermLog) -> ServeDict {
        ServeDict {
            dict,
            log: Some(log),
        }
    }

    /// Interns `term`, making it durable first if a term log is
    /// attached. An I/O error means the id was NOT handed out.
    pub fn intern(&mut self, term: &str) -> std::io::Result<u32> {
        if let Some(id) = self.dict.lookup(term) {
            return Ok(id);
        }
        if let Some(log) = &mut self.log {
            // The id a fresh intern will assign is the current length.
            log.append(self.dict.len() as u32, term)?;
        }
        Ok(self.dict.intern(term))
    }

    /// Read-only view of the dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::{EpochConfig, EpochStore, WriteOp};
    use std::path::{Path, PathBuf};
    use std::sync::{Arc, Mutex};
    use tir_core::{Object, TemporalIrIndex, Tif, TimeTravelQuery};
    use tir_persist::{Durability, DurabilityOptions, Recovered};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tir-durable-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_store(dir: &Path) -> EpochStore<Tif> {
        let index = Tif::default();
        // The elements the tests' inserts name.
        let mut dict = Dictionary::new();
        for term in ["a", "b", "c"] {
            dict.intern(term);
        }
        let d = Durability::create(dir, &index, &dict, &[], DurabilityOptions::default())
            .expect("create");
        let log = TermLog::open(dir).expect("term log");
        EpochStore::new_durable(
            index,
            Arc::new(Mutex::new(ServeDict::durable(dict, log))),
            d,
            EpochConfig::default(),
        )
    }

    #[test]
    fn acked_writes_survive_store_drop_and_recover() {
        let dir = scratch("ack");
        let store = durable_store(&dir);
        store
            .enqueue(WriteOp::Insert(Object::new(1, 0, 10, vec![0, 1])))
            .expect("enqueue");
        store
            .enqueue(WriteOp::Insert(Object::new(2, 5, 15, vec![0])))
            .expect("enqueue");
        let epoch = store.flush().expect("flush");
        assert!(epoch >= 1);
        let snap = store.snapshot();
        assert_eq!(snap.live, 2);
        drop(store); // clean shutdown writes a final snapshot

        let r: Recovered<Tif> =
            Durability::recover(&dir, DurabilityOptions::default()).expect("recover");
        assert_eq!(r.epoch, epoch);
        assert_eq!(r.replayed, 0, "shutdown snapshot covers everything");
        let mut hits = r.index.query(&TimeTravelQuery::new(0, 20, vec![0]));
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn force_snapshot_advances_the_durable_epoch() {
        let dir = scratch("force");
        let store = durable_store(&dir);
        store
            .enqueue(WriteOp::Insert(Object::new(7, 3, 9, vec![2])))
            .expect("enqueue");
        let epoch = store.force_snapshot().expect("snapshot");
        assert!(epoch >= 1);
        // The snapshot on disk is already at `epoch`: recovery from a
        // *copy* of the directory (the store is still running) replays
        // nothing.
        let copy = scratch("force-copy");
        std::fs::create_dir_all(&copy).expect("copy dir");
        for entry in std::fs::read_dir(&dir).expect("read dir") {
            let entry = entry.expect("entry");
            std::fs::copy(entry.path(), copy.join(entry.file_name())).expect("copy");
        }
        let r: Recovered<Tif> =
            Durability::recover(&copy, DurabilityOptions::default()).expect("recover");
        assert_eq!(r.epoch, epoch);
        assert_eq!(r.replayed, 0);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&copy);
    }

    #[test]
    fn serve_dict_interns_durably_and_recovers() {
        let dir = scratch("dict");
        std::fs::create_dir_all(&dir).expect("dir");
        let log = TermLog::open(&dir).expect("log");
        let mut sd = ServeDict::durable(Dictionary::new(), log);
        assert_eq!(sd.intern("alpha").expect("intern"), 0);
        assert_eq!(sd.intern("beta").expect("intern"), 1);
        assert_eq!(sd.intern("alpha").expect("intern"), 0, "idempotent");
        drop(sd);
        let mut dict = Dictionary::new();
        TermLog::recover(&dir, &mut dict).expect("recover");
        assert_eq!(dict.lookup("alpha"), Some(0));
        assert_eq!(dict.lookup("beta"), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
