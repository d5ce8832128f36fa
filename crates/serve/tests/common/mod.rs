//! Shared by the integration tests that drive a seeded write script or
//! serve a renumbered catalog.

// Each test binary that includes this module uses its own part of it.
#![allow(dead_code)]

use std::collections::HashMap;

use tir_core::prelude::*;
use tir_datagen::{mixed_stream, MixedSpec, Op, WorkloadSpec};

/// `n + 1` seeded writes over `coll`: inserts, deletes of live ids (each
/// carrying the full object, as the server's catalog would supply it),
/// and one delete of an id that was never inserted.
pub fn write_stream(coll: &Collection, n: usize, seed: u64) -> Vec<WriteOp> {
    let spec = MixedSpec {
        write_fraction: 1.0,
        insert_fraction: 0.6,
        query: WorkloadSpec::default(),
    };
    let mut catalog: HashMap<u32, Object> =
        coll.objects().iter().map(|o| (o.id, o.clone())).collect();
    let mut ops: Vec<WriteOp> = mixed_stream(coll, &spec, n, seed)
        .into_iter()
        .map(|op| match op {
            Op::Insert(o) => {
                catalog.insert(o.id, o.clone());
                WriteOp::Insert(o)
            }
            Op::Delete(id) => WriteOp::Delete(catalog.remove(&id).expect("live id")),
            Op::Query(_) => unreachable!("write_fraction = 1.0"),
        })
        .collect();
    assert!(ops.iter().any(|op| matches!(op, WriteOp::Delete(_))));
    ops.insert(7, WriteOp::Delete(Object::new(9_999_999, 0, 1, vec![0])));
    ops
}

/// The same objects as a catalog looks after deletes and later inserts:
/// every third id a hole, the upper half renumbered far above `len` (the
/// Tier-1 cross-index tests' shape).
pub fn with_sparse_ids(coll: &Collection) -> Collection {
    let half = coll.objects().iter().map(|o| o.id).max().unwrap_or(0) / 2;
    let survivors = coll.objects().iter().filter(|o| o.id % 3 != 0).cloned();
    Collection::new(
        survivors
            .map(|mut o| {
                if o.id > half {
                    o.id += 4_000_000;
                }
                o
            })
            .collect(),
    )
}
