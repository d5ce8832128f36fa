//! Shared by the integration tests that drive a seeded write script.

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
