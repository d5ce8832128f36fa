//! The property the epoch store's two-copy publish rests on, pinned for
//! every method: an index is a pure function of its build and the ops
//! applied since, so two clones fed the same ops — one a batch behind
//! the other, trading places at every publish — never diverge.
//!
//! The store itself is not involved: this drives `apply_ops` on two
//! copies exactly the way the applier does (commit to the master, swap
//! it with the published copy, replay the batch on the retired one), for
//! all nine methods rather than the two the benchmark serves.

mod common;

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tir_check::Validate;
use tir_core::prelude::*;
use tir_core::{apply_ops, with_method, Method};
use tir_datagen::SyntheticConfig;

const SEED: u64 = 41;

fn leapfrog<I: TemporalIrIndex + Clone + Validate>(
    method: Method,
    index: I,
    coll: &Collection,
    ops: &[WriteOp],
) {
    let (mut master, mut published) = (index.clone(), index);
    let mut model: HashMap<u32, Object> =
        coll.objects().iter().map(|o| (o.id, o.clone())).collect();
    let mut rng = StdRng::seed_from_u64(SEED);
    let (mut rest, mut epoch) = (ops, 0u64);
    while !rest.is_empty() {
        let (batch, tail) = rest.split_at(rng.gen_range(1..=rest.len().min(9)));
        rest = tail;
        epoch += 1;
        let deleted = apply_ops(&mut master, batch);
        // Publish: the copies trade places; the retired one catches up.
        std::mem::swap(&mut master, &mut published);
        assert_eq!(
            apply_ops(&mut master, batch),
            deleted,
            "{method} epoch {epoch}"
        );

        for op in batch {
            match op {
                WriteOp::Insert(o) => model.insert(o.id, o.clone()),
                WriteOp::Delete(o) => model.remove(&o.id),
            };
        }
        let catalog: Vec<Object> = model.values().cloned().collect();
        let grid = tir_check::oracle_query_grid(&catalog, 8, epoch);
        let diverged = tir_check::diff_against_oracle(&published, &catalog, &grid);
        assert!(diverged.is_empty(), "{method} epoch {epoch}: {diverged:?}");
        for (copy, name) in [(&published, "published"), (&master, "master")] {
            let violations = copy.validate();
            assert!(
                violations.is_empty(),
                "{method} epoch {epoch} {name}: {violations:?}"
            );
        }
    }
    assert!(
        epoch >= 7,
        "both copies must have been published repeatedly"
    );
}

#[test]
fn every_method_stays_exact_when_two_copies_leapfrog() {
    let mut cfg = SyntheticConfig::default().scaled(0.001);
    cfg.desc_size = 3;
    cfg.seed = SEED;
    let coll = tir_datagen::generate(&cfg);
    let ops = common::write_stream(&coll, 60, SEED);
    for method in Method::ALL {
        with_method!(method, |I, build| leapfrog::<I>(
            method,
            build(&coll),
            &coll,
            &ops
        ));
    }
}
