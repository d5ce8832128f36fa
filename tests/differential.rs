//! Every method through every tier against the brute-force oracle: one
//! seeded op script per corpus, run by the harness in `differential/`.
//! DESIGN.md ("Invariants & validation") says how to replay a failure.

#[path = "differential/harness.rs"]
mod harness;

use harness::{check, generate, Op, TierKind};
use tir_core::prelude::*;
use tir_datagen::SyntheticConfig;

/// Ops per script, and the seed of each corpus's script.
const OPS: usize = 150;
const SEED: u64 = 1;

/// Each corpus's script through every method on `tier`, and the applier's
/// counters of each, where the tier reports them.
fn every_corpus(tier: TierKind) -> Vec<(Method, [u64; 6])> {
    // Five hundred objects over a sparse fifty-term dictionary.
    let mut small = SyntheticConfig::default().scaled(0.0005);
    (small.desc_size, small.seed) = (3, 29);
    // A thousand over twenty terms: the frequent ones are dense enough
    // for the dense-term bitmaps.
    let mut dense = SyntheticConfig::default().scaled(0.1);
    (
        dense.cardinality,
        dense.dict_size,
        dense.desc_size,
        dense.seed,
    ) = (1_000, 20, 5, 11);
    let mut counters = Vec::new();
    for (name, cfg) in [("small", small), ("dense", dense)] {
        let coll = tir_datagen::generate(&cfg);
        let script = generate(&coll, SEED, OPS);
        counters.extend(check(
            &format!("{name} corpus, seed {SEED}"),
            &coll,
            &script,
            tier,
        ));
    }
    counters
}

/// Ids die and come back at the edges: the first id, the last, and one far
/// past them. Each is deleted twice, then put back with its interval, moved
/// and back again, with queries after each delete and each re-insert.
#[test]
fn reused_ids_at_the_edges() {
    let objects = (0..40u32).map(|i| {
        let st = u64::from(i) * 10;
        Object::new(i, st, st + 25, vec![i % 2, 2, 5])
    });
    let coll = Collection::new(objects.collect());
    let mut queries = Vec::new();
    for elems in [vec![2], vec![5], vec![2, 5], vec![1, 2], vec![1, 2, 5]] {
        for (st, end) in [(0, 1000), (100, 130), (300, 420), (55, 55)] {
            queries.push(Op::Query(TimeTravelQuery::new(st, end, elems.clone())));
        }
    }
    // A re-used-id defect in `ColumnList::insert_in` once shrank to these
    // three ops on a far id.
    let far = |desc| Op::Insert(Object::new(4_000_837, 120, 380, desc));
    let mut script = vec![far(vec![1, 2, 5]), Op::Delete(4_000_837), far(vec![0, 2])];
    script.extend(queries.clone());
    for id in [0, 7, 20, 39] {
        let old = coll.get(id).clone();
        let moved = Object::new(id, 300 + u64::from(id), 400 + u64::from(id), vec![1, 2, 5]);
        for back in [&old, &moved, &old] {
            script.extend([Op::Delete(id), Op::Delete(id)]);
            script.extend(queries.clone());
            script.push(Op::Insert(back.clone()));
            script.extend(queries.clone());
        }
    }
    use TierKind::*;
    for tier in [Direct, Store, Wire, Durable, Recovered] {
        check("re-used ids at the edges", &coll, &script, tier);
    }
}

#[test]
fn direct() {
    every_corpus(TierKind::Direct);
}

/// Every method's applier clones a master while a reader pins the copy it
/// retired, and reclaims that copy once the reader lets it go.
#[test]
fn store() {
    for (method, [.., reused, cloned, _]) in every_corpus(TierKind::Store) {
        assert!(
            reused > 0 && cloned > 0,
            "{method}: {reused} reused, {cloned} cloned"
        );
    }
}

#[test]
fn wire() {
    every_corpus(TierKind::Wire);
}

#[test]
fn durable() {
    every_corpus(TierKind::Durable);
}

#[test]
fn recovered() {
    every_corpus(TierKind::Recovered);
}
