//! Every method through every tier against the brute-force oracle: one
//! seeded op script per corpus, run by the harness in `differential/`.
//! DESIGN.md ("Invariants & validation") says how to replay a failure.

#[allow(dead_code)] // the armed-fault sweep's and chaos's entry points
#[path = "differential/harness.rs"]
mod harness;

use harness::{check, check_method, generate, Beside, Op, Report, TierKind};
use tir_core::prelude::*;
use tir_datagen::{with_sparse_ids, SyntheticConfig};

/// Ops per script, and the seed of each corpus's script.
const OPS: usize = 150;
const SEED: u64 = 1;

/// The two corpora, by name.
fn corpora() -> [(&'static str, Collection); 2] {
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
    [
        ("small", tir_datagen::generate(&small)),
        ("dense", tir_datagen::generate(&dense)),
    ]
}

/// Each corpus's script through every method on `tier` with `beside`, and
/// each run's report.
fn every_corpus(tier: TierKind, beside: Beside) -> Vec<(Method, Report)> {
    let mut reports = Vec::new();
    for (name, coll) in corpora() {
        let script = generate(&coll, SEED, OPS);
        let label = format!("{name} corpus, seed {SEED}");
        reports.extend(check(&label, &coll, &script, tier, beside));
    }
    reports
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
        check(
            "re-used ids at the edges",
            &coll,
            &script,
            tier,
            Beside::Nothing,
        );
    }
}

/// irHINT-perf reports one run of ids per division, so the server's
/// ordering step takes the bitmap pass for answers whose ids lie close and
/// the comparison sort for those strewn wide. The two corpora reach the
/// first; the dense one with its ids strewn over four million, as a catalog
/// holds them after deletes and far inserts, reaches the second.
#[test]
fn direct() {
    let mut reports = every_corpus(TierKind::Direct, Beside::Nothing);
    let [.., (_, dense)] = corpora();
    let sparse = with_sparse_ids(&dense);
    let script = generate(&sparse, SEED, 2 * OPS);
    let label = format!("dense corpus, sparse ids, seed {SEED}");
    let (tier, method) = (TierKind::Direct, Method::IrHintPerf);
    let report = check_method(&label, &sparse, &script, tier, method, Beside::Nothing);
    reports.push((method, report));
    let irhint = reports.iter().filter(|(m, _)| *m == method);
    let [within, past] = irhint.fold([0, 0], |[w, p], (_, r)| {
        [w + r.ordering[0], p + r.ordering[1]]
    });
    assert!(
        within > 20 && past > 20,
        "{within} within the span rule, {past} past it"
    );
}

/// Every method's applier clones a master while a reader pins the copy it
/// retired, and reclaims that copy once the reader lets it go.
#[test]
fn store() {
    for (method, report) in every_corpus(TierKind::Store, Beside::Nothing) {
        let [.., reused, cloned, _] = report.counters.expect("counters");
        assert!(
            reused > 0 && cloned > 0,
            "{method}: {reused} reused, {cloned} cloned"
        );
    }
}

#[test]
fn wire() {
    every_corpus(TierKind::Wire, Beside::Nothing);
}

/// Two readers race the dense corpus's script on the store and the wire
/// tiers, and every method's readers answer mid-script, each answer exact
/// at its epoch.
#[test]
fn readers() {
    let [.., (name, dense)] = corpora();
    let script = generate(&dense, SEED, OPS);
    let label = format!("{name} corpus, seed {SEED}, with readers");
    for tier in [TierKind::Store, TierKind::Wire] {
        for (method, report) in check(&label, &dense, &script, tier, Beside::Readers) {
            assert!(report.reads > 0, "{method}, {tier:?}: no reader answered");
        }
    }
}

#[test]
fn durable() {
    every_corpus(TierKind::Durable, Beside::Nothing);
}

#[test]
fn recovered() {
    every_corpus(TierKind::Recovered, Beside::Nothing);
}
