//! Property tests: every temporal-IR index must agree with the
//! brute-force oracle on arbitrary collections, queries, and update
//! sequences — the central correctness claim of the library.

use std::collections::HashMap;

use proptest::prelude::*;
use tir_core::prelude::*;
use tir_core::{DivisionStore, IrHint, PerTerm, TermPartition};

const DOMAIN: u64 = 2000;
const DICT: u32 = 12;

fn arb_collection(max_objects: usize) -> impl Strategy<Value = Collection> {
    prop::collection::vec(
        (
            0..DOMAIN,
            0..DOMAIN,
            prop::collection::btree_set(0..DICT, 1..5),
        ),
        1..max_objects,
    )
    .prop_map(|raw| {
        let objects = raw
            .into_iter()
            .enumerate()
            .map(|(i, (a, b, desc))| {
                Object::new(i as u32, a.min(b), a.max(b), desc.into_iter().collect())
            })
            .collect();
        Collection::new(objects)
    })
}

/// A skewed dictionary over a universe of a few hundred ids: elements 0..3
/// are in about half the objects each (far above the 1/8 a dense-element
/// bitmap asks for), elements 3..DICT + 30 in a few percent each (far below
/// it). [`arb_query`] draws from 0..DICT + 2, so its queries mix dense and
/// sparse terms every way: sparse seed with dense rest, all dense, all
/// sparse, unknown.
fn arb_skewed_collection(max_objects: usize) -> impl Strategy<Value = Collection> {
    prop::collection::vec(
        (
            0..DOMAIN,
            0..DOMAIN,
            prop::collection::btree_set(0..3u32, 0..3),
            prop::collection::btree_set(3..DICT + 30, 1..3),
        ),
        100..max_objects,
    )
    .prop_map(|raw| {
        let objects = raw
            .into_iter()
            .enumerate()
            .map(|(i, (a, b, dense, sparse))| {
                let desc = dense.into_iter().chain(sparse).collect();
                Object::new(i as u32, a.min(b), a.max(b), desc)
            })
            .collect();
        Collection::new(objects)
    })
}

fn arb_query() -> impl Strategy<Value = TimeTravelQuery> {
    (
        0..DOMAIN + 100,
        0..DOMAIN + 100,
        prop::collection::btree_set(0..DICT + 2, 1..4),
    )
        .prop_map(|(a, b, elems)| {
            TimeTravelQuery::new(a.min(b), a.max(b), elems.into_iter().collect())
        })
}

/// An index with dense-term bitmaps, which are an accelerator only: the
/// same state with them dropped must answer the same.
trait Accelerated: TemporalIrIndex {
    fn without_bitmaps(&self) -> Box<dyn TemporalIrIndex>;
}

impl<D: DivisionStore + 'static> Accelerated for IrHint<D> {
    fn without_bitmaps(&self) -> Box<dyn TemporalIrIndex> {
        let mut bare = self.clone();
        bare.drop_bitmaps();
        Box::new(bare)
    }
}

impl<P: TermPartition + 'static> Accelerated for PerTerm<P> {
    fn without_bitmaps(&self) -> Box<dyn TemporalIrIndex> {
        let mut bare = self.clone();
        bare.drop_bitmaps();
        Box::new(bare)
    }
}

/// Every method, each with its dense-term bitmaps: the seven IR-first
/// methods and the two irHINTs.
fn accelerated_indexes(coll: &Collection) -> Vec<Box<dyn Accelerated>> {
    vec![
        Box::new(Tif::build(coll)),
        Box::new(TifSlicing::build_with_slices(coll, 7)),
        Box::new(TifSharding::build(coll)),
        Box::new(TifHint::build(
            coll,
            TifHintConfig {
                strategy: IntersectStrategy::BinarySearch,
                m: 6,
            },
        )),
        Box::new(TifHint::build(
            coll,
            TifHintConfig {
                strategy: IntersectStrategy::MergeSort,
                m: 4,
            },
        )),
        Box::new(TifHintSlicing::build_with_params(coll, 4, 5)),
        Box::new(CompressedTif::build(coll)),
        Box::new(IrHintPerf::build_with_m(coll, 6)),
        Box::new(IrHintSize::build_with_m(coll, 6)),
    ]
}

fn all_indexes(coll: &Collection) -> Vec<Box<dyn TemporalIrIndex>> {
    let accelerated = accelerated_indexes(coll).into_iter();
    accelerated
        .map(|idx| idx as Box<dyn TemporalIrIndex>)
        .collect()
}

fn check(
    index: &dyn TemporalIrIndex,
    oracle: &BruteForce,
    q: &TimeTravelQuery,
) -> Result<(), TestCaseError> {
    let mut got = index.query(q);
    let n = got.len();
    got.sort_unstable();
    got.dedup();
    prop_assert_eq!(
        n,
        got.len(),
        "{} returned duplicates for {:?}",
        index.name(),
        q
    );
    prop_assert_eq!(
        got,
        oracle.answer(q),
        "{} wrong answer for {:?}",
        index.name(),
        q
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_index_matches_oracle(
        coll in arb_collection(60),
        queries in prop::collection::vec(arb_query(), 1..12),
    ) {
        let oracle = BruteForce::build(coll.objects());
        for index in all_indexes(&coll) {
            for q in &queries {
                check(index.as_ref(), &oracle, q)?;
            }
        }
    }

    #[test]
    fn every_index_survives_update_sequences(
        (skewed, plain_coll, skewed_coll) in
            (any::<bool>(), arb_collection(40), arb_skewed_collection(240)),
        extra in prop::collection::vec(
            (0..DOMAIN, 0..DOMAIN, prop::collection::btree_set(0..DICT, 1..4)),
            0..15,
        ),
        delete_every in 2usize..5,
        reuse_every in 2usize..5,
        batch_len in 1usize..5,
        // From insert `jump_at` on, ids jump past the universe: not at all
        // (the dense-element bitmaps grow word by word), by a few hundred
        // (they stretch), or by thousands (every element is left too sparse
        // for one).
        (jump_at, jump_scale, jump_by) in (0usize..8, 0u32..3, 1u32..5),
        queries in prop::collection::vec(arb_query(), 1..8),
    ) {
        let coll = if skewed { skewed_coll } else { plain_coll };
        let jump = [0, 100, 2000][jump_scale as usize] * jump_by;
        let mut oracle = BruteForce::build(coll.objects());
        // The methods are kept as themselves, so the state the sequence
        // leaves can be queried with its bitmaps dropped.
        let mut accelerated = accelerated_indexes(&coll);
        // Interleave inserts and deletes of existing objects; every other
        // chunk of `batch_len` inserts goes through `insert_batch` (the
        // per-division merge path), the rest one by one. An insert mints a
        // fresh id, except that every `reuse_every`-th takes the id of an
        // object deleted earlier — the server admits any id that is not live.
        let base = coll.len() as u32;
        let mut pending: Vec<Object> = Vec::new();
        let mut reused: HashMap<u32, Object> = HashMap::new();
        let mut dead: Vec<u32> = Vec::new();
        {
            let mut targets: Vec<&mut dyn TemporalIrIndex> = accelerated
                .iter_mut()
                .map(|idx| &mut **idx as &mut dyn TemporalIrIndex)
                .collect();
            for (i, (a, b, desc)) in extra.iter().enumerate() {
                let fresh = base + i as u32 + if i >= jump_at { jump } else { 0 };
                let id = if i % reuse_every == 1 { dead.pop().unwrap_or(fresh) } else { fresh };
                let o = Object::new(id, *a.min(b), *a.max(b), desc.iter().copied().collect());
                oracle.insert(&o);
                if id < base {
                    reused.insert(id, o.clone());
                }
                pending.push(o);
                // A delete this round names an object by id; if that object
                // is still waiting in `pending`, the batch goes in first.
                let victim_id = (i % delete_every == 0).then_some((i as u32 * 7) % base);
                let victim_pending = pending.iter().any(|p| Some(p.id) == victim_id);
                if (i / batch_len) % 2 == 1 || victim_pending {
                    let last = pending.pop().expect("just pushed");
                    for idx in targets.iter_mut() {
                        idx.insert_batch(&pending);
                        idx.insert(&last);
                    }
                    pending.clear();
                }
                if let Some(id) = victim_id {
                    let victim = reused.get(&id).unwrap_or(coll.get(id));
                    let expect = oracle.delete(victim);
                    for idx in targets.iter_mut() {
                        prop_assert_eq!(idx.delete(victim), expect, "{} delete disagrees", idx.name());
                    }
                    if expect {
                        dead.push(id);
                    }
                }
            }
            for idx in targets.iter_mut() {
                idx.insert_batch(&pending);
            }
        }
        // Accelerator only: the bitmaps change no answer, present or dropped.
        let bare: Vec<_> = accelerated.iter().map(|idx| idx.without_bitmaps()).collect();
        let mut indexes: Vec<_> =
            accelerated.into_iter().map(|idx| idx as Box<dyn TemporalIrIndex>).collect();
        indexes.extend(bare);
        for idx in &indexes {
            for q in &queries {
                check(idx.as_ref(), &oracle, q)?;
            }
        }
    }

    #[test]
    fn size_accounting_is_positive_and_ordered(coll in arb_collection(50)) {
        let perf = IrHintPerf::build_with_m(&coll, 5);
        let size = IrHintSize::build_with_m(&coll, 5);
        prop_assert!(perf.size_bytes() > 0);
        prop_assert!(size.size_bytes() > 0);
    }
}
