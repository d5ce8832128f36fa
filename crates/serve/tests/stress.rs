//! Concurrency stress tests for the epoch store and query pool.
//!
//! The headline test races N reader threads against one writer replaying
//! a mixed insert/delete stream — once per method of [`Method::ALL`] —
//! then compares the pool's final answers against the `BruteForce`
//! oracle: exact agreement, and strictly ascending as they come (the
//! pool's contract; the test sorts nothing). A second test checks the
//! snapshot-monotonicity contract without loom: an id whose insert was
//! flushed before a snapshot was taken is never missing from that
//! snapshot.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tir_check::Validate;
use tir_core::prelude::*;
use tir_core::with_method;
use tir_datagen::{
    mixed_stream, with_sparse_ids, workload, Extent, MixedSpec, Op, SyntheticConfig, WorkloadSpec,
};
use tir_invidx::ORDER_SPAN_WORDS_PER_ID;
use tir_serve::epoch::{EpochConfig, EpochStore, WriteOp};
use tir_serve::pool::{PoolConfig, QueryPool};
use tir_serve::Rejected;

fn small_corpus() -> Collection {
    let mut cfg = SyntheticConfig::default().scaled(0.002);
    cfg.desc_size = 4;
    cfg.seed = 11;
    tir_datagen::generate(&cfg)
}

/// Selective two-term queries, and broad one- and two-term ones whose
/// answers run to hundreds of ids out of many divisions.
fn stress_queries(coll: &Collection) -> Vec<TimeTravelQuery> {
    let mut queries = Vec::new();
    for (extent, num_elems, n) in [
        (Extent::Fraction(0.001), 2, 120),
        (Extent::Fraction(0.3), 1, 40),
        (Extent::Fraction(0.3), 2, 40),
    ] {
        let spec = WorkloadSpec {
            extent,
            num_elems,
            ..Default::default()
        };
        queries.extend(workload(coll, &spec, n, 31));
    }
    assert!(queries.len() >= 150);
    queries
}

fn strictly_ascending(ids: &[ObjectId]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

/// Which way the pool's ordering step goes for an answer as the index
/// reports it: `None` if it already ascends, else whether its span is
/// within the bitmap pass's rule.
fn ordering_path(raw: &[ObjectId]) -> Option<bool> {
    if raw.is_sorted() {
        return None;
    }
    let (lo, hi) = (raw.iter().min()?, raw.iter().max()?);
    let span_words = ((hi - lo) / 64) as usize + 1;
    Some(span_words <= raw.len() * ORDER_SPAN_WORDS_PER_ID)
}

/// Every query through a fresh pool over `index`: the reply is strictly
/// ascending as it comes and equal to the oracle's answer. Returns how
/// many answers the index reported unordered within the span rule, and
/// how many outside it.
fn served_answers_equal_the_oracle<I>(
    index: I,
    objects: &[Object],
    queries: &[TimeTravelQuery],
    ctx: &str,
) -> (usize, usize)
where
    I: TemporalIrIndex + Clone + Send + Sync + 'static,
{
    let oracle = BruteForce::build(objects);
    let (mut in_rule, mut past_rule) = (0, 0);
    for q in queries {
        match ordering_path(&index.query(q)) {
            Some(true) => in_rule += 1,
            Some(false) => past_rule += 1,
            None => {}
        }
    }
    let store = EpochStore::new(index, objects.len() as u64, EpochConfig::default());
    let pool = QueryPool::new(Arc::new(store), PoolConfig::default());
    for q in queries {
        let got = pool.execute(q.clone()).expect("quiesced query").ids;
        assert!(strictly_ascending(&got), "[{ctx}] unordered reply to {q:?}");
        assert_eq!(got, oracle.answer(q), "[{ctx}] divergence on {q:?}");
    }
    (in_rule, past_rule)
}

/// Readers hammer a pool over `index` while a writer replays `writes`;
/// then, quiesced, every answer must be the oracle's. Returns the final
/// catalog, ascending by id.
fn race_then_agree<I>(
    index: I,
    coll: &Collection,
    writes: &[Op],
    queries: &[TimeTravelQuery],
    ctx: &str,
) -> Vec<Object>
where
    I: TemporalIrIndex + Validate + Clone + Send + Sync + 'static,
{
    let store = Arc::new(EpochStore::new(
        index,
        coll.len() as u64,
        EpochConfig {
            // Post-swap validation on every epoch: the rebuilt snapshot
            // must satisfy every structural invariant tir-check knows.
            validator: Some(Box::new(|i: &I| i.validate().len())),
            ..Default::default()
        },
    ));
    let pool = Arc::new(QueryPool::new(
        Arc::clone(&store),
        PoolConfig {
            workers: 4,
            ..Default::default()
        },
    ));

    // Race phase: 4 readers hammer the pool while the writer applies.
    let stop = Arc::new(AtomicBool::new(false));
    let raced = Arc::new(AtomicU64::new(0));
    let mut readers = Vec::new();
    for t in 0..4usize {
        let pool = Arc::clone(&pool);
        let stop = Arc::clone(&stop);
        let raced = Arc::clone(&raced);
        let queries = queries.to_vec();
        let ctx = ctx.to_string();
        readers.push(std::thread::spawn(move || {
            let mut i = t;
            while !stop.load(Ordering::Relaxed) {
                let q = &queries[i % queries.len()];
                i += 1;
                match pool.execute(q.clone()) {
                    Ok(reply) => {
                        raced.fetch_add(1, Ordering::Relaxed);
                        assert!(
                            strictly_ascending(&reply.ids),
                            "[{ctx}] unordered or duplicated ids in a raced reply"
                        );
                    }
                    Err(Rejected::Overloaded) => {} // backpressure is legal
                    Err(Rejected::Closed) => return,
                    Err(Rejected::Degraded) => panic!("in-memory store degraded"),
                }
            }
        }));
    }

    // Writer: replay the stream, mirroring it into a catalog for
    // deletes, with occasional barriers like a real ingester.
    let mut catalog: std::collections::BTreeMap<u32, Object> =
        coll.objects().iter().map(|o| (o.id, o.clone())).collect();
    let enqueue = |op: &dyn Fn() -> WriteOp| loop {
        match store.enqueue(op()) {
            Ok(()) => break,
            Err(Rejected::Overloaded) => std::thread::yield_now(),
            Err(Rejected::Closed) => panic!("store closed"),
            Err(Rejected::Degraded) => panic!("in-memory store degraded"),
        }
    };
    for (i, op) in writes.iter().enumerate() {
        match op {
            Op::Insert(o) => {
                catalog.insert(o.id, o.clone());
                enqueue(&|| WriteOp::Insert(o.clone()));
            }
            Op::Delete(id) => {
                let o = catalog.remove(id).expect("stream deletes only live ids");
                enqueue(&|| WriteOp::Delete(o.clone()));
            }
            Op::Query(_) => unreachable!("write_fraction = 1.0"),
        }
        if i % 97 == 0 {
            store.flush().expect("flush");
        }
    }
    let final_epoch = store.flush().expect("final flush");
    assert!(final_epoch > 0);

    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader thread");
    }
    assert!(
        raced.load(Ordering::Relaxed) > 0,
        "[{ctx}] readers made no progress during the race"
    );

    // Every epoch's rebuilt snapshot validated clean under race.
    assert_eq!(store.stats().violations.load(Ordering::Relaxed), 0);
    assert_eq!(store.stats().missed_deletes.load(Ordering::Relaxed), 0);

    // Quiesced: final answer sets must equal the oracle's, exactly and
    // in order.
    let survivors: Vec<Object> = catalog.into_values().collect();
    let oracle = BruteForce::build(&survivors);
    for q in queries {
        let got = pool.execute(q.clone()).expect("post-race query").ids;
        assert!(strictly_ascending(&got), "[{ctx}] unordered reply to {q:?}");
        assert_eq!(got, oracle.answer(q), "[{ctx}] divergence on {q:?}");
    }
    survivors
}

#[test]
fn readers_race_writer_and_agree_with_oracle() {
    let coll = small_corpus();
    // The write script, deterministic and replayable into the oracle.
    let spec = MixedSpec {
        write_fraction: 1.0,
        insert_fraction: 0.6,
        query: WorkloadSpec::default(),
    };
    let writes = mixed_stream(&coll, &spec, 600, 23);
    let queries = stress_queries(&coll);

    for m in Method::ALL {
        let survivors = with_method!(m, |I, build| race_then_agree::<I>(
            build(&coll),
            &coll,
            &writes,
            &queries,
            m.name()
        ));
        // The same catalog rebuilt, as recovery would, and once more
        // renumbered: ~1.4K ids inside 2.6K are dense enough for the
        // bitmap pass, the same ids strewn over 4M are not.
        let dense = Collection::new(survivors);
        let sparse = with_sparse_ids(&dense);
        let (in_rule, _) = with_method!(m, |I, build| served_answers_equal_the_oracle::<I>(
            build(&dense),
            dense.objects(),
            &queries,
            m.name()
        ));
        let (_, past_rule) = with_method!(m, |I, build| served_answers_equal_the_oracle::<I>(
            build(&sparse),
            sparse.objects(),
            &queries,
            &format!("{m}, sparse ids")
        ));
        if m == Method::IrHintPerf {
            // The served index of the benchmark reports one run per
            // division: both sides of the span rule were really taken.
            assert!(in_rule > 20 && past_rule > 20, "{in_rule} / {past_rule}");
        }
    }
}

#[test]
fn flushed_inserts_are_never_missing_from_later_snapshots() {
    // The loom-free linearizability smoke: flush() is the write barrier,
    // so an id inserted before it can never be absent from a snapshot
    // taken after it — and epochs only move forward.
    let coll = Collection::running_example();
    let store = EpochStore::new(
        IrHintPerf::build(&coll),
        coll.len() as u64,
        EpochConfig::default(),
    );
    let mut last_epoch = store.snapshot().epoch;
    for k in 0..60u32 {
        let id = 8 + k;
        let st = 5 + (k as u64 % 7);
        let o = Object::new(id, st, st + 3, vec![0, 2]);
        store
            .enqueue(WriteOp::Insert(o.clone()))
            .expect("enqueue insert");
        store.flush().expect("flush");
        let snap = store.snapshot();
        assert!(
            snap.epoch >= last_epoch,
            "epoch went backwards: {} -> {}",
            last_epoch,
            snap.epoch
        );
        last_epoch = snap.epoch;
        let hits = snap.index.query(&TimeTravelQuery::new(
            o.interval.st,
            o.interval.end,
            o.desc.to_vec(),
        ));
        assert!(
            hits.contains(&id),
            "id {id} flushed before the snapshot but missing at epoch {}",
            snap.epoch
        );
    }
}
