//! Lock-order witness stress: readers racing a writer through the epoch
//! store, with the debug-build witness armed. The serving stack's lock
//! discipline is intentionally flat (snapshot mutex, dictionary, catalog
//! — never nested except catalog-spanning admission), so a clean run
//! proves both that the discipline holds under real concurrency and that
//! the witness does not false-positive on heavy uncontended traffic.
//!
//! The witness only exists under `debug_assertions` (the default test
//! profile); in release test runs this file compiles to nothing.

#![cfg(debug_assertions)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tir_core::{BruteForce, Collection, Object, TemporalIrIndex, TimeTravelQuery};
use tir_serve::epoch::{EpochConfig, EpochStore, Rejected, WriteOp};
use tir_serve::pool::{PoolConfig, QueryPool};

#[test]
fn readers_racing_writer_trip_no_witness() {
    let coll = Collection::running_example();
    let store = Arc::new(EpochStore::new(
        BruteForce::build(coll.objects()),
        coll.len() as u64,
        EpochConfig::default(),
    ));
    let pool = Arc::new(QueryPool::new(
        Arc::clone(&store),
        PoolConfig {
            workers: 4,
            queue_depth: 256,
        },
    ));

    let stop = Arc::new(AtomicBool::new(false));
    let mut joins = Vec::new();

    // 4 readers: direct snapshots and pooled queries, interleaved.
    for t in 0..4u64 {
        let store = Arc::clone(&store);
        let pool = Arc::clone(&pool);
        let stop = Arc::clone(&stop);
        joins.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = store.snapshot();
                let direct = snap
                    .index
                    .query(&TimeTravelQuery::new(5, 9, vec![(t % 3) as u32]));
                assert!(direct.len() <= snap.live as usize);
                match pool.execute(TimeTravelQuery::new(0, 12, vec![((t + i) % 3) as u32])) {
                    Ok(reply) => assert!(reply.epoch <= store.snapshot().epoch),
                    Err(Rejected::Overloaded) => {} // legal under load
                    Err(e) => panic!("pool rejected mid-test: {e}"),
                }
                i += 1;
            }
        }));
    }

    // Writer: 300 insert/delete pairs with periodic flush barriers.
    for round in 0..300u32 {
        let o = Object::new(
            100 + round,
            (round % 10) as u64,
            (round % 10 + 2) as u64,
            vec![0],
        );
        while store.enqueue(WriteOp::Insert(o.clone())) == Err(Rejected::Overloaded) {
            std::thread::yield_now();
        }
        if round % 3 == 0 {
            while store.enqueue(WriteOp::Delete(o.clone())) == Err(Rejected::Overloaded) {
                std::thread::yield_now();
            }
        }
        if round % 25 == 0 {
            store.flush().expect("flush barrier");
        }
    }
    store.flush().expect("final flush");

    stop.store(true, Ordering::Relaxed);
    for j in joins {
        j.join()
            .expect("reader thread must finish without a witness panic");
    }

    let snap = store.snapshot();
    assert!(snap.epoch > 0, "writer actually advanced epochs");
    assert!(snap.live >= 8, "running example objects stay live");
}
