//! The `worker-stall` fault site on the run-to-completion read path: a
//! query stalled past its deadline — permit in hand, index not yet
//! touched — answers `TimedOut`, and its permit comes back.
//!
//! NOTE: the fault registry is process-global, so this binary holds
//! exactly one `#[test]`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tir_core::{BruteForce, Collection, TimeTravelQuery};
use tir_fault::{FaultAction, FaultSite, OneShot};
use tir_serve::epoch::{EpochConfig, EpochStore};
use tir_serve::pool::{PoolConfig, QueryOutcome, QueryPool};

#[test]
fn a_stall_longer_than_the_deadline_answers_timeout() {
    let coll = Collection::running_example();
    let store = Arc::new(EpochStore::new(
        BruteForce::build(coll.objects()),
        coll.len() as u64,
        EpochConfig::default(),
    ));
    let pool = QueryPool::new(
        store,
        PoolConfig {
            workers: 1,
            ..Default::default()
        },
    );
    // The site is visited once per query: only the second one stalls.
    tir_fault::install(Arc::new(OneShot {
        site: FaultSite::WorkerStall,
        visit: 1,
        action: FaultAction::Stall(50),
    }));
    let ask = |budget: Duration| {
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        pool.execute_with_deadline(q, Some(Instant::now() + budget))
            .expect("admitted")
    };
    let answered = |outcome| matches!(outcome, QueryOutcome::Answered(r) if r.ids.len() == 3);
    assert!(answered(ask(Duration::from_secs(10))));
    assert_eq!(ask(Duration::from_millis(10)), QueryOutcome::TimedOut);
    assert!(
        answered(ask(Duration::from_secs(10))),
        "the permit came back"
    );
    tir_fault::clear();
    assert_eq!(pool.stats().timeouts, 1);
    assert_eq!(pool.stats().served, 2);
}
