//! Five-minute tour: build a collection, index it with every method,
//! answer a time-travel IR query, and apply updates.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use temporal_ir::core::prelude::*;
use temporal_ir::datagen::{workload, SyntheticConfig, WorkloadSpec};

fn main() {
    // 1. A collection: the paper's running example (Figure 1) — eight
    //    objects over the dictionary {a=0, b=1, c=2}.
    let coll = Collection::running_example();
    println!(
        "collection: {} objects, domain {:?}",
        coll.len(),
        coll.domain()
    );

    // 2. The canonical query: interval [5, 9] and q.d = {a, c}.
    let q = TimeTravelQuery::new(5, 9, vec![0, 2]);

    // 3. Every index answers it identically (objects o2, o4, o7).
    for method in Method::ALL {
        let idx = method.build(&coll);
        let mut hits = idx.query(&q);
        hits.sort_unstable();
        println!("{:<18} -> {:?}", idx.name(), hits);
        assert_eq!(hits, vec![1, 3, 6]);
    }

    // 4. Updates: insert a matching object, delete another.
    let mut ir = IrHintPerf::build(&coll);
    let fresh = Object::new(8, 6, 8, vec![0, 2]);
    ir.insert(&fresh);
    assert!(ir.delete(coll.get(3)));
    let mut hits = ir.query(&q);
    hits.sort_unstable();
    println!("after updates        -> {hits:?}");
    assert_eq!(hits, vec![1, 6, 8]);

    // 5. Scaling up: a synthetic collection and a generated workload.
    let big = temporal_ir::datagen::generate(&SyntheticConfig::default().scaled(0.002));
    let queries = workload(&big, &WorkloadSpec::default(), 100, 1);
    let index = IrHintPerf::build(&big);
    let total: usize = queries.iter().map(|q| index.query(q).len()).sum();
    println!(
        "synthetic: {} objects, 100 queries, {} total results, index {} KiB",
        big.len(),
        total,
        index.size_bytes() / 1024
    );
}
