//! Beyond boolean search: the library's extension features on one
//! workload — relevance ranking and compressed indexing over a fleet of
//! support-chat sessions.
//!
//! ```text
//! cargo run --release --example session_analytics
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temporal_ir::core::prelude::*;
use temporal_ir::core::{CompressedTif, RankedQuery, RankedTif};

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);

    // 15K support sessions over one week (minute resolution); topics 0..60.
    let week = 7 * 24 * 60u64;
    let mut sessions = Vec::new();
    for id in 0..15_000u32 {
        let st = rng.gen_range(0..week - 120);
        let len = rng.gen_range(1..120u64);
        let topics: Vec<u32> = (0..rng.gen_range(1..6))
            .map(|_| rng.gen_range(0..60))
            .collect();
        sessions.push(Object::new(id, st, st + len, topics));
    }
    let coll = Collection::new(sessions);

    // ----- Relevance ranking --------------------------------------------
    // "Most relevant sessions about topics {3, 17, 42} on Wednesday" —
    // partial matches allowed, rare topics weighted up.
    let ranked = RankedTif::build(&coll);
    let wednesday = (3 * 24 * 60u64, 4 * 24 * 60u64);
    let top = ranked.query_topk(&RankedQuery::new(
        wednesday.0,
        wednesday.1,
        vec![3, 17, 42],
        5,
    ));
    println!("top-5 ranked hits for topics {{3,17,42}} on Wednesday:");
    for hit in &top {
        let o = coll.get(hit.id);
        println!(
            "  session {:<6} score {:.3}  topics {:?}",
            hit.id, hit.score, o.desc
        );
    }
    assert!(top.windows(2).all(|w| w[0].score >= w[1].score));

    // ----- Compressed index ----------------------------------------------
    // Same answers, smaller footprint.
    let plain = Tif::build(&coll);
    let compressed = CompressedTif::build(&coll);
    let q = TimeTravelQuery::new(wednesday.0, wednesday.1, vec![3, 17]);
    let mut a = plain.query(&q);
    let mut b = compressed.query(&q);
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
    println!(
        "boolean query agrees on plain tIF ({} KiB) and cTIF ({} KiB): {} results",
        plain.size_bytes() / 1024,
        compressed.size_bytes() / 1024,
        a.len()
    );
}
