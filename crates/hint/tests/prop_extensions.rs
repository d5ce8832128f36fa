//! Property tests for the extension modules: Allen-relationship queries
//! and interval joins against their oracles.

use proptest::prelude::*;
use tir_hint::allen::brute_force_allen;
use tir_hint::{
    brute_force_join, forward_scan_join, grid_join, hint_inl_join, AllenRelation, DivisionOrder,
    Hint, HintConfig, IntervalRecord,
};

fn arb_records(max_len: usize, domain: u64) -> impl Strategy<Value = Vec<IntervalRecord>> {
    prop::collection::vec((0..domain, 0..domain), 0..max_len).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(i, (a, b))| IntervalRecord {
                id: i as u32,
                st: a.min(b),
                end: a.max(b),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn allen_queries_match_oracle(
        recs in arb_records(80, 300),
        (qa, qb) in (0u64..320, 0u64..320),
        m in 0u32..8,
    ) {
        let (q_st, q_end) = (qa.min(qb), qa.max(qb));
        let cfg = HintConfig { m: Some(m), order: DivisionOrder::Beneficial, storage_opt: false };
        let hint = Hint::build(&recs, cfg);
        for rel in AllenRelation::ALL {
            let mut got = hint.allen_query(rel, q_st, q_end);
            let n = got.len();
            got.sort_unstable();
            got.dedup();
            prop_assert_eq!(n, got.len(), "{:?} produced duplicates", rel);
            prop_assert_eq!(got, brute_force_allen(&recs, rel, q_st, q_end), "{:?}", rel);
        }
    }

    #[test]
    fn joins_match_oracle(
        a in arb_records(60, 400),
        b in arb_records(60, 400),
        k in 1u32..20,
    ) {
        let want = brute_force_join(&a, &b);
        let mut fs = Vec::new();
        forward_scan_join(&a, &b, |x, y| fs.push((x, y)));
        fs.sort_unstable();
        prop_assert_eq!(&fs, &want, "forward scan");

        let mut gj = Vec::new();
        grid_join(&a, &b, k, |x, y| gj.push((x, y)));
        let n = gj.len();
        gj.sort_unstable();
        gj.dedup();
        prop_assert_eq!(n, gj.len(), "grid join duplicates");
        prop_assert_eq!(&gj, &want, "grid join");

        let hint = Hint::build(&b, HintConfig::with_m(5));
        let mut inl = Vec::new();
        hint_inl_join(&a, &hint, |x, y| inl.push((x, y)));
        inl.sort_unstable();
        prop_assert_eq!(&inl, &want, "hint INL join");
    }

    #[test]
    fn conventional_traversal_equals_bottom_up(
        recs in arb_records(80, 400),
        (qa, qb) in (0u64..420, 0u64..420),
        m in 0u32..8,
    ) {
        let (q_st, q_end) = (qa.min(qb), qa.max(qb));
        let hint = Hint::build(&recs, HintConfig::with_m(m));
        let mut a = hint.range_query(q_st, q_end);
        let mut b = hint.range_query_conventional(q_st, q_end);
        a.sort_unstable();
        b.sort_unstable();
        b.dedup();
        prop_assert_eq!(a, b);
    }
}
