//! Property-based tests: HINT, under both division orders, and the
//! hierarchy and endpoint predicate it is built from must agree with the
//! brute-force oracle on arbitrary inputs, configurations and queries.

use proptest::prelude::*;
use tir_hint::{
    brute_force_overlap, CheckMode, DivisionOrder, Domain, Hierarchy, Hint, HintConfig,
    IntervalRecord, TOMBSTONE,
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

fn arb_query(domain: u64) -> impl Strategy<Value = (u64, u64)> {
    (0..domain, 0..domain).prop_map(|(a, b)| (a.min(b), a.max(b)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hint_matches_oracle(
        recs in arb_records(120, 1000),
        queries in prop::collection::vec(arb_query(1100), 1..20),
        m in 0u32..10,
        by_id in any::<bool>(),
    ) {
        let order = if by_id { DivisionOrder::ById } else { DivisionOrder::Beneficial };
        let hint = Hint::build(&recs, HintConfig { m: Some(m), order });
        for (qs, qe) in queries {
            let mut got = hint.range_query(qs, qe);
            let n = got.len();
            got.sort_unstable();
            got.dedup();
            prop_assert_eq!(n, got.len(), "duplicates");
            prop_assert_eq!(got, brute_force_overlap(&recs, qs, qe));
        }
    }

    /// The hierarchy alone, with the plainest payload there is: the
    /// placement rule stores every record in exactly one original division,
    /// and the walk's divisions, filtered by the check mode it hands out,
    /// are the oracle's answer with no duplicate — whatever mix of bulk and
    /// single placement built the levels.
    #[test]
    fn hierarchy_walk_reconstructs_range_query(
        recs in arb_records(120, 1000),
        bulk in 0usize..120,
        queries in prop::collection::vec(arb_query(1100), 1..20),
        m in 0u32..8,
    ) {
        let mut h: Hierarchy<Vec<(u32, u64, u64)>> = Hierarchy::new(Domain::new(0, 999, m));
        let (built, inserted) = recs.split_at(bulk.min(recs.len()));
        h.place_batch(built.iter().map(|r| (r.st, r.end)), |d, _, items| {
            d.extend(items.iter().map(|&i| built[i as usize]).map(|r| (r.id, r.st, r.end)));
        });
        for r in inserted {
            h.place(r.st, r.end, |d, _| d.push((r.id, r.st, r.end)));
        }

        let mut originals = vec![0usize; recs.len()];
        h.for_each_division(|d, _, _, kind| {
            if !kind.is_replica() {
                d.iter().for_each(|&(id, _, _)| originals[id as usize] += 1);
            }
        });
        prop_assert!(originals.iter().all(|&n| n == 1), "originals per record: {:?}", originals);

        for (qs, qe) in queries {
            let mut got = Vec::new();
            h.for_each_relevant(qs, qe, |d, _, _, _, mode| {
                let ids: Vec<u32> = d.iter().map(|e| e.0).collect();
                let sts: Vec<u64> = d.iter().map(|e| e.1).collect();
                let ends: Vec<u64> = d.iter().map(|e| e.2).collect();
                mode.admit_into(&ids, &sts, &ends, qs, qe, &mut got);
            });
            let n = got.len();
            got.sort_unstable();
            got.dedup();
            prop_assert_eq!(n, got.len(), "duplicates");
            prop_assert_eq!(got, brute_force_overlap(&recs, qs, qe));
        }
    }

    /// Both forms of the endpoint predicate — the compaction after whatever
    /// the buffer already held, and the per-id visitor — admit exactly what
    /// each mode's predicate admits, in column order, tombstones excluded,
    /// and never read a column the mode does not need, so callers whose
    /// store elides it (or has none: the id-only `W = 0` postings) pass an
    /// empty slice.
    #[test]
    fn admission_matches_the_four_predicates(
        column in prop::collection::vec((0u32..1000, any::<bool>(), 0u64..100, 0u64..100), 0..200),
        (qs, qe) in arb_query(100),
        held in prop::collection::vec(any::<u32>(), 0..4),
    ) {
        let ids: Vec<u32> = column.iter().map(|&(id, dead, _, _)| if dead { id | TOMBSTONE } else { id }).collect();
        let sts: Vec<u64> = column.iter().map(|c| c.2).collect();
        let ends: Vec<u64> = column.iter().map(|c| c.3).collect();
        type Predicate = fn(u64, u64, u64, u64) -> bool;
        let modes: [(CheckMode, &[u64], &[u64], Predicate); 4] = [
            (CheckMode::None, &[], &[], |_, _, _, _| true),
            (CheckMode::Start, &sts, &[], |st, _, _, qe| st <= qe),
            (CheckMode::End, &[], &ends, |_, end, qs, _| end >= qs),
            (CheckMode::Both, &sts, &ends, |st, end, qs, qe| st <= qe && end >= qs),
        ];
        for (mode, sts_col, ends_col, admits) in modes {
            let mut want = held.clone();
            want.extend(
                (0..ids.len())
                    .filter(|&i| ids[i] & TOMBSTONE == 0 && admits(sts[i], ends[i], qs, qe))
                    .map(|i| ids[i]),
            );
            let mut got = held.clone();
            mode.admit_into(&ids, sts_col, ends_col, qs, qe, &mut got);
            prop_assert_eq!(&got, &want, "{:?}", mode);
            let mut got = held.clone();
            mode.for_each_admitted(&ids, sts_col, ends_col, qs, qe, |id| got.push(id));
            prop_assert_eq!(&got, &want, "{:?}", mode);
        }
    }

    #[test]
    fn hint_cost_model_config_matches_oracle(
        recs in arb_records(80, 100_000),
        queries in prop::collection::vec(arb_query(100_000), 1..10),
    ) {
        let hint = Hint::build(&recs, HintConfig::default());
        for (qs, qe) in queries {
            let mut got = hint.range_query(qs, qe);
            got.sort_unstable();
            prop_assert_eq!(got, brute_force_overlap(&recs, qs, qe));
        }
    }

    /// Inserts and deletes leave dirty divisions (tombstones, entries
    /// placed one at a time) behind; under both orders and any `m`, the
    /// sorted-prefix cut and the whole-division filter must still hide
    /// every deleted id and find every inserted one.
    #[test]
    fn hint_insert_delete_matches_oracle(
        base in arb_records(60, 500),
        extra in arb_records(30, 500),
        del_mask in prop::collection::vec(any::<bool>(), 60),
        queries in prop::collection::vec(arb_query(600), 1..8),
        m in 0u32..9,
        by_id in any::<bool>(),
    ) {
        // Re-id the extras so ids stay unique.
        let extra: Vec<IntervalRecord> = extra
            .iter()
            .enumerate()
            .map(|(i, r)| IntervalRecord { id: (1000 + i) as u32, ..*r })
            .collect();
        let order = if by_id { DivisionOrder::ById } else { DivisionOrder::Beneficial };
        let mut hint = Hint::build_with_domain(&base, 0, 600, HintConfig { m: Some(m), order });
        for r in &extra {
            hint.insert(r);
        }
        let mut live: Vec<IntervalRecord> = base.iter().chain(extra.iter()).copied().collect();
        for (i, r) in base.iter().enumerate() {
            if *del_mask.get(i).unwrap_or(&false) {
                prop_assert!(hint.delete(r));
                live.retain(|x| x.id != r.id);
            }
        }
        for (qs, qe) in queries {
            let mut got = hint.range_query(qs, qe);
            got.sort_unstable();
            prop_assert_eq!(got, brute_force_overlap(&live, qs, qe));
        }
    }
}
