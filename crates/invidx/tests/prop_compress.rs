//! Property tests for the compressed postings lists.

use proptest::prelude::*;
use tir_invidx::compress::CompressedTemporalPostings;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn temporal_roundtrip(
        entries in prop::collection::btree_map(0u32..1_000_000, (0u64..1_000_000_000, 0u64..1_000_000), 0..200),
    ) {
        let ids: Vec<u32> = entries.keys().copied().collect();
        let sts: Vec<u64> = entries.values().map(|&(st, _)| st).collect();
        let ends: Vec<u64> = entries.values().map(|&(st, d)| st + d).collect();
        let c = CompressedTemporalPostings::encode(&ids, &sts, &ends);
        let mut got = Vec::new();
        c.for_each(|id, st, end| got.push((id, st, end)));
        let want: Vec<(u32, u64, u64)> = entries
            .iter()
            .map(|(&id, &(st, d))| (id, st, st + d))
            .collect();
        prop_assert_eq!(got, want);
    }
}
