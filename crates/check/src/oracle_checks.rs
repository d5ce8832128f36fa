//! Ground-truth agreement checks: compare any index against the
//! [`BruteForce`] oracle over a deterministic query grid derived from a
//! catalog of live objects.
//!
//! This is the verification core shared by `tir recover --verify` and
//! the root differential harness: after a crash, a fault, or a recovery, the
//! surviving index must answer **exactly** like a linear scan of the
//! catalog it claims to hold — every qualifying id, exactly once.

use tir_core::{BruteForce, Object, TemporalIrIndex, TimeTravelQuery};

use crate::Violation;

/// Splitmix64 — deterministic, seedable, dependency-free.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds a deterministic grid of `queries` time-travel queries spanning
/// the catalog's domain and element universe: window extents sweep from
/// stabbing-like to the full domain, and each query draws 1–3 elements
/// actually used by live objects (so answers are rarely trivially
/// empty). The same `(catalog, queries, seed)` always yields the same
/// grid — replayable across a crash.
pub fn oracle_query_grid(catalog: &[Object], queries: usize, seed: u64) -> Vec<TimeTravelQuery> {
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    let mut elems: Vec<u32> = Vec::new();
    for o in catalog {
        lo = lo.min(o.interval.st);
        hi = hi.max(o.interval.end);
        elems.extend_from_slice(&o.desc);
    }
    elems.sort_unstable();
    elems.dedup();
    if lo > hi {
        (lo, hi) = (0, 1);
    }
    if elems.is_empty() {
        elems.push(0);
    }
    let span = (hi - lo).max(1);
    let mut grid = Vec::with_capacity(queries);
    for k in 0..queries as u64 {
        let r = mix(seed ^ mix(k));
        let len = match k % 4 {
            0 => 0,
            1 => span / 100,
            2 => span / 10,
            _ => span,
        };
        let st = lo + r % span.saturating_sub(len).max(1);
        let n = 1 + (r >> 32) as usize % 3;
        let mut d = Vec::with_capacity(n);
        for j in 0..n {
            d.push(elems[mix(r ^ j as u64) as usize % elems.len()]);
        }
        grid.push(TimeTravelQuery::new(st, (st + len).min(hi), d));
    }
    grid
}

/// Runs every grid query through `index` and through a [`BruteForce`]
/// oracle built from `catalog`, reporting one [`Violation`] per
/// diverging query (missing ids, extra ids, or duplicates). An empty
/// result means exact agreement.
pub fn diff_against_oracle<I: TemporalIrIndex + ?Sized>(
    index: &I,
    catalog: &[Object],
    grid: &[TimeTravelQuery],
) -> Vec<Violation> {
    let oracle = BruteForce::build(catalog);
    let mut out = Vec::new();
    for (i, q) in grid.iter().enumerate() {
        let mut got = index.query(q);
        got.sort_unstable();
        let n = got.len();
        got.dedup();
        if got.len() != n {
            out.push(Violation::new(
                format!("oracle/query{i}"),
                format!("duplicate ids in the answer to {q:?}"),
            ));
        }
        let want = oracle.answer(q);
        if got != want {
            let (missing, extra) = sorted_difference(&want, &got);
            out.push(Violation::new(
                format!("oracle/query{i}"),
                format!("divergence on {q:?}: missing {missing:?}, extra {extra:?}"),
            ));
        }
    }
    out
}

/// `(want − got, got − want)` of two strictly ascending id lists, in one
/// merge walk.
fn sorted_difference(want: &[u32], got: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let (mut missing, mut extra) = (Vec::new(), Vec::new());
    let (mut w, mut g) = (0, 0);
    while w < want.len() || g < got.len() {
        match (want.get(w), got.get(g)) {
            (Some(a), Some(b)) if a == b => (w, g) = (w + 1, g + 1),
            (Some(&a), b) if b.is_none_or(|&b| a < b) => {
                missing.push(a);
                w += 1;
            }
            (_, b) => {
                extra.extend(b);
                g += 1;
            }
        }
    }
    (missing, extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir_core::prelude::*;

    #[test]
    fn grid_is_deterministic_and_in_domain() {
        let coll = Collection::running_example();
        let a = oracle_query_grid(coll.objects(), 16, 42);
        let b = oracle_query_grid(coll.objects(), 16, 42);
        assert_eq!(a.len(), 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
        let c = oracle_query_grid(coll.objects(), 16, 43);
        assert!(a.iter().zip(&c).any(|(x, y)| x != y));
    }

    #[test]
    fn honest_index_agrees_and_tampered_index_diverges() {
        let coll = Collection::running_example();
        let grid = oracle_query_grid(coll.objects(), 24, 7);
        let index = Tif::build(&coll);
        assert!(diff_against_oracle(&index, coll.objects(), &grid).is_empty());

        // Drop one object from the catalog the oracle sees: the index
        // answers it as an extra id. Built without it, the index misses it.
        let partial: Vec<Object> = coll.objects()[1..].to_vec();
        let dropped = coll.objects()[0].id;
        let wide = oracle_query_grid(&partial, 8, 7);
        let mut all = grid;
        all.extend(wide);
        let without = Tif::build(&Collection::new(partial.clone()));
        let cases = [
            (
                diff_against_oracle(&index, &partial, &all),
                vec![],
                vec![dropped],
            ),
            (
                diff_against_oracle(&without, coll.objects(), &all),
                vec![dropped],
                vec![],
            ),
        ];
        for (report, missing, extra) in cases {
            // The full-domain queries are guaranteed to see the dropped id.
            assert!(!report.is_empty());
            for v in report {
                let tail = format!("missing {missing:?}, extra {extra:?}");
                assert!(v.message.ends_with(&tail), "{}", v.message);
            }
        }
        let (missing, extra) = sorted_difference(&[1, 3, 5, 7], &[2, 3, 7, 9]);
        assert_eq!((missing, extra), (vec![1, 5], vec![2, 9]));
    }
}
