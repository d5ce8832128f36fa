//! Temporal-IR joins (extension; Section 7 names joins as future work).
//!
//! [`temporal_common_elements_join`] over a pair of collections `A`, `B`
//! returns all pairs `(a, b)` whose intervals overlap and whose
//! descriptions share at least `min_common` elements (e.g. "sessions
//! that listened to ≥ 2 of the same tracks at the same time").

use crate::collection::Collection;
use crate::types::{ElemId, ObjectId};
use tir_hint::{forward_scan_join, IntervalRecord};

/// One join result: a pair of object ids plus the number of shared
/// description elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct JoinPair {
    /// Object id from the left collection.
    pub left: ObjectId,
    /// Object id from the right collection.
    pub right: ObjectId,
    /// Number of common description elements.
    pub common: u32,
}

/// Size of the intersection of two sorted element sets.
fn common_count(a: &[ElemId], b: &[ElemId]) -> u32 {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

fn records_of(coll: &Collection) -> Vec<IntervalRecord> {
    coll.objects()
        .iter()
        .map(|o| IntervalRecord {
            id: o.id,
            st: o.interval.st,
            end: o.interval.end,
        })
        .collect()
}

/// All `(a, b)` pairs with overlapping intervals and at least
/// `min_common >= 1` shared description elements, sorted by
/// `(left, right)`.
///
/// Uses a forward-scan interval sweep with the element check applied at
/// emission time.
pub fn temporal_common_elements_join(
    a: &Collection,
    b: &Collection,
    min_common: u32,
) -> Vec<JoinPair> {
    assert!(min_common >= 1, "min_common = 0 is a plain interval join");
    let ra = records_of(a);
    let rb = records_of(b);
    let mut out = Vec::new();
    forward_scan_join(&ra, &rb, |la, rb_id| {
        let common = common_count(&a.get(la).desc, &b.get(rb_id).desc);
        if common >= min_common {
            out.push(JoinPair {
                left: la,
                right: rb_id,
                common,
            });
        }
    });
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Object;

    fn coll_a() -> Collection {
        Collection::new(vec![
            Object::new(0, 0, 10, vec![1, 2, 3]),
            Object::new(1, 5, 15, vec![2, 4]),
            Object::new(2, 20, 30, vec![1, 2]),
            Object::new(3, 8, 9, vec![9]),
        ])
    }

    fn coll_b() -> Collection {
        Collection::new(vec![
            Object::new(0, 9, 12, vec![2, 3]),
            Object::new(1, 25, 40, vec![1, 7]),
            Object::new(2, 50, 60, vec![1, 2, 3]),
            Object::new(3, 0, 100, vec![9]),
        ])
    }

    fn oracle(a: &Collection, b: &Collection, min_common: u32) -> Vec<JoinPair> {
        let mut out = Vec::new();
        for oa in a.objects() {
            for ob in b.objects() {
                if oa.interval.overlaps(&ob.interval) {
                    let common = common_count(&oa.desc, &ob.desc);
                    if common >= min_common {
                        out.push(JoinPair {
                            left: oa.id,
                            right: ob.id,
                            common,
                        });
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn common_join_matches_oracle() {
        let (a, b) = (coll_a(), coll_b());
        for min_common in 1..=3 {
            assert_eq!(
                temporal_common_elements_join(&a, &b, min_common),
                oracle(&a, &b, min_common),
                "min_common={min_common}"
            );
        }
    }

    #[test]
    fn common_join_on_random_collections() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        let mk = |rng: &mut StdRng, n: u32| {
            Collection::new(
                (0..n)
                    .map(|i| {
                        let st = rng.gen_range(0..500u64);
                        let len = rng.gen_range(0..60u64);
                        let desc: Vec<u32> = (0..rng.gen_range(1..5))
                            .map(|_| rng.gen_range(0..8))
                            .collect();
                        Object::new(i, st, st + len, desc)
                    })
                    .collect(),
            )
        };
        let a = mk(&mut rng, 80);
        let b = mk(&mut rng, 70);
        for min_common in 1..=2 {
            assert_eq!(
                temporal_common_elements_join(&a, &b, min_common),
                oracle(&a, &b, min_common)
            );
        }
    }

    #[test]
    fn self_join_is_reflexive() {
        let a = coll_a();
        let got = temporal_common_elements_join(&a, &a, 1);
        for o in a.objects() {
            assert!(got.contains(&JoinPair {
                left: o.id,
                right: o.id,
                common: o.desc.len() as u32
            }));
        }
    }
}
