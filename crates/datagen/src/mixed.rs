//! Mixed read/write workload streams for the serving layer.
//!
//! The paper's update experiments (§6) insert and delete whole batches
//! offline; a serving system instead sees reads and writes *interleaved*.
//! [`mixed_stream`] produces such an interleaving: a deterministic
//! sequence of [`Op`]s over a base collection where
//!
//! * queries follow a [`WorkloadSpec`] (seeded from live objects, so a
//!   correct index never returns an empty answer for them);
//! * inserts mint fresh objects with ids above everything allocated so
//!   far, shaped like the base collection (descriptions sampled from its
//!   element-frequency table, intervals sampled inside its domain);
//! * deletes only target ids that are still alive at that point of the
//!   stream (base objects or earlier inserts), so replaying the stream
//!   against any [`TemporalIrIndex`] is always well-formed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tir_core::{Collection, ElemId, Object, ObjectId, TimeTravelQuery};

use crate::queries::{workload, WorkloadSpec};

/// One operation of a mixed read/write stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Answer a time-travel query.
    Query(TimeTravelQuery),
    /// Insert a freshly minted object.
    Insert(Object),
    /// Logically delete a live object by id.
    Delete(ObjectId),
}

/// Shape of a mixed stream.
#[derive(Debug, Clone, Copy)]
pub struct MixedSpec {
    /// Fraction of operations that are writes (insert or delete);
    /// the paper's workloads are read-heavy, default 0.05.
    pub write_fraction: f64,
    /// Fraction of writes that are inserts (the rest are deletes),
    /// default 0.7 so the collection slowly grows.
    pub insert_fraction: f64,
    /// Query shape for the read operations.
    pub query: WorkloadSpec,
}

impl Default for MixedSpec {
    fn default() -> Self {
        MixedSpec {
            write_fraction: 0.05,
            insert_fraction: 0.7,
            query: WorkloadSpec::default(),
        }
    }
}

/// Generates `n` interleaved operations over `coll`.
///
/// Deterministic per `(spec, n, seed)`. Inserted ids start at
/// `coll.len()` and increase; a delete always refers to an id that is
/// alive at that point in the stream. Queries are pre-generated from the
/// *base* collection (they stay valid because deletes never make them
/// ill-formed, only change their answers).
pub fn mixed_stream(coll: &Collection, spec: &MixedSpec, n: usize, seed: u64) -> Vec<Op> {
    assert!((0.0..=1.0).contains(&spec.write_fraction));
    assert!((0.0..=1.0).contains(&spec.insert_fraction));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E57_1A17);
    let reads = ((n as f64) * (1.0 - spec.write_fraction)).round() as usize;
    let mut queries = workload(coll, &spec.query, reads, seed);
    queries.reverse(); // pop() consumes them in generation order

    let domain = coll.domain();
    let span = domain.end - domain.st;
    // Sample descriptions from the base frequency table: an element's
    // draw weight is its document frequency, matching the corpus shape.
    let weighted: Vec<(ElemId, u64)> = coll
        .freqs()
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(e, &f)| (e as ElemId, f as u64))
        .collect();
    let total_weight: u64 = weighted.iter().map(|(_, w)| w).sum();
    let desc_len = if coll.is_empty() {
        3
    } else {
        (coll.objects().iter().map(|o| o.desc.len()).sum::<usize>() / coll.len()).max(1)
    };

    let mut next_id = coll.len() as ObjectId;
    // Ids currently alive: all base ids plus not-yet-deleted inserts.
    let mut alive: Vec<ObjectId> = (0..coll.len() as ObjectId).collect();

    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let want_write = rng.gen_bool(spec.write_fraction) || queries.is_empty();
        if !want_write {
            if let Some(q) = queries.pop() {
                out.push(Op::Query(q));
                continue;
            }
        }
        let want_insert =
            rng.gen_bool(spec.insert_fraction) || alive.is_empty() || total_weight == 0;
        if want_insert && total_weight > 0 {
            let st = domain.st + rng.gen_range(0..=span);
            let max_len = (span / 64).max(1);
            let end = (st + rng.gen_range(0..=max_len)).min(domain.end).max(st);
            let mut desc = Vec::with_capacity(desc_len);
            for _ in 0..desc_len {
                let mut pick = rng.gen_range(0..total_weight);
                for &(e, w) in &weighted {
                    if pick < w {
                        desc.push(e);
                        break;
                    }
                    pick -= w;
                }
            }
            if desc.is_empty() {
                continue;
            }
            let o = Object::new(next_id, st, end, desc);
            alive.push(next_id);
            next_id += 1;
            out.push(Op::Insert(o));
        } else if !alive.is_empty() {
            let victim = alive.swap_remove(rng.gen_range(0..alive.len()));
            out.push(Op::Delete(victim));
        }
    }
    out
}

/// The objects of `coll` as a catalog holds them after deletes and later
/// inserts: every third id a hole, and every id above half the largest one
/// renumbered 4,000,000 higher, far past the dense range.
pub fn with_sparse_ids(coll: &Collection) -> Collection {
    let half = coll.objects().iter().map(|o| o.id).max().unwrap_or(0) / 2;
    let survivors = coll.objects().iter().filter(|o| o.id % 3 != 0).cloned();
    Collection::new(
        survivors
            .map(|mut o| {
                if o.id > half {
                    o.id += 4_000_000;
                }
                o
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_ids_keep_two_thirds_and_lift_the_upper_half() {
        let coll = crate::generate(&crate::SyntheticConfig::default().scaled(0.001));
        let sparse = with_sparse_ids(&coll);
        let max = coll.objects().iter().map(|o| o.id).max().unwrap();
        for o in sparse.objects() {
            let id = if o.id > 4_000_000 {
                o.id - 4_000_000
            } else {
                o.id
            };
            assert!(id % 3 != 0 && (id > max / 2) == (o.id > 4_000_000));
        }
        let kept = coll.objects().iter().filter(|o| o.id % 3 != 0).count();
        assert_eq!(sparse.len(), kept);
    }
    use std::collections::HashSet;
    use tir_core::{BruteForce, TemporalIrIndex};

    fn coll() -> Collection {
        let mut objects = Vec::new();
        for i in 0..300u32 {
            let st = (i as u64 * 17) % 1000;
            objects.push(Object::new(i, st, st + 40, vec![i % 11, 11 + i % 5]));
        }
        Collection::new(objects)
    }

    #[test]
    fn stream_is_deterministic() {
        let c = coll();
        let spec = MixedSpec::default();
        assert_eq!(
            mixed_stream(&c, &spec, 200, 9),
            mixed_stream(&c, &spec, 200, 9)
        );
        assert_ne!(
            mixed_stream(&c, &spec, 200, 9),
            mixed_stream(&c, &spec, 200, 10)
        );
    }

    #[test]
    fn stream_replays_cleanly_against_oracle() {
        let c = coll();
        let spec = MixedSpec {
            write_fraction: 0.3,
            insert_fraction: 0.6,
            query: WorkloadSpec {
                num_elems: 2,
                ..Default::default()
            },
        };
        let ops = mixed_stream(&c, &spec, 500, 3);
        assert_eq!(ops.len(), 500);
        let mut oracle = BruteForce::build(c.objects());
        let mut catalog: Vec<Object> = c.objects().to_vec();
        let mut seen_ids: HashSet<ObjectId> = (0..c.len() as u32).collect();
        let mut writes = 0usize;
        for op in &ops {
            match op {
                Op::Query(q) => {
                    let _ = oracle.answer(q);
                }
                Op::Insert(o) => {
                    writes += 1;
                    assert!(seen_ids.insert(o.id), "id {} minted twice", o.id);
                    assert!(!o.desc.is_empty());
                    oracle.insert(o);
                    catalog.push(o.clone());
                }
                Op::Delete(id) => {
                    writes += 1;
                    let o = catalog
                        .iter()
                        .find(|o| o.id == *id)
                        .expect("delete of unknown id");
                    assert!(oracle.delete(&o.clone()), "delete of dead id {id}");
                }
            }
        }
        // Write fraction is approximately honoured.
        let frac = writes as f64 / ops.len() as f64;
        assert!((0.15..=0.45).contains(&frac), "write fraction {frac}");
    }

    #[test]
    fn fresh_ids_start_after_base_collection() {
        let c = coll();
        let ops = mixed_stream(&c, &MixedSpec::default(), 300, 5);
        for op in &ops {
            if let Op::Insert(o) = op {
                assert!(o.id >= c.len() as u32);
            }
        }
    }

    #[test]
    fn all_writes_when_fraction_is_one() {
        let c = coll();
        let spec = MixedSpec {
            write_fraction: 1.0,
            insert_fraction: 0.5,
            ..Default::default()
        };
        let ops = mixed_stream(&c, &spec, 100, 1);
        assert!(ops.iter().all(|op| !matches!(op, Op::Query(_))));
    }
}
