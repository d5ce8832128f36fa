//! **cTIF** — a compressed temporal inverted file (extension).
//!
//! Section 7 of the paper leaves inverted-file compression as future
//! work; this index explores it: the bulk of every postings list is held
//! delta-compressed and immutable — id lists as stream-vbyte blocks with
//! uncompressed skip bounds, temporal triples as varint streams — while
//! updates go to a small uncompressed overlay (LSM-style). Queries
//! consult both sides, skipping base blocks whose bounds cannot meet the
//! candidate set and decoding the rest block-at-a-time into the scratch
//! buffer; deletes tombstone overlay entries directly and blacklist base
//! entries.

use std::collections::{HashMap, HashSet};

use crate::collection::Collection;
use crate::freq::FreqTable;
use crate::index_trait::TemporalIrIndex;
use crate::method::Method;
use crate::postings::TemporalList;
use crate::types::{Object, ObjectId, TimeTravelQuery};
use tir_invidx::compress::{BlockPostings, CompressedTemporalPostings};
use tir_invidx::intersect_merge_into;
use tir_invidx::planner::{Kernel, QueryScratch};

/// The compressed temporal inverted file.
#[derive(Debug, Clone, Default)]
pub struct CompressedTif {
    /// Immutable compressed lists: block-coded ids for intersections,
    /// temporal triples for the first-element filter.
    base_ids: HashMap<u32, BlockPostings>,
    base_temporal: HashMap<u32, CompressedTemporalPostings>,
    /// Dynamic uncompressed overlay.
    overlay: HashMap<u32, TemporalList>,
    /// Objects deleted from the immutable base.
    dead: HashSet<ObjectId>,
    freqs: FreqTable,
}

impl CompressedTif {
    /// Builds the compressed base from a collection.
    pub fn build(coll: &Collection) -> Self {
        let mut per_elem: HashMap<u32, (Vec<u32>, Vec<u64>, Vec<u64>)> = HashMap::new();
        for o in coll.objects() {
            for &e in &o.desc {
                let entry = per_elem.entry(e).or_default();
                entry.0.push(o.id);
                entry.1.push(o.interval.st);
                entry.2.push(o.interval.end);
            }
        }
        let mut base_ids = HashMap::with_capacity(per_elem.len());
        let mut base_temporal = HashMap::with_capacity(per_elem.len());
        for (e, (ids, sts, ends)) in per_elem {
            base_ids.insert(e, BlockPostings::encode(&ids));
            base_temporal.insert(e, CompressedTemporalPostings::encode(&ids, &sts, &ends));
        }
        CompressedTif {
            base_ids,
            base_temporal,
            overlay: HashMap::new(),
            dead: HashSet::new(),
            freqs: FreqTable::from_counts(coll.freqs()),
        }
    }

    /// Compressed-base bytes (the number the compression future-work
    /// question cares about).
    pub fn base_size_bytes(&self) -> usize {
        self.base_ids
            .values()
            .map(|c| c.size_bytes() + 16)
            .sum::<usize>()
            + self
                .base_temporal
                .values()
                .map(|c| c.size_bytes() + 16)
                .sum::<usize>()
    }

    /// Document frequency of an element as tracked by the planner.
    pub fn freq(&self, e: u32) -> u32 {
        self.freqs.get(e)
    }

    /// Calls `f(element, ids, triples)` for every compressed base list,
    /// in unspecified element order (introspection for validators).
    pub fn for_each_base(
        &self,
        mut f: impl FnMut(u32, &BlockPostings, Option<&CompressedTemporalPostings>),
    ) {
        for (&e, ids) in &self.base_ids {
            f(e, ids, self.base_temporal.get(&e));
        }
    }

    /// Calls `f(element, list)` for every overlay list, in unspecified
    /// element order (introspection for validators).
    pub fn for_each_overlay(&self, mut f: impl FnMut(u32, &TemporalList)) {
        for (&e, list) in &self.overlay {
            f(e, list);
        }
    }

    /// The base objects deleted so far (introspection for validators).
    pub fn dead(&self) -> &HashSet<ObjectId> {
        &self.dead
    }
}

impl TemporalIrIndex for CompressedTif {
    fn name(&self) -> &'static str {
        Method::Ctif.paper_name()
    }

    fn query_into(&self, q: &TimeTravelQuery, scratch: &mut QueryScratch, out: &mut Vec<ObjectId>) {
        scratch.reset();
        self.freqs.plan_into(&q.elems, &mut scratch.plan);
        if scratch.plan.is_empty() {
            return;
        }
        let (q_st, q_end) = (q.interval.st, q.interval.end);

        // Least frequent element: temporal filter over base + overlay.
        let first = scratch.plan[0];
        let mut scanned = 0u64;
        if let Some(base) = self.base_temporal.get(&first) {
            let cands = &mut scratch.cands;
            base.for_each(|id, st, end| {
                scanned += 1;
                if st <= q_end && end >= q_st && !self.dead.contains(&id) {
                    cands.push(id);
                }
            });
        }
        if let Some(over) = self.overlay.get(&first) {
            scanned += over.seed_overlap_into(q_st, q_end, &mut scratch.cands) as u64;
        }
        scratch.note(Kernel::Merge, scanned);
        scratch.cands.sort_unstable();
        scratch.cands.dedup();

        // Remaining elements: block-at-a-time intersection against the
        // base ids, merged with the overlay hits. Blocks whose skip
        // bounds cannot meet the candidates are never decoded; decoded
        // blocks land in the scratch decode buffer and go through the
        // dispatched merge kernel.
        let mut hits = scratch.take_aux();
        let mut blk = scratch.take_blk();
        for pi in 1..scratch.plan.len() {
            if scratch.cands.is_empty() {
                break;
            }
            let e = scratch.plan[pi];
            hits.clear();
            if let Some(base) = self.base_ids.get(&e) {
                let st = base.intersect_into(&scratch.cands, &mut hits, &mut blk);
                hits.retain(|id| !self.dead.contains(id));
                let k = if st.vector {
                    Kernel::SimdMerge
                } else {
                    Kernel::Merge
                };
                scratch.note(k, st.scanned);
                scratch.note_blocks(st.blocks_decoded);
            }
            if let Some(over) = self.overlay.get(&e) {
                intersect_merge_into(&scratch.cands, &over.ids, &mut hits);
                scratch.note(Kernel::Merge, (scratch.cands.len() + over.ids.len()) as u64);
            }
            hits.sort_unstable();
            hits.dedup();
            std::mem::swap(&mut scratch.cands, &mut hits);
        }
        scratch.put_blk(blk);
        scratch.put_aux(hits);
        scratch.take_into(out);
    }

    fn insert(&mut self, o: &Object) {
        for &e in &o.desc {
            self.overlay
                .entry(e)
                .or_default()
                .insert(o.id, [o.interval.st, o.interval.end]);
            self.freqs.bump(e);
        }
    }

    fn delete(&mut self, o: &Object) -> bool {
        // Overlay first; if absent there, blacklist the base entry.
        let mut any = false;
        let mut in_overlay = false;
        for &e in &o.desc {
            if let Some(list) = self.overlay.get_mut(&e) {
                if list.tombstone(o.id) {
                    in_overlay = true;
                    any = true;
                    self.freqs.drop_one(e);
                }
            }
        }
        if !in_overlay {
            let in_base = self
                .base_ids
                .get(o.desc.first().unwrap_or(&u32::MAX))
                .map(|c| c.contains(o.id))
                .unwrap_or(false);
            if in_base && self.dead.insert(o.id) {
                for &e in &o.desc {
                    self.freqs.drop_one(e);
                }
                any = true;
            }
        }
        any
    }

    fn size_bytes(&self) -> usize {
        self.base_size_bytes()
            + self
                .overlay
                .values()
                .map(|l| l.size_bytes() + std::mem::size_of::<TemporalList>() + 16)
                .sum::<usize>()
            + self.dead.len() * 8
            + self.freqs.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::BruteForce;
    use crate::tif::Tif;

    #[test]
    fn running_example() {
        let coll = Collection::running_example();
        let idx = CompressedTif::build(&coll);
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        let mut got = idx.query(&q);
        got.sort_unstable();
        assert_eq!(got, vec![1, 3, 6]);
    }

    #[test]
    fn matches_oracle_on_example_grid() {
        let coll = Collection::running_example();
        let idx = CompressedTif::build(&coll);
        let bf = BruteForce::build(coll.objects());
        for st in 0..16u64 {
            for end in st..16 {
                for elems in [vec![0], vec![2], vec![0, 2], vec![0, 1, 2]] {
                    let q = TimeTravelQuery::new(st, end, elems);
                    let mut got = idx.query(&q);
                    got.sort_unstable();
                    assert_eq!(got, bf.answer(&q), "q={q:?}");
                }
            }
        }
    }

    #[test]
    fn compressed_base_is_smaller_than_plain_tif() {
        // Dense sequential ids compress well: this is the point.
        let objects: Vec<Object> = (0..5000u32)
            .map(|i| {
                Object::new(
                    i,
                    (i as u64) * 3,
                    (i as u64) * 3 + 50,
                    vec![i % 5, 5 + i % 7],
                )
            })
            .collect();
        let coll = Collection::new(objects);
        let plain = Tif::build(&coll);
        let compressed = CompressedTif::build(&coll);
        assert!(
            compressed.size_bytes() < plain.size_bytes() / 2,
            "compressed {} vs plain {}",
            compressed.size_bytes(),
            plain.size_bytes()
        );
    }

    #[test]
    fn overlay_updates_match_oracle() {
        let coll = Collection::running_example();
        let mut idx = CompressedTif::build(&coll);
        let mut bf = BruteForce::build(coll.objects());
        // Insert into the overlay.
        let o = Object::new(8, 4, 11, vec![0, 2]);
        idx.insert(&o);
        bf.insert(&o);
        // Delete one base object and the overlay object.
        assert!(idx.delete(coll.get(3)));
        bf.delete(coll.get(3));
        assert!(!idx.delete(coll.get(3)), "idempotent");
        assert!(idx.delete(&o));
        bf.delete(&o);
        for st in 0..16u64 {
            for elems in [vec![0, 2], vec![2]] {
                let q = TimeTravelQuery::new(st, st + 4, elems);
                let mut got = idx.query(&q);
                got.sort_unstable();
                assert_eq!(got, bf.answer(&q), "q={q:?}");
            }
        }
    }

    #[test]
    fn delete_unknown_object_is_false() {
        let coll = Collection::running_example();
        let mut idx = CompressedTif::build(&coll);
        assert!(!idx.delete(&Object::new(77, 0, 5, vec![0])));
    }
}
