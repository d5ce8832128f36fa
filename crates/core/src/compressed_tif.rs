//! **cTIF** — a compressed temporal inverted file (extension).
//!
//! Section 7 of the paper leaves inverted-file compression as future
//! work; this policy explores it on the IR-first skeleton: the bulk of
//! every term's postings is held delta-compressed and immutable — ids as
//! stream-vbyte blocks with uncompressed skip bounds, temporal triples as
//! varint streams — while updates go to a small uncompressed overlay
//! (LSM-style). A conjunction step is one planner run round: base blocks
//! whose bounds cannot meet the candidate set are skipped, the rest are
//! decoded one at a time as id-sorted runs, and the overlay is one run
//! more; a delete tombstones the overlay entry directly, or else lists the
//! id among the term's dead base ids.

use crate::collection::Collection;
use crate::method::Method;
use crate::per_term::{PerTerm, TermPartition};
use crate::types::Interval;
use tir_hint::IntervalRecord;
use tir_invidx::compress::{BlockPostings, CompressedTemporalPostings};
use tir_invidx::planner::QueryScratch;
use tir_invidx::{TemporalList, TOMBSTONE};

/// One term of cTIF: a compressed base in two forms, an overlay, and the
/// base ids deleted since the build.
#[derive(Debug, Clone, Default)]
pub struct CompressedList {
    /// The base ids as blocks, for conjunction steps.
    pub ids: BlockPostings,
    /// The same base as `(id, start, end)` triples, for the seed step.
    pub temporal: CompressedTemporalPostings,
    /// Postings inserted since the build, uncompressed.
    pub overlay: TemporalList,
    /// The base ids deleted since the build, strictly ascending.
    pub dead: Vec<u32>,
}

/// The compressed temporal inverted file. Its terms share nothing.
pub type CompressedTif = PerTerm<CompressedList>;

impl CompressedTif {
    /// Builds the compressed base from a collection.
    pub fn build(coll: &Collection) -> Self {
        Self::build_with(coll, ())
    }
}

impl CompressedList {
    fn is_dead(&self, id: u32) -> bool {
        self.dead.binary_search(&id).is_ok()
    }
}

impl TermPartition for CompressedList {
    type Shared = ();

    fn method(_: &()) -> Method {
        Method::Ctif
    }

    fn build(_: &(), records: &[IntervalRecord]) -> Self {
        let ids: Vec<u32> = records.iter().map(|r| r.id).collect();
        let sts: Vec<u64> = records.iter().map(|r| r.st).collect();
        let ends: Vec<u64> = records.iter().map(|r| r.end).collect();
        CompressedList {
            ids: BlockPostings::encode(&ids),
            temporal: CompressedTemporalPostings::encode(&ids, &sts, &ends),
            overlay: TemporalList::default(),
            dead: Vec::new(),
        }
    }

    fn insert(&mut self, _: &(), r: &IntervalRecord) {
        self.overlay.insert(r.id, [r.st, r.end]);
    }

    /// Overlay first; if the id is not alive there, the base entry dies.
    fn tombstone(&mut self, _: &(), r: &IntervalRecord) -> bool {
        if self.overlay.tombstone(r.id) {
            return true;
        }
        match self.dead.binary_search(&r.id) {
            Err(pos) if self.ids.contains(r.id) => {
                self.dead.insert(pos, r.id);
                true
            }
            _ => false,
        }
    }

    /// The temporal filter over the base triples, skipping dead ids with
    /// one cursor (both ascend), then over the overlay.
    fn seed_into(&self, _: &(), q: Interval, scratch: &mut QueryScratch) -> u64 {
        let cands = &mut scratch.cands;
        let (mut scanned, mut d) = (0u64, 0usize);
        self.temporal.for_each(|id, st, end| {
            scanned += 1;
            while d < self.dead.len() && self.dead[d] < id {
                d += 1;
            }
            if st <= q.end && end >= q.st && self.dead.get(d) != Some(&id) {
                cands.push(id);
            }
        });
        scanned += self.overlay.seed_overlap_into(q.st, q.end, cands) as u64;
        cands.sort_unstable();
        cands.dedup();
        scanned
    }

    /// One run round: the base blocks that can meet the candidates, each
    /// decoded with its dead ids tombstoned, then the overlay.
    fn restrict(&self, _: &(), _: Interval, scratch: &mut QueryScratch) {
        scratch.intersect_runs(|runs| {
            runs.mark_blocks(&self.ids, &self.dead);
            if !self.overlay.is_empty() {
                runs.mark_run(&self.overlay.ids);
            }
        });
    }

    /// The decoded base with its dead ids tombstoned, then the overlay.
    fn for_each_id_list(&self, mut f: impl FnMut(&[u32])) {
        let mut base = Vec::with_capacity(self.ids.len());
        self.ids.for_each(|id| {
            base.push(if self.is_dead(id) { id | TOMBSTONE } else { id });
        });
        f(&base);
        f(&self.overlay.ids);
    }

    fn size_bytes(&self) -> usize {
        self.ids.size_bytes()
            + self.temporal.size_bytes()
            + self.overlay.size_bytes()
            + std::mem::size_of::<TemporalList>()
            + self.dead.capacity() * 4
            + std::mem::size_of::<Vec<u32>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_trait::TemporalIrIndex;
    use crate::oracle::BruteForce;
    use crate::tif::Tif;
    use crate::types::{Object, TimeTravelQuery};

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
    fn delete_unknown_object_is_false() {
        let coll = Collection::running_example();
        let mut idx = CompressedTif::build(&coll);
        assert!(!idx.delete(&Object::new(77, 0, 5, vec![0])));
    }

    /// Term 1 holds ids 0..1024 in eight blocks of 128, `[128k, 128k + 127]`;
    /// the seed term 0 holds four ids in blocks 1 and 2. Ids 128 and 255 —
    /// block 1's first and last — come back without term 1, so the base
    /// lists them dead while they stay candidates; id 200 comes back with
    /// term 1, dead in the base and live in the overlay.
    #[test]
    fn a_step_decodes_only_the_blocks_its_candidates_meet() {
        let seed = [128u32, 200, 255, 300];
        let objects: Vec<Object> = (0..1024u32)
            .map(|i| {
                let desc = if seed.contains(&i) {
                    vec![0, 1]
                } else {
                    vec![1]
                };
                Object::new(i, u64::from(i), u64::from(i) + 10, desc)
            })
            .collect();
        let coll = Collection::new(objects);
        let mut idx = CompressedTif::build(&coll);
        idx.drop_bitmaps();
        let mut bf = BruteForce::build(coll.objects());
        for (id, desc) in [(128, vec![0]), (255, vec![0]), (200, vec![0, 1])] {
            assert!(idx.delete(coll.get(id)));
            bf.delete(coll.get(id));
            let back = Object::new(id, 5, 2000, desc);
            idx.insert(&back);
            bf.insert(&back);
        }
        let term = &idx.terms[&1];
        assert_eq!(term.ids.num_blocks(), 8);
        assert_eq!(term.dead, vec![128, 200, 255]);
        assert_eq!(
            (term.ids.block_first(1), term.ids.block_last(1)),
            (128, 255)
        );

        let mut scratch = QueryScratch::default();
        for (st, end) in [(0, 5000), (5, 5), (150, 260), (290, 400)] {
            let q = TimeTravelQuery::new(st, end, vec![0, 1]);
            let mut got = Vec::new();
            idx.query_into(&q, &mut scratch, &mut got);
            got.sort_unstable();
            assert_eq!(got, bf.answer(&q), "q={q:?}");
        }
        let q = TimeTravelQuery::new(0, 5000, vec![0, 1]);
        let mut got = Vec::new();
        idx.query_into(&q, &mut scratch, &mut got);
        assert_eq!(got, vec![200, 300]);
        let st = scratch.last_stats();
        assert_eq!(st.blocks_decoded, 2, "blocks 0 and 3..8 are skipped");
        // Three candidates against block 1's 128 ids, one against block
        // 2's: both windows are under 1/8 of their block.
        assert!(st.gallop_steps > 0, "{st:?}");
        assert_eq!(st.kernel_scanned_sum(), st.scanned);
    }

    #[test]
    fn contract() {
        crate::per_term::contract::holds("ctif", CompressedTif::build);
    }
}
