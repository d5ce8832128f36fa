//! **irHINT, size variant** (Section 4.2): a single HINT hierarchy where
//! every division keeps two decoupled structures — the plain interval
//! store of HINT (with all its optimizations, beneficial sorting included)
//! and a traditional inverted index holding only object ids. The temporal
//! information is stored once per division entry, shrinking the index at
//! the cost of probing two structures per division (Algorithm 6).

use std::collections::HashMap;

use crate::collection::Collection;
use crate::freq::FreqTable;
use crate::index_trait::TemporalIrIndex;
use crate::method::Method;
use crate::types::{ElemId, Object, ObjectId, TimeTravelQuery};
use tir_hint::{CheckMode, Hint, HintConfig, IntervalRecord};
use tir_invidx::planner::{Kernel, Postings, QueryScratch};
use tir_invidx::{live, CompactInverted};

type DivKey = (u32, u32, u8);

#[inline]
fn kind_u8(kind: tir_hint::DivisionKind) -> u8 {
    match kind {
        tir_hint::DivisionKind::OrigIn => 0,
        tir_hint::DivisionKind::OrigAft => 1,
        tir_hint::DivisionKind::ReplIn => 2,
        tir_hint::DivisionKind::ReplAft => 3,
    }
}

/// The size-focused irHINT index.
#[derive(Debug, Clone)]
pub struct IrHintSize {
    /// Interval store: a full-featured HINT over all objects.
    hint: Hint,
    /// Per-division inverted indexes (element → object ids).
    inv: HashMap<DivKey, CompactInverted>,
    freqs: FreqTable,
}

/// IR-aware choice of the number of HINT levels for composite indexes:
/// targets `per_part` objects per bottom-level partition, clamped to
/// `[2, 20]`. See [`crate::irhint_perf::IrHintPerf::build`] for why the
/// interval-only cost model over-partitions here.
pub fn choose_m_ir(n: usize, per_part: usize) -> u32 {
    let parts = (n as f64 / per_part.max(1) as f64).max(1.0);
    // analyze:allow(unguarded-cast): log2 of a value >= 1.0 is finite and non-negative, far below u32::MAX
    (parts.log2().ceil() as u32).clamp(2, 20)
}

impl IrHintSize {
    /// Builds with `m` chosen by the IR-aware cost heuristic
    /// [`choose_m_ir`] (smaller per-partition target than the performance
    /// variant: its per-division probes are cheaper, so finer partitions
    /// pay off).
    pub fn build(coll: &Collection) -> Self {
        Self::build_inner(coll, Some(choose_m_ir(coll.len(), 128)))
    }

    /// Builds with `m` chosen by the interval-only HINT cost model
    /// (kept for the ablation study).
    pub fn build_cost_model(coll: &Collection) -> Self {
        Self::build_inner(coll, None)
    }

    /// Builds with an explicit number of levels.
    pub fn build_with_m(coll: &Collection, m: u32) -> Self {
        Self::build_inner(coll, Some(m))
    }

    fn build_inner(coll: &Collection, m: Option<u32>) -> Self {
        let records: Vec<IntervalRecord> = coll
            .objects()
            .iter()
            .map(|o| IntervalRecord {
                id: o.id,
                st: o.interval.st,
                end: o.interval.end,
            })
            .collect();
        let d = coll.domain();
        let cfg = HintConfig {
            m,
            ..HintConfig::default()
        };
        let hint = Hint::build_with_domain(&records, d.st, d.end, cfg);

        let mut buffers: HashMap<DivKey, Vec<(u32, u32)>> = HashMap::new();
        for o in coll.objects() {
            let rec = IntervalRecord {
                id: o.id,
                st: o.interval.st,
                end: o.interval.end,
            };
            hint.divisions_of(&rec, |level, j, kind| {
                let buf = buffers.entry((level, j, kind_u8(kind))).or_default();
                for &e in &o.desc {
                    buf.push((e, o.id));
                }
            });
        }
        let inv = buffers
            .into_iter()
            .map(|(key, mut buf)| (key, CompactInverted::build(&mut buf)))
            .collect();
        IrHintSize {
            hint,
            inv,
            freqs: FreqTable::from_counts(coll.freqs()),
        }
    }

    /// The number of levels minus one.
    pub fn m(&self) -> u32 {
        self.hint.domain().m()
    }

    /// Total inverted postings (ids only) plus interval entries.
    pub fn num_postings(&self) -> usize {
        self.inv
            .values()
            .map(CompactInverted::num_postings)
            .sum::<usize>()
            + self.hint.num_entries()
    }

    /// Document frequency of an element as tracked by the planner.
    pub fn freq(&self, e: u32) -> u32 {
        self.freqs.get(e)
    }

    /// The interval store (introspection for validators).
    pub fn hint(&self) -> &Hint {
        &self.hint
    }

    /// Calls `f(level, j, kind code, inverted index)` for every
    /// materialized division inverted index, in unspecified order
    /// (introspection for validators). Kind codes follow
    /// `OrigIn=0, OrigAft=1, ReplIn=2, ReplAft=3`.
    pub fn for_each_division_index(&self, mut f: impl FnMut(u32, u32, u8, &CompactInverted)) {
        for (&(level, j, k), inv) in &self.inv {
            f(level, j, k, inv);
        }
    }

    /// `QueryIF` (Algorithm 6): intersect the division's temporal
    /// candidates (already sorted in `scratch.cands`) with the postings
    /// of every query element.
    fn query_if(
        &self,
        key: DivKey,
        scratch: &mut QueryScratch,
        plan: &[ElemId],
        out: &mut Vec<ObjectId>,
    ) {
        let Some(inv) = self.inv.get(&key) else {
            // No inverted index for this division: it contributes nothing,
            // and the candidates must not leak into the next division.
            scratch.cands.clear();
            return;
        };
        for &e in plan {
            if scratch.cands.is_empty() {
                return;
            }
            scratch.intersect(Postings::Ids(inv.postings(e)));
        }
        out.append(&mut scratch.cands);
    }
}

impl TemporalIrIndex for IrHintSize {
    fn name(&self) -> &'static str {
        Method::IrHintSize.paper_name()
    }

    fn query_into(&self, q: &TimeTravelQuery, scratch: &mut QueryScratch, out: &mut Vec<ObjectId>) {
        scratch.reset();
        self.freqs.plan_into(&q.elems, &mut scratch.plan);
        if scratch.plan.is_empty() {
            return;
        }
        // The plan is borrowed across the division visits while the
        // scratch is mutated, so move it out and restore it after.
        let plan = std::mem::take(&mut scratch.plan);
        let (q_st, q_end) = (q.interval.st, q.interval.end);
        self.hint.visit_relevant(q_st, q_end, |view, mode| {
            // Step 1 (range query on the interval store): collect the
            // division's temporally qualifying object ids.
            scratch.cands.clear();
            for (i, &id) in view.ids.iter().enumerate() {
                if !live(id) {
                    continue;
                }
                let ok = match mode {
                    CheckMode::None => true,
                    CheckMode::Start => view.sts[i] <= q_end,
                    CheckMode::End => view.ends[i] >= q_st,
                    CheckMode::Both => view.sts[i] <= q_end && view.ends[i] >= q_st,
                };
                if ok {
                    scratch.cands.push(id);
                }
            }
            scratch.note(Kernel::Merge, view.ids.len() as u64);
            if scratch.cands.is_empty() {
                return;
            }
            scratch.cands.sort_unstable();
            // Step 2: intersect with the division's inverted index.
            self.query_if(
                (view.level, view.j, kind_u8(view.kind)),
                scratch,
                &plan,
                out,
            );
        });
        scratch.plan = plan;
        scratch.take_into(out);
    }

    fn insert(&mut self, o: &Object) {
        let rec = IntervalRecord {
            id: o.id,
            st: o.interval.st,
            end: o.interval.end,
        };
        self.hint.insert(&rec);
        let inv = &mut self.inv;
        let desc = &o.desc;
        self.hint.divisions_of(&rec, |level, j, kind| {
            let e_inv = inv.entry((level, j, kind_u8(kind))).or_default();
            for &e in desc {
                e_inv.insert(e, o.id);
            }
        });
        for &e in desc {
            self.freqs.bump(e);
        }
    }

    fn delete(&mut self, o: &Object) -> bool {
        let rec = IntervalRecord {
            id: o.id,
            st: o.interval.st,
            end: o.interval.end,
        };
        let found = self.hint.delete(&rec);
        let inv = &mut self.inv;
        let desc = &o.desc;
        self.hint.divisions_of(&rec, |level, j, kind| {
            if let Some(e_inv) = inv.get_mut(&(level, j, kind_u8(kind))) {
                for &e in desc {
                    e_inv.tombstone(e, o.id);
                }
            }
        });
        if found {
            for &e in desc {
                self.freqs.drop_one(e);
            }
        }
        found
    }

    fn size_bytes(&self) -> usize {
        self.hint.size_bytes()
            + self
                .inv
                .values()
                .map(|i| i.size_bytes() + std::mem::size_of::<CompactInverted>() + 24)
                .sum::<usize>()
            + self.freqs.size_bytes()
    }

    fn insert_batch(&mut self, batch: &[Object]) {
        // Interval store: per-record inserts (one entry per division);
        // inverted part: one merge-rebuild per touched division.
        let mut buffers: HashMap<DivKey, Vec<(u32, u32)>> = HashMap::new();
        for o in batch {
            let rec = IntervalRecord {
                id: o.id,
                st: o.interval.st,
                end: o.interval.end,
            };
            self.hint.insert(&rec);
            self.hint.divisions_of(&rec, |level, j, kind| {
                let buf = buffers.entry((level, j, kind_u8(kind))).or_default();
                for &e in &o.desc {
                    buf.push((e, o.id));
                }
            });
            for &e in &o.desc {
                self.freqs.bump(e);
            }
        }
        for (key, mut buf) in buffers {
            self.inv.entry(key).or_default().merge_in(&mut buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irhint_perf::IrHintPerf;
    use crate::oracle::BruteForce;

    #[test]
    fn running_example() {
        let coll = Collection::running_example();
        let idx = IrHintSize::build_with_m(&coll, 3);
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        let mut got = idx.query(&q);
        got.sort_unstable();
        assert_eq!(got, vec![1, 3, 6]);
    }

    #[test]
    fn matches_oracle_on_example_grid() {
        let coll = Collection::running_example();
        let bf = BruteForce::build(coll.objects());
        for m in [0u32, 1, 2, 3, 4] {
            let idx = IrHintSize::build_with_m(&coll, m);
            for st in 0..16u64 {
                for end in st..16 {
                    for elems in [vec![0], vec![1], vec![2], vec![0, 2], vec![0, 1, 2]] {
                        let q = TimeTravelQuery::new(st, end, elems);
                        let mut got = idx.query(&q);
                        let n = got.len();
                        got.sort_unstable();
                        got.dedup();
                        assert_eq!(n, got.len(), "duplicates m={m} q={q:?}");
                        assert_eq!(got, bf.answer(&q), "m={m} q={q:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn size_variant_is_smaller_than_perf_variant() {
        // The whole point of Section 4.2: temporal data stored once per
        // division entry instead of once per (entry, element).
        let coll = Collection::running_example();
        let size = IrHintSize::build_with_m(&coll, 3);
        let perf = IrHintPerf::build_with_m(&coll, 3);
        assert!(
            size.size_bytes() < perf.size_bytes(),
            "size variant {} vs perf {}",
            size.size_bytes(),
            perf.size_bytes()
        );
    }

    #[test]
    fn updates_match_oracle() {
        let coll = Collection::running_example();
        let mut idx = IrHintSize::build_with_m(&coll, 3);
        let mut bf = BruteForce::build(coll.objects());
        let o = Object::new(8, 0, 3, vec![0, 1]);
        idx.insert(&o);
        bf.insert(&o);
        assert!(idx.delete(coll.get(5)));
        bf.delete(coll.get(5));
        assert!(!idx.delete(coll.get(5)));
        for (st, end) in [(0u64, 15u64), (5, 9), (0, 2)] {
            for elems in [vec![0], vec![0, 1], vec![2]] {
                let q = TimeTravelQuery::new(st, end, elems);
                let mut got = idx.query(&q);
                got.sort_unstable();
                assert_eq!(got, bf.answer(&q));
            }
        }
    }
}
