//! **irHINT, performance variant** (Section 4.1): a single HINT hierarchy
//! over the whole collection where every division stores a *temporal
//! inverted file* of its objects. Queries traverse the hierarchy bottom-up
//! and run a condition-specialized `QueryTemporalIF` in each relevant
//! division; HINT's duplicate avoidance makes the per-division outputs
//! disjoint.

use std::collections::HashMap;

use crate::collection::Collection;
use crate::freq::FreqTable;
use crate::index_trait::TemporalIrIndex;
use crate::method::Method;
use crate::types::{ElemId, Object, ObjectId, TimeTravelQuery, Timestamp};
use tir_hint::layout::refine_mode;
use tir_hint::{CheckMode, DivisionKind, Domain, Layout};
use tir_invidx::planner::{Kernel, Postings, QueryScratch};
use tir_invidx::{live, CompactTemporalInverted};

const KINDS: [DivisionKind; 4] = [
    DivisionKind::OrigIn,
    DivisionKind::OrigAft,
    DivisionKind::ReplIn,
    DivisionKind::ReplAft,
];

#[inline]
fn kidx(kind: DivisionKind) -> usize {
    match kind {
        DivisionKind::OrigIn => 0,
        DivisionKind::OrigAft => 1,
        DivisionKind::ReplIn => 2,
        DivisionKind::ReplAft => 3,
    }
}

/// Per-partition payload: one temporal inverted file per subdivision.
#[derive(Debug, Clone, Default)]
struct PartTifs {
    divs: [CompactTemporalInverted; 4],
}

impl PartTifs {
    fn size_bytes(&self) -> usize {
        self.divs
            .iter()
            .map(CompactTemporalInverted::size_bytes)
            .sum()
    }
}

#[derive(Debug, Clone, Default)]
struct Level {
    keys: Vec<u32>,
    parts: Vec<PartTifs>,
}

impl Level {
    fn get_or_insert(&mut self, j: u32) -> &mut PartTifs {
        match self.keys.binary_search(&j) {
            Ok(i) => &mut self.parts[i],
            Err(i) => {
                self.keys.insert(i, j);
                self.parts.insert(i, PartTifs::default());
                &mut self.parts[i]
            }
        }
    }
}

/// The performance-focused irHINT index.
#[derive(Debug, Clone)]
pub struct IrHintPerf {
    domain: Domain,
    layout: Layout,
    levels: Vec<Level>,
    freqs: FreqTable,
}

impl IrHintPerf {
    /// Builds with `m` chosen by the IR-aware cost heuristic
    /// [`crate::irhint_size::choose_m_ir`].
    ///
    /// The interval-only HINT cost model over-partitions composite
    /// indexes: it prices a relevant partition at one entry touch, but an
    /// irHINT division costs `|q.d|` directory probes while its
    /// first-element postings are already `freq(e*)/n` shorter than the
    /// division. The heuristic therefore targets a fixed number of objects
    /// per bottom partition (large for this variant, whose per-division
    /// probe is priciest).
    pub fn build(coll: &Collection) -> Self {
        Self::build_with_m(coll, crate::irhint_size::choose_m_ir(coll.len(), 2048))
    }

    /// Builds with an explicit number of levels.
    pub fn build_with_m(coll: &Collection, m: u32) -> Self {
        let d = coll.domain();
        let domain = Domain::new(d.st, d.end, m);
        let layout = Layout::new(m);

        // Buffer the division contents, then bulk-build each tIF.
        let mut buffers: HashMap<(u32, u32, usize), Vec<(u32, u32, u64, u64)>> = HashMap::new();
        for o in coll.objects() {
            let a = domain.cell(o.interval.st);
            let b = domain.cell(o.interval.end);
            layout.assign(a, b, |level, j, original| {
                let ends_inside = b <= domain.partition_last_cell(level, j);
                let kind = kind_of(original, ends_inside);
                let buf = buffers.entry((level, j, kidx(kind))).or_default();
                for &e in &o.desc {
                    buf.push((e, o.id, o.interval.st, o.interval.end));
                }
            });
        }
        let mut levels: Vec<Level> = (0..=m).map(|_| Level::default()).collect();
        let mut entries: Vec<((u32, u32, usize), Vec<(u32, u32, u64, u64)>)> =
            buffers.into_iter().collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        for ((level, j, k), mut buf) in entries {
            let part = levels[level as usize].get_or_insert(j);
            part.divs[k] = CompactTemporalInverted::build(&mut buf);
        }
        IrHintPerf {
            domain,
            layout,
            levels,
            freqs: FreqTable::from_counts(coll.freqs()),
        }
    }

    /// The number of levels minus one.
    pub fn m(&self) -> u32 {
        self.layout.m()
    }

    /// Total stored postings over all division tIFs (replication included).
    pub fn num_postings(&self) -> usize {
        self.levels
            .iter()
            .flat_map(|l| l.parts.iter())
            .flat_map(|p| p.divs.iter())
            .map(CompactTemporalInverted::num_postings)
            .sum()
    }

    /// Document frequency of an element as tracked by the planner.
    pub fn freq(&self, e: u32) -> u32 {
        self.freqs.get(e)
    }

    /// The discretized domain of the hierarchy.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Calls `f(level, j, kind, division tIF)` for every materialized
    /// division, in `(level, j, kind)` order (introspection for
    /// validators).
    pub fn for_each_division(
        &self,
        mut f: impl FnMut(u32, u32, DivisionKind, &CompactTemporalInverted),
    ) {
        for (li, lvl) in self.levels.iter().enumerate() {
            for (pi, &j) in lvl.keys.iter().enumerate() {
                for kind in KINDS {
                    // analyze:allow(unguarded-cast): level index is bounded by m <= 20
                    f(li as u32, j, kind, &lvl.parts[pi].divs[kidx(kind)]);
                }
            }
        }
    }

    /// Deliberately breaks the parallel-array invariant of the first
    /// non-empty division — used by `tir-check`'s property tests to prove
    /// the validator notices.
    #[cfg(feature = "testing")]
    pub fn testing_corrupt(&mut self) {
        for lvl in &mut self.levels {
            for part in &mut lvl.parts {
                for div in &mut part.divs {
                    if !div.is_empty() {
                        div.testing_corrupt_parallel();
                        return;
                    }
                }
            }
        }
    }

    /// `QueryTemporalIF` (Algorithm 5): Algorithm 1 on one division's tIF
    /// with the temporal comparisons reduced to `mode`.
    fn query_temporal_if(
        &self,
        div: &CompactTemporalInverted,
        plan: &[ElemId],
        mode: CheckMode,
        q_st: Timestamp,
        q_end: Timestamp,
        scratch: &mut QueryScratch,
        out: &mut Vec<ObjectId>,
    ) {
        // An empty plan answers nothing; returning beats panicking a
        // serving thread if a caller ever stops pre-checking.
        let Some((&first, rest)) = plan.split_first() else {
            return;
        };
        let p = div.postings(first);
        if p.is_empty() {
            return;
        }
        scratch.cands.clear();
        for i in 0..p.ids.len() {
            if !live(p.ids[i]) {
                continue;
            }
            let ok = match mode {
                CheckMode::None => true,
                CheckMode::Start => p.sts[i] <= q_end,
                CheckMode::End => p.ends[i] >= q_st,
                CheckMode::Both => p.sts[i] <= q_end && p.ends[i] >= q_st,
            };
            if ok {
                scratch.cands.push(p.ids[i]);
            }
        }
        scratch.note(Kernel::Merge, p.ids.len() as u64);
        for &e in rest {
            if scratch.cands.is_empty() {
                return;
            }
            scratch.intersect(Postings::Ids(div.postings(e).ids));
        }
        out.append(&mut scratch.cands);
    }
}

#[inline]
fn kind_of(original: bool, ends_inside: bool) -> DivisionKind {
    match (original, ends_inside) {
        (true, true) => DivisionKind::OrigIn,
        (true, false) => DivisionKind::OrigAft,
        (false, true) => DivisionKind::ReplIn,
        (false, false) => DivisionKind::ReplAft,
    }
}

impl TemporalIrIndex for IrHintPerf {
    fn name(&self) -> &'static str {
        Method::IrHintPerf.paper_name()
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
        let qa = self.domain.cell(q_st);
        let qb = self.domain.cell(q_end);
        self.layout
            .for_each_relevant_level(qa, qb, |level, f, l, fc, lc, mc| {
                let lvl = &self.levels[level as usize];
                let lo = lvl.keys.partition_point(|&k| k < f);
                for i in lo..lvl.keys.len() {
                    let j = lvl.keys[i];
                    if j > l {
                        break;
                    }
                    let checks = if j == f {
                        fc
                    } else if j == l {
                        lc
                    } else {
                        mc
                    };
                    let part = &lvl.parts[i];
                    for kind in KINDS {
                        let is_repl = matches!(kind, DivisionKind::ReplIn | DivisionKind::ReplAft);
                        let mode = if is_repl {
                            match checks.replicas {
                                Some(rm) => refine_mode(rm, kind),
                                None => continue,
                            }
                        } else {
                            refine_mode(checks.originals, kind)
                        };
                        let div = &part.divs[kidx(kind)];
                        if !div.is_empty() {
                            self.query_temporal_if(div, &plan, mode, q_st, q_end, scratch, out);
                        }
                    }
                }
            });
        scratch.plan = plan;
        scratch.take_into(out);
    }

    fn insert(&mut self, o: &Object) {
        let a = self.domain.cell(o.interval.st);
        let b = self.domain.cell(o.interval.end);
        let domain = self.domain;
        let levels = &mut self.levels;
        let desc = &o.desc;
        self.layout.assign(a, b, |level, j, original| {
            let ends_inside = b <= domain.partition_last_cell(level, j);
            let kind = kind_of(original, ends_inside);
            let part = levels[level as usize].get_or_insert(j);
            let div = &mut part.divs[kidx(kind)];
            for &e in desc {
                div.insert(e, o.id, o.interval.st, o.interval.end);
            }
        });
        for &e in desc {
            self.freqs.bump(e);
        }
    }

    fn delete(&mut self, o: &Object) -> bool {
        let a = self.domain.cell(o.interval.st);
        let b = self.domain.cell(o.interval.end);
        let domain = self.domain;
        let levels = &mut self.levels;
        let mut any = false;
        self.layout.assign(a, b, |level, j, original| {
            let ends_inside = b <= domain.partition_last_cell(level, j);
            let kind = kind_of(original, ends_inside);
            let lvl = &mut levels[level as usize];
            if let Ok(i) = lvl.keys.binary_search(&j) {
                let div = &mut lvl.parts[i].divs[kidx(kind)];
                for &e in &o.desc {
                    if div.tombstone(e, o.id) && original {
                        any = true;
                    }
                }
            }
        });
        if any {
            for &e in &o.desc {
                self.freqs.drop_one(e);
            }
        }
        any
    }

    fn size_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| {
                l.keys.capacity() * 4
                    + l.parts.iter().map(PartTifs::size_bytes).sum::<usize>()
                    + l.parts.capacity() * std::mem::size_of::<PartTifs>()
            })
            .sum::<usize>()
            + self.freqs.size_bytes()
    }

    fn insert_batch(&mut self, batch: &[Object]) {
        // Group the whole batch per division, then merge-rebuild each
        // touched division once.
        let domain = self.domain;
        let layout = self.layout;
        let mut buffers: HashMap<(u32, u32, usize), Vec<(u32, u32, u64, u64)>> = HashMap::new();
        for o in batch {
            let a = domain.cell(o.interval.st);
            let b = domain.cell(o.interval.end);
            layout.assign(a, b, |level, j, original| {
                let ends_inside = b <= domain.partition_last_cell(level, j);
                let kind = kind_of(original, ends_inside);
                let buf = buffers.entry((level, j, kidx(kind))).or_default();
                for &e in &o.desc {
                    buf.push((e, o.id, o.interval.st, o.interval.end));
                }
            });
            for &e in &o.desc {
                self.freqs.bump(e);
            }
        }
        for ((level, j, k), mut buf) in buffers {
            let part = self.levels[level as usize].get_or_insert(j);
            part.divs[k].merge_in(&mut buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::BruteForce;

    #[test]
    fn running_example_matches_table2_layout() {
        // With m = 3, the running example produces the divisions of
        // Figure 6 / Table 2; the query answer must be o2, o4, o7.
        let coll = Collection::running_example();
        let idx = IrHintPerf::build_with_m(&coll, 3);
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
            let idx = IrHintPerf::build_with_m(&coll, m);
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
    fn cost_model_build_works() {
        let coll = Collection::running_example();
        let idx = IrHintPerf::build(&coll);
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        let mut got = idx.query(&q);
        got.sort_unstable();
        assert_eq!(got, vec![1, 3, 6]);
    }

    #[test]
    fn updates_match_oracle() {
        let coll = Collection::running_example();
        let mut idx = IrHintPerf::build_with_m(&coll, 3);
        let mut bf = BruteForce::build(coll.objects());
        let o = Object::new(8, 4, 10, vec![0, 2]);
        idx.insert(&o);
        bf.insert(&o);
        assert!(idx.delete(coll.get(1)));
        bf.delete(coll.get(1));
        assert!(!idx.delete(coll.get(1)));
        for (st, end) in [(0u64, 15u64), (5, 9), (10, 12)] {
            for elems in [vec![0], vec![0, 2], vec![2]] {
                let q = TimeTravelQuery::new(st, end, elems);
                let mut got = idx.query(&q);
                got.sort_unstable();
                assert_eq!(got, bf.answer(&q));
            }
        }
    }

    #[test]
    fn replication_multiplies_description_size() {
        // Each assigned division stores |o.d| postings: the size-variant
        // motivation of Section 4.2.
        let coll = Collection::running_example();
        let idx = IrHintPerf::build_with_m(&coll, 3);
        let raw_postings: usize = coll.objects().iter().map(|o| o.desc.len()).sum();
        assert!(idx.num_postings() > raw_postings);
    }
}
