//! Validators for the temporal-IR indexes (`tir-core`).

use std::collections::{BTreeMap, BTreeSet};

use crate::{fail, nest, Validate, Violation};
use tir_core::hybrid::DualCopy;
use tir_core::postings::TemporalList;
use tir_core::sharding::Shard;
use tir_core::slicing::{SliceGrid, SlicedList};
use tir_core::tif_hint::HintParams;
use tir_core::{CompressedTif, IrHintPerf, IrHintSize, PerTerm, TermPartition, IMPACT_STRIDE};
use tir_hint::{DivisionKind, Hint};
use tir_invidx::{live, raw, ElemBitmaps, HybridPostings};

/// Validates one time-aware postings list (parallel arrays sorted by raw
/// object id, proper intervals). Returns the live-entry count.
fn check_temporal_list(
    path: &str,
    ids: &[u32],
    sts: &[u64],
    ends: &[u64],
    out: &mut Vec<Violation>,
) -> usize {
    if sts.len() != ids.len() || ends.len() != ids.len() {
        fail(
            out,
            path,
            format!(
                "parallel columns disagree: {} ids, {} starts, {} ends",
                ids.len(),
                sts.len(),
                ends.len()
            ),
        );
        return 0;
    }
    if !ids.windows(2).all(|w| raw(w[0]) < raw(w[1])) {
        fail(
            out,
            path,
            "postings not strictly ascending by raw id".into(),
        );
    }
    for i in 0..ids.len() {
        if sts[i] > ends[i] {
            fail(
                out,
                path,
                format!(
                    "id {}: inverted interval [{}, {}]",
                    raw(ids[i]),
                    sts[i],
                    ends[i]
                ),
            );
        }
    }
    ids.iter().filter(|&&id| live(id)).count()
}

/// Reports every element whose counted live postings (`what` says how
/// they were counted) disagree with the planner's frequency table.
fn check_freqs(
    prefix: &str,
    what: &str,
    counts: impl IntoIterator<Item = (u32, usize)>,
    freq: impl Fn(u32) -> u32,
    out: &mut Vec<Violation>,
) {
    for (e, count) in counts {
        if count != freq(e) as usize {
            fail(
                out,
                &format!("{prefix}/elem{e}"),
                format!("{count} {what}, planner tracks freq {}", freq(e)),
            );
        }
    }
}

/// What an index's dense-element bitmaps must hold, recomputed from its
/// postings alone: for every element that has a bitmap, one bit per live
/// posting in an *original* list (an irHINT's original divisions; every
/// list of an IR-first term, whose replicas live and die with their
/// original) — plus the largest id any posting carries, which the bitmaps'
/// universe must cover.
struct BitmapAudit {
    members: BTreeMap<u32, Vec<u64>>,
    max_id: Option<u32>,
}

impl BitmapAudit {
    fn new(bitmaps: &ElemBitmaps) -> Self {
        BitmapAudit {
            members: bitmaps.iter().map(|(e, _, _)| (e, Vec::new())).collect(),
            max_id: None,
        }
    }

    /// Records the postings one division stores for element `e`.
    fn list(&mut self, e: u32, ids: &[u32], original: bool) {
        self.max_id = self.max_id.max(ids.iter().map(|&id| raw(id)).max());
        let Some(words) = self.members.get_mut(&e).filter(|_| original) else {
            return;
        };
        for id in ids.iter().filter(|&&id| live(id)).map(|&id| raw(id)) {
            let w = id as usize / 64;
            if w >= words.len() {
                words.resize(w + 1, 0);
            }
            words[w] |= 1 << (id % 64);
        }
    }

    /// Reports every disagreement between the bitmaps and the postings.
    fn finish(self, prefix: &str, bitmaps: &ElemBitmaps, out: &mut Vec<Violation>) {
        nest(prefix, bitmaps.validate(), out);
        if let Some(id) = self.max_id.filter(|&id| id >= bitmaps.universe()) {
            fail(
                out,
                &format!("{prefix}/bitmaps"),
                format!(
                    "universe {} does not cover stored id {id}",
                    bitmaps.universe()
                ),
            );
        }
        let word = |words: &[u64], w: usize| words.get(w).copied().unwrap_or(0);
        for (e, _, got) in bitmaps.iter() {
            let want = &self.members[&e];
            let differs = (0..got.len().max(want.len())).find(|&w| word(got, w) != word(want, w));
            if let Some(w) = differs {
                let bit = (word(got, w) ^ word(want, w)).trailing_zeros();
                let (has, lacks) = if word(got, w) >> bit & 1 == 1 {
                    ("its bit set", "no live original posting")
                } else {
                    ("a live original posting", "no bit")
                };
                fail(
                    out,
                    &format!("{prefix}/bitmaps/elem{e}"),
                    format!("id {} has {has} but {lacks}", w * 64 + bit as usize),
                );
            }
        }
    }
}

/// Validates one term's slice copies — each replicated into every one of
/// the grid's slices its interval overlaps — and returns the number of
/// distinct live ids. `W = 1` is the hybrid's ⟨id, start⟩ copy, whose span
/// is only bounded below.
fn check_sliced<const W: usize>(
    path: &str,
    grid: &SliceGrid,
    sliced: &SlicedList<W>,
    out: &mut Vec<Violation>,
) -> usize {
    let k = grid.num_slices();
    let mut live_ids = BTreeSet::new();
    for (s, sub) in sliced.iter() {
        let path = format!("{path}/slice{s}");
        if s >= k {
            fail(
                out,
                &path,
                format!("slice index beyond the {k} configured slices"),
            );
        }
        let (ids, sts, ends) = (&sub.ids, sub.sts(), sub.cols.get(1));
        let clean_before = out.len();
        check_temporal_list(&path, ids, sts, ends.map_or(sts, |e| e), out);
        if out.len() != clean_before {
            continue;
        }
        for i in 0..ids.len() {
            // Each copy must sit inside its own interval's slice span.
            let lo = grid.slice_of(sts[i]);
            let hi = ends.map_or(k.saturating_sub(1), |ends| grid.slice_of(ends[i]));
            if !(lo..=hi).contains(&s) {
                fail(
                    out,
                    &path,
                    format!(
                        "id {}: copy outside its slice span [{lo}, {hi}]",
                        raw(ids[i])
                    ),
                );
            }
            if live(ids[i]) {
                live_ids.insert(raw(ids[i]));
            }
        }
    }
    live_ids.len()
}

/// Validates one shard; returns its live-entry count.
fn check_shard(path: &str, shard: &Shard, out: &mut Vec<Violation>) -> usize {
    let n = shard.ids.len();
    if shard.sts.len() != n || shard.ends.len() != n {
        fail(
            out,
            path,
            format!(
                "parallel columns disagree: {n} ids, {} starts, {} ends",
                shard.sts.len(),
                shard.ends.len()
            ),
        );
        return 0;
    }
    if !shard.sts.windows(2).all(|w| w[0] <= w[1]) {
        fail(out, path, "starts not ascending".into());
    }
    for k in 0..n {
        if shard.sts[k] > shard.ends[k] {
            fail(
                out,
                path,
                format!(
                    "id {}: inverted interval [{}, {}]",
                    raw(shard.ids[k]),
                    shard.sts[k],
                    shard.ends[k]
                ),
            );
        }
    }
    if shard.staircase {
        if !shard.ends.windows(2).all(|w| w[0] <= w[1]) {
            fail(out, path, "staircase shard with ends not ascending".into());
        }
        if !shard.impact.is_empty() {
            fail(out, path, "staircase shard carries an impact list".into());
        }
    } else {
        let want_blocks = n.div_ceil(IMPACT_STRIDE);
        if shard.impact.len() != want_blocks {
            fail(
                out,
                path,
                format!(
                    "impact list has {} blocks for {n} entries (want {want_blocks})",
                    shard.impact.len()
                ),
            );
        } else {
            for (b, chunk) in shard.ends.chunks(IMPACT_STRIDE).enumerate() {
                let max = chunk.iter().copied().max().unwrap_or(0);
                if shard.impact[b] != max {
                    fail(
                        out,
                        path,
                        format!(
                            "impact block {b} caches {}, block maximum end is {max}",
                            shard.impact[b]
                        ),
                    );
                }
            }
        }
    }
    shard.ids.iter().filter(|&&id| live(id)).count()
}

/// What the generic IR-first walk asks of a policy: validate one term.
trait CheckTerm: TermPartition {
    /// Validates the structure of term `e` under `path`; returns how many
    /// live objects it holds.
    fn check_term(
        &self,
        shared: &Self::Shared,
        e: u32,
        path: &str,
        out: &mut Vec<Violation>,
    ) -> usize;

    /// Validates the state the terms share.
    fn check_shared(_shared: &Self::Shared, _out: &mut Vec<Violation>) {}
}

/// Every IR-first index: each term sound in itself and holding as many live
/// objects as the planner's frequency table says, then the shared state,
/// then the dense-term bitmaps against every id list the terms store (and
/// none at all under a policy that opts out of them).
impl<P: CheckTerm> Validate for PerTerm<P> {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let method = P::method(self.shared());
        let mut audit = BitmapAudit::new(self.bitmaps());
        self.for_each_term(|e, term| {
            term.for_each_id_list(|ids| audit.list(e, ids, true));
            let path = format!("{method}/elem{e}");
            let (count, freq) = (
                term.check_term(self.shared(), e, &path, &mut out),
                self.freq(e),
            );
            if count != freq as usize {
                fail(
                    &mut out,
                    &path,
                    format!("{count} live objects stored, planner tracks freq {freq}"),
                );
            }
        });
        P::check_shared(self.shared(), &mut out);
        if P::DENSE_TERM_BITMAPS {
            audit.finish(&method.to_string(), self.bitmaps(), &mut out);
        } else if let Some((e, _, _)) = self.bitmaps().iter().next() {
            fail(
                &mut out,
                &format!("{method}/bitmaps/elem{e}"),
                "a dense-term bitmap under a policy that keeps none".into(),
            );
        }
        out
    }
}

impl CheckTerm for TemporalList {
    fn check_term(
        &self,
        containers: &HybridPostings,
        e: u32,
        path: &str,
        out: &mut Vec<Violation>,
    ) -> usize {
        let live_count = check_temporal_list(path, &self.ids, self.sts(), self.ends(), out);
        // The hybrid container mirror must agree list-for-list with
        // the temporal lists the planner intersects against.
        match containers.get(e) {
            None if live_count > 0 => fail(
                out,
                path,
                format!("{live_count} live postings but no hybrid container"),
            ),
            Some(c) if c.cardinality() as usize != live_count => fail(
                out,
                path,
                format!(
                    "hybrid container holds {} live ids, temporal list {live_count}",
                    c.cardinality()
                ),
            ),
            _ => {}
        }
        live_count
    }

    fn check_shared(containers: &HybridPostings, out: &mut Vec<Violation>) {
        out.extend(containers.validate());
    }
}

impl CheckTerm for SlicedList<2> {
    fn check_term(&self, grid: &SliceGrid, _: u32, path: &str, out: &mut Vec<Violation>) -> usize {
        check_sliced(path, grid, self, out)
    }
}

impl CheckTerm for Vec<Shard> {
    fn check_term(&self, _: &(), _: u32, path: &str, out: &mut Vec<Violation>) -> usize {
        let shards = self.iter().enumerate();
        shards
            .map(|(i, shard)| check_shard(&format!("{path}/shard{i}"), shard, out))
            .sum()
    }
}

impl CheckTerm for Hint {
    fn check_term(&self, _: &HintParams, _: u32, path: &str, out: &mut Vec<Violation>) -> usize {
        nest(path, self.validate(), out);
        self.len()
    }
}

impl CheckTerm for DualCopy {
    fn check_term(
        &self,
        (_, grid): &(HintParams, SliceGrid),
        _: u32,
        path: &str,
        out: &mut Vec<Violation>,
    ) -> usize {
        nest(&format!("{path}/hint"), self.hint.validate(), out);
        // Tombstone hygiene across the two copies: a delete must reach
        // every slice copy, so the distinct live ids of the sliced copy
        // are exactly the live intervals the HINT copy counts.
        let sliced = check_sliced(path, grid, &self.slices, out);
        if self.hint.len() != sliced {
            fail(
                out,
                path,
                format!(
                    "HINT copy holds {} live intervals, sliced copy {sliced} distinct live objects",
                    self.hint.len()
                ),
            );
        }
        sliced
    }
}

impl Validate for CompressedTif {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut live_count: BTreeMap<u32, usize> = BTreeMap::new();
        let mut seen_dead: BTreeSet<u32> = BTreeSet::new();
        self.for_each_base(|e, ids, triples| {
            let prefix = format!("ctif/elem{e}/base");
            let Some(triples) = triples else {
                fail(&mut out, &prefix, "id list without temporal triples".into());
                return;
            };
            let clean_before = out.len();
            nest(&prefix, ids.validate(), &mut out);
            nest(&prefix, triples.validate(), &mut out);
            if out.len() != clean_before {
                return; // the production decoders below assume sound streams
            }
            let mut decoded = Vec::with_capacity(ids.len());
            ids.for_each(|id| decoded.push(id));
            let mut temporal = Vec::with_capacity(triples.len());
            triples.for_each(|id, _, _| temporal.push(id));
            if decoded != temporal {
                fail(
                    &mut out,
                    &prefix,
                    format!(
                        "id blocks hold {} ids, temporal triples {}: the two base copies disagree",
                        decoded.len(),
                        temporal.len()
                    ),
                );
            }
            let live = live_count.entry(e).or_insert(0);
            for id in decoded {
                if self.dead().contains(&id) {
                    seen_dead.insert(id);
                } else {
                    *live += 1;
                }
            }
        });
        self.for_each_overlay(|e, list| {
            let path = format!("ctif/elem{e}/overlay");
            *live_count.entry(e).or_insert(0) +=
                check_temporal_list(&path, &list.ids, list.sts(), list.ends(), &mut out);
        });
        // Tombstone hygiene: the blacklist names base objects only —
        // overlay entries carry their own tombstone bit.
        for id in self.dead() {
            if !seen_dead.contains(id) {
                fail(
                    &mut out,
                    "ctif/dead",
                    format!("blacklisted id {id} is in no base list"),
                );
            }
        }
        check_freqs(
            "ctif",
            "live postings across base and overlay",
            live_count,
            |e| self.freq(e),
            &mut out,
        );
        out
    }
}

impl Validate for IrHintPerf {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let domain = self.domain();
        let mut orig_live: BTreeMap<u32, usize> = BTreeMap::new();
        let mut audit = BitmapAudit::new(self.bitmaps());
        self.for_each_division(|level, j, kind, div| {
            let prefix = format!("irhint_perf/level{level}/partition{j}/{}", kind.label());
            let nested = div.validate();
            let clean = nested.is_empty();
            nest(&prefix, nested, &mut out);
            if !clean {
                // The flat directory is unreliable; skip elementwise walks.
                return;
            }
            let fc = domain.partition_first_cell(level, j);
            let lc = domain.partition_last_cell(level, j);
            let (original, inside) = (!kind.is_replica(), kind.ends_inside());
            let offsets = div.offsets();
            for (ei, &e) in div.elements().iter().enumerate() {
                let (from, to) = (offsets[ei] as usize, offsets[ei + 1] as usize);
                for p in from..to {
                    let id = div.all_ids()[p];
                    let [sts, ends] = div.columns();
                    let (cs, ce) = (domain.cell(sts[p]), domain.cell(ends[p]));
                    if original && !(fc..=lc).contains(&cs) {
                        fail(
                            &mut out,
                            &prefix,
                            format!(
                                "elem {e} id {}: original with start cell {cs} outside partition [{fc}, {lc}]",
                                raw(id)
                            ),
                        );
                    }
                    if !original && cs >= fc {
                        fail(
                            &mut out,
                            &prefix,
                            format!(
                                "elem {e} id {}: replica with start cell {cs} not before partition [{fc}, {lc}]",
                                raw(id)
                            ),
                        );
                    }
                    if inside && ce > lc {
                        fail(
                            &mut out,
                            &prefix,
                            format!(
                                "elem {e} id {}: *_in entry with end cell {ce} after partition [{fc}, {lc}]",
                                raw(id)
                            ),
                        );
                    }
                    if !inside && ce <= lc {
                        fail(
                            &mut out,
                            &prefix,
                            format!(
                                "elem {e} id {}: *_aft entry with end cell {ce} inside partition [{fc}, {lc}]",
                                raw(id)
                            ),
                        );
                    }
                    if original && live(id) {
                        *orig_live.entry(e).or_insert(0) += 1;
                    }
                }
                audit.list(e, &div.all_ids()[from..to], original);
            }
        });
        audit.finish("irhint_perf", self.bitmaps(), &mut out);
        check_freqs(
            "irhint_perf",
            "live original postings across divisions",
            orig_live,
            |e| self.freq(e),
            &mut out,
        );
        out
    }
}

impl Validate for IrHintSize {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        nest("irhint_size/hint", self.hint().validate(), &mut out);

        // Live object ids stored in each interval-store division; every
        // live posting of the decoupled inverted side must reference one
        // of them (cross-structure agreement).
        let mut div_live: BTreeMap<(u32, u32, DivisionKind), BTreeSet<u32>> = BTreeMap::new();
        self.hint().for_each_division(|div, _dead| {
            let set = div_live.entry((div.level, div.j, div.kind)).or_default();
            for &id in div.ids {
                if live(id) {
                    set.insert(raw(id));
                }
            }
        });

        let mut orig_live: BTreeMap<u32, usize> = BTreeMap::new();
        let mut audit = BitmapAudit::new(self.bitmaps());
        self.for_each_division_index(|level, j, kind, inv| {
            let prefix = format!("irhint_size/level{level}/partition{j}/{}", kind.label());
            let nested = inv.validate();
            let clean = nested.is_empty();
            nest(&prefix, nested, &mut out);
            if !clean {
                return;
            }
            let stored = div_live.get(&(level, j, kind));
            let offsets = inv.offsets();
            for (ei, &e) in inv.elements().iter().enumerate() {
                let (from, to) = (offsets[ei] as usize, offsets[ei + 1] as usize);
                audit.list(e, &inv.all_ids()[from..to], !kind.is_replica());
                for p in from..to {
                    let id = inv.all_ids()[p];
                    if !live(id) {
                        continue;
                    }
                    if !stored.is_some_and(|s| s.contains(&raw(id))) {
                        fail(
                            &mut out,
                            &prefix,
                            format!(
                                "elem {e}: live posting {} absent from the interval store's division",
                                raw(id)
                            ),
                        );
                    }
                    if !kind.is_replica() {
                        *orig_live.entry(e).or_insert(0) += 1;
                    }
                }
            }
        });
        audit.finish("irhint_size", self.bitmaps(), &mut out);
        check_freqs(
            "irhint_size",
            "live original postings across divisions",
            orig_live,
            |e| self.freq(e),
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir_core::prelude::*;
    use tir_core::with_method;

    fn violations_of(m: Method, coll: &Collection) -> Vec<Violation> {
        with_method!(m, |I, build| build(coll).validate())
    }

    #[test]
    fn clean_indexes_validate() {
        let coll = Collection::running_example();
        for m in Method::ALL {
            let v = violations_of(m, &coll);
            assert!(v.is_empty(), "{m}: {v:?}");
        }
    }

    #[test]
    fn indexes_validate_after_updates() {
        fn updated<I: TemporalIrIndex + Validate>(
            mut index: I,
            coll: &Collection,
        ) -> Vec<Violation> {
            let victim = coll.objects()[0].clone();
            index.insert(&Object {
                id: 900,
                interval: Interval { st: 2, end: 11 },
                desc: victim.desc.clone(),
            });
            assert!(index.delete(&victim));
            index.validate()
        }
        let coll = Collection::running_example();
        for m in Method::ALL {
            let v = with_method!(m, |I, build| updated(build(&coll), &coll));
            assert!(v.is_empty(), "{m}: {v:?}");
        }
    }

    #[test]
    fn new_validators_report_a_reused_live_id() {
        // Re-inserting a live id is the one corruption the public API can
        // cause: it duplicates the posting in the slice copy / overlay.
        let coll = Collection::running_example();
        let twice = Object::new(900, 2, 11, vec![0, 2]);
        let mut hybrid = TifHintSlicing::build(&coll);
        let mut ctif = CompressedTif::build(&coll);
        for _ in 0..2 {
            hybrid.insert(&twice);
            ctif.insert(&twice);
        }
        assert!(!hybrid.validate().is_empty());
        assert!(!ctif.validate().is_empty());
    }

    #[test]
    fn empty_collection_validates() {
        let coll = Collection::new(Vec::new());
        for m in Method::ALL {
            let v = violations_of(m, &coll);
            assert!(v.is_empty(), "{m}: {v:?}");
        }
    }
}
