//! Validators for the temporal-IR indexes (`tir-core`).

use std::collections::{BTreeMap, BTreeSet};

use crate::hint_checks::{check_interval_division, DivisionAt};
use crate::invidx_checks::check_columns;
use crate::{fail, nest, Validate, Violation};
use tir_core::compressed_tif::CompressedList;
use tir_core::hybrid::DualCopy;
use tir_core::irhint::Decoupled;
use tir_core::sharding::Shard;
use tir_core::slicing::{SliceGrid, SlicedList};
use tir_core::tif_hint::HintParams;
use tir_core::{DivisionStore, IrHint, PerTerm, TermPartition, IMPACT_STRIDE};
use tir_hint::{DivisionOrder, Hint};
use tir_invidx::{live, raw, CompactTemporalInverted, ElemBitmaps, TemporalList};

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
        check_columns(&path, sub, out);
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
    let Some(alive) = check_columns(path, &shard.entries, out) else {
        return 0;
    };
    let (n, ends) = (shard.entries.len(), shard.entries.ends());
    if shard.staircase {
        if !ends.windows(2).all(|w| w[0] <= w[1]) {
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
            for (b, chunk) in ends.chunks(IMPACT_STRIDE).enumerate() {
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
    alive
}

/// What the generic IR-first walk asks of a policy: validate one term.
trait CheckTerm: TermPartition {
    /// Validates the structure of one term under `path`; returns how many
    /// live objects it holds.
    fn check_term(&self, shared: &Self::Shared, path: &str, out: &mut Vec<Violation>) -> usize;
}

/// Every IR-first index: each term sound in itself and holding as many live
/// objects as the planner's frequency table says, then the dense-term
/// bitmaps against every id list the terms store.
impl<P: CheckTerm> Validate for PerTerm<P> {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let method = P::method(self.shared()).to_string();
        let mut audit = BitmapAudit::new(self.bitmaps());
        let mut counts = Vec::new();
        self.for_each_term(|e, term| {
            term.for_each_id_list(|ids| audit.list(e, ids, true));
            let path = format!("{method}/elem{e}");
            counts.push((e, term.check_term(self.shared(), &path, &mut out)));
        });
        audit.finish(&method, self.bitmaps(), &mut out);
        let what = "live objects stored";
        check_freqs(&method, what, counts, |e| self.freq(e), &mut out);
        out
    }
}

impl CheckTerm for TemporalList {
    fn check_term(&self, _: &(), path: &str, out: &mut Vec<Violation>) -> usize {
        check_columns(path, self, out).unwrap_or(0)
    }
}

impl CheckTerm for SlicedList<2> {
    fn check_term(&self, grid: &SliceGrid, path: &str, out: &mut Vec<Violation>) -> usize {
        check_sliced(path, grid, self, out)
    }
}

impl CheckTerm for Vec<Shard> {
    fn check_term(&self, _: &(), path: &str, out: &mut Vec<Violation>) -> usize {
        let shards = self.iter().enumerate();
        shards
            .map(|(i, shard)| check_shard(&format!("{path}/shard{i}"), shard, out))
            .sum()
    }
}

impl CheckTerm for Hint {
    fn check_term(&self, _: &HintParams, path: &str, out: &mut Vec<Violation>) -> usize {
        nest(path, self.validate(), out);
        self.len()
    }
}

impl CheckTerm for DualCopy {
    fn check_term(
        &self,
        (_, grid): &(HintParams, SliceGrid),
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

/// cTIF: both base streams sound and decoding to the same ids, the dead
/// ids a subset of those, and a sound overlay.
impl CheckTerm for CompressedList {
    fn check_term(&self, _: &(), path: &str, out: &mut Vec<Violation>) -> usize {
        let overlay = format!("{path}/overlay");
        let live_overlay = check_columns(&overlay, &self.overlay, out).unwrap_or(0);
        let base = format!("{path}/base");
        let clean_before = out.len();
        nest(&base, self.ids.validate(), out);
        nest(&base, self.temporal.validate(), out);
        if out.len() != clean_before {
            return live_overlay; // the production decoders below assume sound streams
        }
        let mut decoded = Vec::with_capacity(self.ids.len());
        self.ids.for_each(|id| decoded.push(id));
        let mut temporal = Vec::with_capacity(self.temporal.len());
        self.temporal.for_each(|id, _, _| temporal.push(id));
        if decoded != temporal {
            fail(
                out,
                &base,
                format!(
                    "id blocks hold {} ids, temporal triples {}: the two base copies disagree",
                    decoded.len(),
                    temporal.len()
                ),
            );
        }
        // Tombstone hygiene: the dead list names base ids only — overlay
        // entries carry their own tombstone bit.
        let dead = format!("{path}/dead");
        if !self.dead.windows(2).all(|w| w[0] < w[1]) {
            fail(out, &dead, "dead ids not strictly ascending".into());
        }
        let mut dead_in_base = 0;
        for id in &self.dead {
            if decoded.binary_search(id).is_ok() {
                dead_in_base += 1;
            } else {
                fail(out, &dead, format!("dead id {id} is not in the base"));
            }
        }
        decoded.len().saturating_sub(dead_in_base) + live_overlay
    }
}

/// What the generic irHINT walk asks of a division store: validate one
/// division, and name the elements whose lists it stores.
trait CheckDivision: DivisionStore {
    /// Validates the division `at` under `path`; returns false if its id
    /// lists are too broken to walk.
    fn check_division(&self, at: &DivisionAt, path: &str, out: &mut Vec<Violation>) -> bool;

    /// The elements the division stores a list for.
    fn listed(&self) -> &[u32];
}

/// Every irHINT: each division sound in itself, each element's live
/// original postings as many as the planner's frequency table says, then
/// the dense-element bitmaps against every list the divisions store.
impl<D: CheckDivision> Validate for IrHint<D> {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let method = D::METHOD.to_string();
        let domain = self.domain();
        let mut orig_live: BTreeMap<u32, usize> = BTreeMap::new();
        let mut audit = BitmapAudit::new(self.bitmaps());
        self.for_each_division(|level, j, kind, div| {
            let path = format!("{method}/level{level}/partition{j}/{}", kind.label());
            let at = DivisionAt {
                domain,
                level,
                j,
                kind,
            };
            if !div.check_division(&at, &path, &mut out) {
                return;
            }
            let original = !kind.is_replica();
            for &e in div.listed() {
                let ids = div.ids_of(e);
                audit.list(e, ids, original);
                if original {
                    *orig_live.entry(e).or_insert(0) += ids.iter().filter(|&&id| live(id)).count();
                }
            }
        });
        audit.finish(&method, self.bitmaps(), &mut out);
        check_freqs(
            &method,
            "live original postings across divisions",
            orig_live,
            |e| self.freq(e),
            &mut out,
        );
        out
    }
}

/// irHINT-perf: a sound flat tIF whose every posting obeys the division's
/// placement rule.
impl CheckDivision for CompactTemporalInverted {
    fn check_division(&self, at: &DivisionAt, path: &str, out: &mut Vec<Violation>) -> bool {
        let nested = self.validate();
        if !nested.is_empty() {
            // The flat directory is unreliable; skip elementwise walks.
            nest(path, nested, out);
            return false;
        }
        for (i, &e) in self.elements().iter().enumerate() {
            for p in self.elem_run(i) {
                let (id, [st, end]) = self.list().entry_at(p);
                at.check_entry(path, (Some(e), id), Some(st), Some(end), out);
            }
        }
        true
    }

    fn listed(&self) -> &[u32] {
        self.elements()
    }
}

/// irHINT-size: sound interval columns in beneficial order, a sound id-only
/// file, and every live posting naming a live entry of the columns.
impl CheckDivision for Decoupled {
    fn check_division(&self, at: &DivisionAt, path: &str, out: &mut Vec<Violation>) -> bool {
        let nested = self.ids.validate();
        if !nested.is_empty() {
            nest(&format!("{path}/ids"), nested, out);
            return false;
        }
        let view = self.intervals.view(at.kind, at.level, at.j);
        let columns = (view, self.intervals.dead());
        let intervals = format!("{path}/intervals");
        if !check_interval_division(
            at.domain,
            &intervals,
            columns,
            DivisionOrder::Beneficial,
            out,
        ) {
            return true;
        }
        let stored: BTreeSet<u32> = view.ids.iter().filter(|&&id| live(id)).copied().collect();
        for &e in self.ids.elements() {
            for &id in self.ids_of(e).iter().filter(|&&id| live(id)) {
                if !stored.contains(&id) {
                    fail(
                        out,
                        path,
                        format!("elem {e}: live posting {id} absent from the interval columns"),
                    );
                }
            }
        }
        true
    }

    fn listed(&self) -> &[u32] {
        self.ids.elements()
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
