//! Validators for the inverted-index substrate (`tir-invidx`).

use std::ops::Range;

use crate::{fail, Validate, Violation};
use tir_invidx::compress::BLOCK_LEN;
use tir_invidx::{
    live, raw, BlockPostings, ColumnList, CompressedTemporalPostings, Dictionary, ElemBitmaps,
    FlatInverted, PlanStats, SortKey, ELEM_BITMAP_DEN,
};

impl Validate for Dictionary {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let n = self.len();
        if self.num_mapped() != n {
            fail(
                &mut out,
                "dict/map",
                format!(
                    "term map has {} entries, term table has {n}",
                    self.num_mapped()
                ),
            );
        }
        if self.num_freq_slots() != n {
            fail(
                &mut out,
                "dict/freq",
                format!(
                    "freq table has {} slots, term table has {n}",
                    self.num_freq_slots()
                ),
            );
        }
        for id in 0..n as u32 {
            let path = format!("dict/term{id}");
            match self.term(id) {
                None => fail(&mut out, &path, "term table slot missing".into()),
                Some(t) => {
                    if self.lookup(t) != Some(id) {
                        fail(
                            &mut out,
                            &path,
                            format!("lookup({t:?}) = {:?}, want {id}", self.lookup(t)),
                        );
                    }
                }
            }
        }
        out
    }
}

/// The one column validator, for every [`ColumnList`] whatever its sort
/// key: [`check_parallel`], then [`check_run`] over the whole list.
/// Returns the live-entry count, or `None` if the columns are not parallel.
pub(crate) fn check_columns<const W: usize, K: SortKey>(
    path: &str,
    list: &ColumnList<W, K>,
    out: &mut Vec<Violation>,
) -> Option<usize> {
    check_parallel(path, list, out).then(|| check_run(path, list, 0..list.len(), out))
}

/// Every endpoint column as long as the id column.
fn check_parallel<const W: usize, K>(
    path: &str,
    list: &ColumnList<W, K>,
    out: &mut Vec<Violation>,
) -> bool {
    let n = list.ids.len();
    if list.cols.iter().any(|col| col.len() != n) {
        let lens: Vec<usize> = list.cols.iter().map(Vec::len).collect();
        fail(
            out,
            path,
            format!("parallel columns disagree: {n} ids, endpoint columns of {lens:?}"),
        );
        return false;
    }
    true
}

/// The entries `run` of a list with parallel columns — the whole list, or
/// one element's run in a flat store — in key order and with no inverted
/// interval. Returns the run's live-entry count.
fn check_run<const W: usize, K: SortKey>(
    path: &str,
    list: &ColumnList<W, K>,
    run: Range<usize>,
    out: &mut Vec<Violation>,
) -> usize {
    if !(run.start + 1..run.end).all(|i| K::in_order(list, i - 1, i)) {
        fail(out, path, format!("entries not {}", K::ORDER));
    }
    if let [sts, ends] = list.cols.as_slice() {
        for i in run.clone().filter(|&i| sts[i] > ends[i]) {
            fail(
                out,
                path,
                format!(
                    "id {}: inverted interval [{}, {}]",
                    raw(list.ids[i]),
                    sts[i],
                    ends[i]
                ),
            );
        }
    }
    list.ids[run].iter().filter(|&&id| live(id)).count()
}

/// A flat store: sound columns under a strictly ascending element
/// directory; every element's run a prefix of the slots it owns, the
/// slots inside the list and pairwise disjoint — packed, tiling the list in
/// directory order — and every run a sound id-sorted list.
impl<const W: usize> Validate for FlatInverted<W> {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let (elems, list) = (self.elements(), self.list());
        if !check_parallel("compact", list, &mut out) {
            return out;
        }
        let dir = self.directory_len();
        if dir != elems.len() + 1 && dir != 3 * elems.len() {
            fail(
                &mut out,
                "compact/offsets",
                format!(
                    "{dir} directory entries for {} elements (want elements + 1 packed, \
                     3 per element roomy)",
                    elems.len()
                ),
            );
            return out;
        }
        if !elems.windows(2).all(|w| w[0] < w[1]) {
            fail(
                &mut out,
                "compact/elements",
                "element directory not strictly ascending".into(),
            );
        }
        let mut slots: Vec<(Range<usize>, u32)> = Vec::with_capacity(elems.len());
        for (i, &e) in elems.iter().enumerate() {
            let (run, own) = (self.elem_run(i), self.elem_slots(i));
            if run.start != own.start || run.start > run.end || run.end > own.end {
                fail(
                    &mut out,
                    &format!("compact/elem{e}"),
                    format!("run {run:?} is not a prefix of its slots {own:?}"),
                );
            } else if own.end > list.len() {
                fail(
                    &mut out,
                    &format!("compact/elem{e}"),
                    format!("slots {own:?} past the list's {} slots", list.len()),
                );
            }
            slots.push((own, e));
        }
        if !out.is_empty() {
            return out;
        }
        let tiles = |at: Option<usize>, (own, _): &(Range<usize>, u32)| {
            at.filter(|&at| at == own.start).map(|_| own.end)
        };
        if self.is_packed() && slots.iter().fold(Some(0), tiles) != Some(list.len()) {
            fail(
                &mut out,
                "compact/runs",
                "packed runs do not tile the list in directory order".into(),
            );
            return out;
        }
        slots.sort_unstable_by_key(|(own, _)| own.start);
        for w in slots.windows(2) {
            let ((a, ea), (b, eb)) = (&w[0], &w[1]);
            if a.end > b.start {
                fail(
                    &mut out,
                    "compact/runs",
                    format!("elements {ea} and {eb} own overlapping slots {a:?} and {b:?}"),
                );
            }
        }
        if !out.is_empty() {
            return out;
        }
        for (i, &e) in elems.iter().enumerate() {
            check_run(
                &format!("compact/elem{e}"),
                list,
                self.elem_run(i),
                &mut out,
            );
        }
        out
    }
}

/// The sidecar on its own: a strictly ascending directory, cached counts
/// that are the popcounts, no bit at or past the universe, and no bitmap
/// kept for an element more than twice as sparse as the density rule asks.
/// That the bits are the *right* ones is the owning index's validator's job.
impl Validate for ElemBitmaps {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let universe = u64::from(self.universe());
        let mut prev = None;
        for (e, count, words) in self.iter() {
            let path = format!("bitmaps/elem{e}");
            if prev >= Some(e) {
                fail(&mut out, &path, "directory not strictly ascending".into());
            }
            prev = Some(e);
            let popcount: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
            if popcount != u64::from(count) {
                fail(
                    &mut out,
                    &path,
                    format!("cached count {count}, popcount {popcount}"),
                );
            }
            let past = (0..words.len() as u64 * 64)
                .rev()
                .take_while(|&id| id >= universe)
                .any(|id| words[(id / 64) as usize] >> (id % 64) & 1 == 1);
            if past {
                fail(
                    &mut out,
                    &path,
                    format!("bit set at or past the universe {universe}"),
                );
            }
            if popcount * 2 * u64::from(ELEM_BITMAP_DEN) < universe {
                fail(
                    &mut out,
                    &path,
                    format!(
                        "kept at {popcount} of universe {universe}: sparser than 1/{}                          should have no bitmap",
                        2 * ELEM_BITMAP_DEN
                    ),
                );
            }
        }
        out
    }
}

impl Validate for PlanStats {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        if self.kernel_scanned_sum() != self.scanned {
            fail(
                &mut out,
                "plan_stats/scanned",
                format!(
                    "per-kernel scanned sums to {}, total says {}",
                    self.kernel_scanned_sum(),
                    self.scanned
                ),
            );
        }
        for (kernel, steps, scanned) in [
            ("merge", self.merge_steps, self.merge_scanned),
            ("gallop", self.gallop_steps, self.gallop_scanned),
            (
                "bitmap_probe",
                self.bitmap_probe_steps,
                self.bitmap_probe_scanned,
            ),
            ("word_and", self.word_and_steps, self.word_and_scanned),
        ] {
            if steps == 0 && scanned != 0 {
                fail(
                    &mut out,
                    &format!("plan_stats/{kernel}"),
                    format!("{scanned} elements scanned in zero steps"),
                );
            }
        }
        // Fields no kernel writes, kept only for their readers (ROADMAP
        // item 4).
        for (field, steps) in [
            ("run_intersect", self.run_intersect_steps),
            ("simd_merge", self.simd_merge_steps),
        ] {
            if steps != 0 {
                fail(
                    &mut out,
                    &format!("plan_stats/{field}"),
                    format!("{steps} steps: no kernel records them"),
                );
            }
        }
        out
    }
}

/// Bounds-checked LEB128 read at `pos`: the production decoder indexes
/// unchecked, so a validator must never reuse it on possibly corrupt
/// bytes. `None` when the stream ends mid-varint or the value overflows
/// 64 bits.
fn checked_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = data.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

impl Validate for CompressedTemporalPostings {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let data = self.raw_bytes();
        let mut pos = 0usize;
        let mut prev: Option<u64> = None;
        for i in 0..self.len() {
            let mut field = || checked_varint(data, &mut pos);
            let (Some(delta), Some(st), Some(dur)) = (field(), field(), field()) else {
                fail(
                    &mut out,
                    "compressed/stream",
                    format!(
                        "stream truncated or overlong varint inside posting {i} of {}",
                        self.len()
                    ),
                );
                return out;
            };
            let acc = match prev {
                None => delta,
                Some(p) => {
                    if delta == 0 {
                        fail(
                            &mut out,
                            "compressed/deltas",
                            format!("zero delta at posting {i}: ids not strictly ascending"),
                        );
                    }
                    p.saturating_add(delta)
                }
            };
            if acc > u64::from(u32::MAX) {
                fail(
                    &mut out,
                    "compressed/deltas",
                    format!("posting {i} decodes to {acc}, beyond the u32 id space"),
                );
            }
            if st.checked_add(dur).is_none() {
                fail(
                    &mut out,
                    "compressed/intervals",
                    format!("posting {i}: start {st} + duration {dur} overflows"),
                );
            }
            prev = Some(acc);
        }
        if pos != data.len() {
            fail(
                &mut out,
                "compressed/stream",
                format!("{} trailing bytes after the last posting", data.len() - pos),
            );
        }
        out
    }
}

impl Validate for BlockPostings {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let blocks = self.num_blocks();
        let want_blocks = self.len().div_ceil(BLOCK_LEN);
        if blocks != want_blocks {
            fail(
                &mut out,
                "blocks/layout",
                format!(
                    "{} postings want {want_blocks} blocks, have {blocks}",
                    self.len()
                ),
            );
            return out;
        }
        let (ctrl, data) = self.raw_streams();
        let (mut ci, mut pos) = (0usize, 0usize);
        let mut prev_last: Option<u32> = None;
        for b in 0..blocks {
            let path = format!("blocks/block{b}");
            let count = BLOCK_LEN.min(self.len() - b * BLOCK_LEN);
            let (co, dofs) = self.block_offsets(b);
            if co != ci || dofs != pos {
                fail(
                    &mut out,
                    &path,
                    format!("offsets ({co}, {dofs}) do not resume the stream at ({ci}, {pos})"),
                );
                return out;
            }
            let first = self.block_first(b);
            if let Some(p) = prev_last {
                if first <= p {
                    fail(
                        &mut out,
                        &path,
                        format!("first id {first} not above previous block's last {p}"),
                    );
                }
            }
            // Bounds-checked stream-vbyte walk: the production decoder
            // indexes unchecked, so a validator must never reuse it on
            // possibly corrupt bytes.
            let mut acc = u64::from(first);
            let mut decoded = 0usize;
            while decoded < count - 1 {
                let Some(&c) = ctrl.get(ci) else {
                    fail(
                        &mut out,
                        &path,
                        format!("control stream truncated after {decoded} deltas"),
                    );
                    return out;
                };
                ci += 1;
                let mut lane = 0usize;
                while lane < 4 && decoded < count - 1 {
                    let nbytes = ((c >> (2 * lane)) & 3) as usize + 1;
                    let Some(bytes) = data.get(pos..pos + nbytes) else {
                        fail(
                            &mut out,
                            &path,
                            format!("data stream truncated after {decoded} deltas"),
                        );
                        return out;
                    };
                    let mut v = 0u64;
                    for (shift, &byte) in bytes.iter().enumerate() {
                        v |= u64::from(byte) << (8 * shift);
                    }
                    pos += nbytes;
                    if v == 0 {
                        fail(
                            &mut out,
                            &path,
                            format!("zero delta at value {decoded}: ids not strictly ascending"),
                        );
                    }
                    acc += v;
                    if acc > u64::from(u32::MAX) {
                        fail(
                            &mut out,
                            &path,
                            format!("value {decoded} decodes to {acc}, beyond the u32 id space"),
                        );
                        return out;
                    }
                    decoded += 1;
                    lane += 1;
                }
            }
            if acc != u64::from(self.block_last(b)) {
                fail(
                    &mut out,
                    &path,
                    format!(
                        "skip bound says last {}, stream decodes {acc}",
                        self.block_last(b)
                    ),
                );
            }
            prev_last = Some(self.block_last(b));
        }
        if ci != ctrl.len() {
            fail(
                &mut out,
                "blocks/stream",
                format!("{} trailing control bytes", ctrl.len() - ci),
            );
        }
        // A default-constructed (never encoded) empty list has no pad;
        // every encoded stream ends in exactly 16 zero pad bytes.
        if (blocks > 0 || !data.is_empty()) && data.len() != pos + 16 {
            fail(
                &mut out,
                "blocks/stream",
                format!(
                    "data stream is {} bytes, want {} consumed + 16 pad",
                    data.len(),
                    pos
                ),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_structures_validate() {
        let mut d = Dictionary::new();
        d.intern_description(["a", "b", "c"]);
        assert!(d.validate().is_empty());

        let ci = FlatInverted::build(&mut [(0, 1, []), (0, 2, []), (1, 2, [])]);
        assert!(ci.validate().is_empty());

        let ct = FlatInverted::build(&mut [(0, 1, [5, 9]), (1, 2, [0, 3])]);
        assert!(ct.validate().is_empty());

        let cp = CompressedTemporalPostings::encode(&[1, 5, 1000], &[0, 7, 9], &[3, 7, 1 << 40]);
        assert!(cp.validate().is_empty());

        let ids: Vec<u32> = (0..300u32).map(|i| i * 3).collect();
        let bp = BlockPostings::encode(&ids);
        assert!(bp.validate().is_empty());
    }

    #[test]
    fn empty_structures_validate() {
        assert!(Dictionary::new().validate().is_empty());
        assert!(FlatInverted::<0>::new().validate().is_empty());
        assert!(FlatInverted::<2>::new().validate().is_empty());
        assert!(CompressedTemporalPostings::default().validate().is_empty());
        assert!(BlockPostings::encode(&[]).validate().is_empty());
        assert!(BlockPostings::default().validate().is_empty());
    }
}
