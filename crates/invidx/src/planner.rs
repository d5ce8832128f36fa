//! Cost-based conjunction planner and per-query scratch arena.
//!
//! Every index method evaluates a time-travel query as a conjunction:
//! seed a candidate set from the least frequent element, then intersect
//! with the remaining elements in ascending document frequency. This
//! module owns the *how* of each intersection step:
//!
//! * sorted array vs sorted array → **merge** or **gallop**, picked by the
//!   size ratio ([`crate::kernels::GALLOP_RATIO`]);
//! * anything vs the present-only [`Postings::Bits`] view of an
//!   index-wide [`crate::ElemBitmaps`] entry → **bitmap-probe** (O(1)
//!   membership per candidate), or **word-AND** when the candidate set is
//!   itself dense enough to be worth materializing as a bitmap, after
//!   which consecutive dense steps AND whole 64-bit words;
//! * candidate membership probes (the Algorithm 3 / mark-hits pattern)
//!   → a candidate bitmap when the universe is small enough, binary
//!   search otherwise.
//!
//! All state lives in a reusable [`QueryScratch`] so a steady-state query
//! performs no allocation beyond its reply vector, and every step is
//! counted: per-query via [`QueryScratch::last_stats`], process-wide via
//! [`global_stats`] (surfaced through `tir serve`'s `STATS`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::compress::BlockPostings;
use crate::kernels::{live, mark_hits, raw, GALLOP_RATIO};
use crate::simd;

/// The kernel a conjunction step ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Linear zipper merge of two sorted arrays (scalar).
    Merge,
    /// SSE2 block-wise merge of two sorted arrays.
    SimdMerge,
    /// Exponential-search (galloping) intersection or binary-search
    /// probe (scalar or AVX2 — same cost shape, one counter).
    Gallop,
    /// O(1) membership tests against a bitmap.
    BitmapProbe,
    /// 64-bit word-at-a-time AND of two bitmaps.
    WordAnd,
}

/// Per-query planner counters: how many steps each kernel won and how
/// many elements (or words) each scanned. `scanned` is maintained as the
/// running total, so `merge_scanned + simd_merge_scanned +
/// gallop_scanned + bitmap_probe_scanned + word_and_scanned == scanned`
/// is an invariant `tir-check` can audit. `blocks_decoded` counts
/// compressed blocks materialized for block-at-a-time intersection and is
/// deliberately *not* part of that sum — it is a unit of decode work, not
/// of elements scanned (those are counted by the kernel the decoded block
/// fed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Steps answered by the scalar merge kernel.
    pub merge_steps: u64,
    /// Steps answered by the SSE2 block merge kernel.
    pub simd_merge_steps: u64,
    /// Steps answered by the gallop / binary-search kernel.
    pub gallop_steps: u64,
    /// Steps answered by bitmap probing.
    pub bitmap_probe_steps: u64,
    /// Steps answered by word-AND.
    pub word_and_steps: u64,
    /// Always 0: no kernel records run steps. Kept because the repo
    /// benchmark's probes and the `kern_run_intersect` key of `STATS` and
    /// `loadgen` read it; it goes with the benchmark housekeeping of
    /// ROADMAP item 4.
    pub run_intersect_steps: u64,
    /// Elements scanned by scalar merge steps.
    pub merge_scanned: u64,
    /// Elements scanned by SSE2 block merge steps.
    pub simd_merge_scanned: u64,
    /// Elements scanned by gallop steps.
    pub gallop_scanned: u64,
    /// Elements probed by bitmap steps.
    pub bitmap_probe_scanned: u64,
    /// Words scanned by word-AND steps (plus bitmap build costs).
    pub word_and_scanned: u64,
    /// Always 0, kept beside [`PlanStats::run_intersect_steps`] for the
    /// same readers until ROADMAP item 4 removes both.
    pub run_intersect_scanned: u64,
    /// Total elements scanned over all kernels.
    pub scanned: u64,
    /// Compressed posting blocks decoded for block-at-a-time steps.
    pub blocks_decoded: u64,
}

impl PlanStats {
    /// Records one step.
    #[inline]
    pub fn note(&mut self, kernel: Kernel, scanned: u64) {
        match kernel {
            Kernel::Merge => {
                self.merge_steps += 1;
                self.merge_scanned += scanned;
            }
            Kernel::SimdMerge => {
                self.simd_merge_steps += 1;
                self.simd_merge_scanned += scanned;
            }
            Kernel::Gallop => {
                self.gallop_steps += 1;
                self.gallop_scanned += scanned;
            }
            Kernel::BitmapProbe => {
                self.bitmap_probe_steps += 1;
                self.bitmap_probe_scanned += scanned;
            }
            Kernel::WordAnd => {
                self.word_and_steps += 1;
                self.word_and_scanned += scanned;
            }
        }
        self.scanned += scanned;
    }

    /// Records compressed posting blocks decoded outside any single
    /// kernel step (the elements they produced are counted by the
    /// kernel that consumed them).
    #[inline]
    pub fn note_blocks(&mut self, blocks: u64) {
        self.blocks_decoded += blocks;
    }

    /// Total steps over all kernels.
    pub fn steps(&self) -> u64 {
        self.merge_steps
            + self.simd_merge_steps
            + self.gallop_steps
            + self.bitmap_probe_steps
            + self.word_and_steps
    }

    /// Sum of the per-kernel scanned counters — must equal
    /// [`PlanStats::scanned`].
    pub fn kernel_scanned_sum(&self) -> u64 {
        self.merge_scanned
            + self.simd_merge_scanned
            + self.gallop_scanned
            + self.bitmap_probe_scanned
            + self.word_and_scanned
    }

    fn is_zero(&self) -> bool {
        self.steps() == 0 && self.scanned == 0 && self.blocks_decoded == 0
    }
}

struct GlobalCounters {
    merge_steps: AtomicU64,
    simd_merge_steps: AtomicU64,
    gallop_steps: AtomicU64,
    bitmap_probe_steps: AtomicU64,
    word_and_steps: AtomicU64,
    merge_scanned: AtomicU64,
    simd_merge_scanned: AtomicU64,
    gallop_scanned: AtomicU64,
    bitmap_probe_scanned: AtomicU64,
    word_and_scanned: AtomicU64,
    scanned: AtomicU64,
    blocks_decoded: AtomicU64,
}

static GLOBAL: GlobalCounters = GlobalCounters {
    merge_steps: AtomicU64::new(0),
    simd_merge_steps: AtomicU64::new(0),
    gallop_steps: AtomicU64::new(0),
    bitmap_probe_steps: AtomicU64::new(0),
    word_and_steps: AtomicU64::new(0),
    merge_scanned: AtomicU64::new(0),
    simd_merge_scanned: AtomicU64::new(0),
    gallop_scanned: AtomicU64::new(0),
    bitmap_probe_scanned: AtomicU64::new(0),
    word_and_scanned: AtomicU64::new(0),
    scanned: AtomicU64::new(0),
    blocks_decoded: AtomicU64::new(0),
};

fn flush_global(s: &PlanStats) {
    if s.is_zero() {
        return;
    }
    // analyze:allow(atomic-ordering): monotonic stat counters, read only for reporting
    GLOBAL
        .merge_steps
        .fetch_add(s.merge_steps, Ordering::Relaxed);
    // analyze:allow(atomic-ordering): monotonic stat counters, read only for reporting
    GLOBAL
        .simd_merge_steps
        .fetch_add(s.simd_merge_steps, Ordering::Relaxed);
    // analyze:allow(atomic-ordering): monotonic stat counters, read only for reporting
    GLOBAL
        .gallop_steps
        .fetch_add(s.gallop_steps, Ordering::Relaxed);
    // analyze:allow(atomic-ordering): monotonic stat counters, read only for reporting
    GLOBAL
        .bitmap_probe_steps
        .fetch_add(s.bitmap_probe_steps, Ordering::Relaxed);
    // analyze:allow(atomic-ordering): monotonic stat counters, read only for reporting
    GLOBAL
        .word_and_steps
        .fetch_add(s.word_and_steps, Ordering::Relaxed);
    // analyze:allow(atomic-ordering): monotonic stat counters, read only for reporting
    GLOBAL
        .merge_scanned
        .fetch_add(s.merge_scanned, Ordering::Relaxed);
    // analyze:allow(atomic-ordering): monotonic stat counters, read only for reporting
    GLOBAL
        .simd_merge_scanned
        .fetch_add(s.simd_merge_scanned, Ordering::Relaxed);
    // analyze:allow(atomic-ordering): monotonic stat counters, read only for reporting
    GLOBAL
        .gallop_scanned
        .fetch_add(s.gallop_scanned, Ordering::Relaxed);
    // analyze:allow(atomic-ordering): monotonic stat counters, read only for reporting
    GLOBAL
        .bitmap_probe_scanned
        .fetch_add(s.bitmap_probe_scanned, Ordering::Relaxed);
    // analyze:allow(atomic-ordering): monotonic stat counters, read only for reporting
    GLOBAL
        .word_and_scanned
        .fetch_add(s.word_and_scanned, Ordering::Relaxed);
    // analyze:allow(atomic-ordering): monotonic stat counters, read only for reporting
    GLOBAL.scanned.fetch_add(s.scanned, Ordering::Relaxed);
    // analyze:allow(atomic-ordering): monotonic stat counters, read only for reporting
    GLOBAL
        .blocks_decoded
        .fetch_add(s.blocks_decoded, Ordering::Relaxed);
}

/// Process-wide accumulated planner counters (every query answered since
/// start, all threads). Point-in-time read; cross-counter tearing is
/// acceptable for reporting.
pub fn global_stats() -> PlanStats {
    // analyze:allow(atomic-ordering): monotonic stat counters, read only for reporting
    PlanStats {
        merge_steps: GLOBAL.merge_steps.load(Ordering::Relaxed),
        simd_merge_steps: GLOBAL.simd_merge_steps.load(Ordering::Relaxed),
        gallop_steps: GLOBAL.gallop_steps.load(Ordering::Relaxed),
        bitmap_probe_steps: GLOBAL.bitmap_probe_steps.load(Ordering::Relaxed),
        word_and_steps: GLOBAL.word_and_steps.load(Ordering::Relaxed),
        merge_scanned: GLOBAL.merge_scanned.load(Ordering::Relaxed),
        simd_merge_scanned: GLOBAL.simd_merge_scanned.load(Ordering::Relaxed),
        gallop_scanned: GLOBAL.gallop_scanned.load(Ordering::Relaxed),
        bitmap_probe_scanned: GLOBAL.bitmap_probe_scanned.load(Ordering::Relaxed),
        word_and_scanned: GLOBAL.word_and_scanned.load(Ordering::Relaxed),
        scanned: GLOBAL.scanned.load(Ordering::Relaxed),
        blocks_decoded: GLOBAL.blocks_decoded.load(Ordering::Relaxed),
        ..PlanStats::default()
    }
}

/// One side of a conjunction step.
#[derive(Debug, Clone, Copy)]
pub enum Postings<'a> {
    /// A raw-id-sorted slice, bit-31 tombstones allowed.
    Ids(&'a [u32]),
    /// Stream-vbyte block-compressed postings, decoded (and skipped)
    /// block-at-a-time.
    Blocks(&'a BlockPostings),
    /// A present-only bitmap: bit `id % 64` of word `id / 64` is set iff
    /// `id` is a live member, ids past the slice are absent — the
    /// [`crate::ElemBitmaps`] view. Candidates need not be sorted for this
    /// operand.
    Bits(&'a [u64]),
}

/// The candidate set becomes worth materializing as a bitmap once it
/// covers at least 1/`WORD_AND_DENSITY_DEN` of the dense side's universe:
/// below that, per-candidate probes touch less memory than whole-word
/// ANDs.
pub const WORD_AND_DENSITY_DEN: usize = 32;

/// Largest id universe a *candidate* bitmap is built for (2^26 ids =
/// 8 MiB of bits); bigger universes fall back to binary-search probes.
pub const MAX_PROBE_UNIVERSE: u32 = 1 << 26;

/// ANDs `words` into the common prefix of `dst` and returns the popcount
/// of that prefix afterwards.
#[inline]
fn and_popcount(dst: &mut [u64], words: &[u64]) -> u64 {
    let mut count = 0u64;
    for (d, &w) in dst.iter_mut().zip(words) {
        *d &= w;
        count += u64::from(d.count_ones());
    }
    count
}

/// Reusable query state: candidate/output buffers, the plan
/// order, a candidate bitmap, and the per-query kernel counters. Holding
/// one per serve query permit (or bench loop) makes steady-state queries
/// allocation-free apart from the reply vector.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Query plan buffer (elements in ascending-frequency order).
    pub plan: Vec<u32>,
    /// The current candidate set (sorted, live raw ids) when the planner
    /// is in array form. Seed this before calling
    /// [`QueryScratch::intersect`].
    pub cands: Vec<u32>,
    next: Vec<u32>,
    bits: Vec<u64>,
    bits_live: bool,
    bits_words: usize,
    bits_count: u64,
    loaded: Vec<u32>,
    hits: Vec<bool>,
    blk: Vec<u32>,
    probe_bits: bool,
    stats: PlanStats,
    last: PlanStats,
    deadline: Option<std::time::Instant>,
    deadline_probe_at: u64,
    deadline_expired: bool,
}

/// Scanned elements between wall-clock probes of an armed deadline: the
/// progress counter the kernels already maintain gates `Instant::now()`,
/// so cheap queries never touch the clock.
const DEADLINE_PROBE_EVERY: u64 = 4096;

impl QueryScratch {
    /// Starts a new query: flushes the previous query's counters to the
    /// process-wide totals and clears all candidate state.
    pub fn reset(&mut self) {
        self.finish_query();
        self.cands.clear();
        self.plan.clear();
    }

    /// Flushes pending counters (also called by [`QueryScratch::reset`]
    /// and on drop, so drive-by uses cannot lose counts).
    fn finish_query(&mut self) {
        if !self.stats.is_zero() {
            flush_global(&self.stats);
            self.last = self.stats;
            self.stats = PlanStats::default();
        }
        if self.bits_live {
            self.zero_bits();
            self.bits_live = false;
        }
    }

    /// The counters of the most recently finished query.
    pub fn last_stats(&self) -> PlanStats {
        self.last
    }

    /// Arms (or clears) a per-query deadline. The serve pool sets this
    /// before `query_into`; conjunction steps then probe the wall clock
    /// once per [`DEADLINE_PROBE_EVERY`] scanned elements and, on
    /// expiry, drop every candidate so the rest of the plan collapses to
    /// O(1) early-exits. After the query, [`QueryScratch::timed_out`]
    /// says whether the built answer is partial and must be discarded. A
    /// query that completes without ever probing past its deadline is
    /// complete and servable regardless of the clock.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
        self.deadline_probe_at = DEADLINE_PROBE_EVERY;
        self.deadline_expired = false;
    }

    /// True if an armed deadline expired mid-plan: the answer in `out`
    /// is partial and must not be served.
    #[inline]
    pub fn timed_out(&self) -> bool {
        self.deadline_expired
    }

    /// Deadline probe: cheap progress check first, wall clock only every
    /// [`DEADLINE_PROBE_EVERY`] scanned elements. On expiry, collapses
    /// the candidate state so every remaining plan step early-exits.
    #[inline]
    fn check_deadline(&mut self) {
        let Some(deadline) = self.deadline else {
            return;
        };
        if !self.deadline_expired {
            if self.stats.scanned < self.deadline_probe_at {
                return;
            }
            self.deadline_probe_at = self.stats.scanned + DEADLINE_PROBE_EVERY;
            if std::time::Instant::now() < deadline {
                return;
            }
            self.deadline_expired = true;
        }
        self.cands.clear();
        if self.bits_live {
            self.zero_bits();
            self.bits_live = false;
        }
    }

    /// Records a step that ran outside the planner's own kernels (e.g.
    /// cTIF's streaming decode-intersect) so the totals stay honest.
    #[inline]
    pub fn note(&mut self, kernel: Kernel, scanned: u64) {
        self.stats.note(kernel, scanned);
    }

    /// True if the candidate set is empty — the early-exit test between
    /// conjunction steps.
    #[inline]
    pub fn is_empty(&self) -> bool {
        if self.bits_live {
            self.bits_count == 0
        } else {
            self.cands.is_empty()
        }
    }

    /// One conjunction step: replaces the candidate set with its
    /// intersection against `side`, picking the kernel from the operand
    /// shapes and sizes.
    pub fn intersect(&mut self, side: Postings<'_>) {
        self.check_deadline();
        match side {
            Postings::Ids(ids) => self.intersect_ids(ids),
            Postings::Blocks(bp) => self.intersect_blocks(bp),
            Postings::Bits(words) => self.intersect_bits(words),
        }
    }

    fn intersect_ids(&mut self, ids: &[u32]) {
        if self.bits_live {
            // Downshift: walk the sorted array, keep ids present in the
            // candidate bitmap. Output is raw-id-sorted by construction.
            self.cands.clear();
            for &p in ids {
                let r = raw(p);
                if live(p) && self.bit(r) {
                    self.cands.push(r);
                }
            }
            self.zero_bits();
            self.bits_live = false;
            self.stats.note(Kernel::BitmapProbe, ids.len() as u64);
            return;
        }
        self.next.clear();
        if self.cands.len().saturating_mul(GALLOP_RATIO) < ids.len() {
            // Scalar and AVX2 gallop share one counter: same cost shape.
            simd::gallop_into(&self.cands, ids, &mut self.next);
            self.stats.note(Kernel::Gallop, self.cands.len() as u64);
        } else if ids.len().saturating_mul(GALLOP_RATIO) < self.cands.len() {
            // Opposite skew: iterate the small postings side, gallop
            // through the candidates. Same counter as forward gallop —
            // the scanned side is the one iterated.
            crate::kernels::intersect_gallop_rev_into(&self.cands, ids, &mut self.next);
            self.stats.note(Kernel::Gallop, ids.len() as u64);
        } else {
            let vector = simd::merge_into(&self.cands, ids, &mut self.next);
            let kernel = if vector {
                Kernel::SimdMerge
            } else {
                Kernel::Merge
            };
            self.stats
                .note(kernel, (self.cands.len() + ids.len()) as u64);
        }
        std::mem::swap(&mut self.cands, &mut self.next);
    }

    /// One step against a present-only bitmap: bit `id % 64` of word
    /// `id / 64` is set iff `id` is a live member, ids past `words` are
    /// absent.
    #[inline]
    fn intersect_bits(&mut self, words: &[u64]) {
        if self.bits_live {
            // Word-AND with the incoming bitmap; ids beyond its universe
            // cannot match, so the tail of the candidate bitmap clears.
            let keep = self.bits_words.min(words.len());
            let count = and_popcount(&mut self.bits[..keep], words);
            for w in keep..self.bits_words {
                self.bits[w] = 0;
            }
            self.bits_words = keep;
            self.bits_count = count;
            self.stats.note(Kernel::WordAnd, keep as u64);
            return;
        }
        let universe = words.len() * 64;
        if self.cands.len().saturating_mul(WORD_AND_DENSITY_DEN) >= universe {
            // Dense candidates: materialize them as a bitmap once, then
            // this and consecutive dense steps run word-at-a-time.
            let w = words.len();
            if self.bits.len() < w {
                self.bits.resize(w, 0);
            }
            let build = self.cands.len();
            self.bits[..w].fill(0);
            for &c in &self.cands {
                if (c as usize) < universe {
                    self.bits[c as usize / 64] |= 1u64 << (c % 64);
                }
            }
            let count = and_popcount(&mut self.bits[..w], words);
            self.bits_words = w;
            self.bits_count = count;
            self.bits_live = true;
            self.stats.note(Kernel::WordAnd, (w + build) as u64);
        } else {
            // Sparse candidates: O(1) probe per candidate.
            self.next.clear();
            for &c in &self.cands {
                if words
                    .get(c as usize / 64)
                    .is_some_and(|w| (w >> (c % 64)) & 1 == 1)
                {
                    self.next.push(c);
                }
            }
            self.stats
                .note(Kernel::BitmapProbe, self.cands.len() as u64);
            std::mem::swap(&mut self.cands, &mut self.next);
        }
    }

    #[inline(never)]
    fn intersect_blocks(&mut self, bp: &BlockPostings) {
        if self.bits_live {
            // Downshift block-at-a-time: blocks whose first id is past
            // the bitmap's live words can never match, so decoding stops
            // there; everything decoded is probed like a sorted array.
            self.cands.clear();
            let limit = self.bits_words as u64 * 64;
            let mut blocks = 0u64;
            let mut scanned = 0u64;
            for b in 0..bp.num_blocks() {
                if u64::from(bp.block_first(b)) >= limit {
                    break;
                }
                self.blk.clear();
                bp.decode_block_into(b, &mut self.blk);
                blocks += 1;
                scanned += self.blk.len() as u64;
                for &p in &self.blk {
                    let r = raw(p);
                    let w = r as usize / 64;
                    if live(p) && w < self.bits_words && (self.bits[w] >> (r % 64)) & 1 == 1 {
                        self.cands.push(r);
                    }
                }
            }
            self.zero_bits();
            self.bits_live = false;
            self.stats.note(Kernel::BitmapProbe, scanned);
            self.stats.note_blocks(blocks);
            return;
        }
        self.next.clear();
        let st = bp.intersect_into(&self.cands, &mut self.next, &mut self.blk);
        let kernel = if st.vector {
            Kernel::SimdMerge
        } else {
            Kernel::Merge
        };
        self.stats.note(kernel, st.scanned);
        self.stats.note_blocks(st.blocks_decoded);
        std::mem::swap(&mut self.cands, &mut self.next);
    }

    /// Moves the candidate set (ascending if the planner ended in bitmap
    /// form) to the end of `out` and leaves the scratch empty and in array
    /// form, ready to be seeded again — how a plan that runs once per
    /// partition hands over one partition's answers mid-query.
    pub fn drain_into(&mut self, out: &mut Vec<u32>) {
        if self.bits_live {
            for w in 0..self.bits_words {
                let mut m = self.bits[w];
                self.bits[w] = 0;
                while m != 0 {
                    // analyze:allow(unguarded-cast): word index * 64 + bit is a valid u32 id
                    out.push((w * 64) as u32 + m.trailing_zeros());
                    m &= m - 1;
                }
            }
            self.bits_words = 0;
            self.bits_count = 0;
            self.bits_live = false;
            self.cands.clear();
        } else {
            out.append(&mut self.cands);
        }
    }

    /// Puts array-form candidates in ascending order, which every operand
    /// but [`Postings::Bits`] requires. The bitmap form has no order to
    /// restore.
    pub fn sort_candidates(&mut self) {
        if !self.bits_live {
            self.cands.sort_unstable();
        }
    }

    /// Hands the candidates back in array form, ascending, if a word-AND
    /// step left them as a bitmap — for a caller about to walk
    /// [`QueryScratch::cands`] itself (a merge-mark or take-once round)
    /// instead of calling [`QueryScratch::intersect`]. Array-form
    /// candidates are left as they are.
    pub fn unpack_candidate_bits(&mut self) {
        if self.bits_live {
            let mut cands = std::mem::take(&mut self.cands);
            cands.clear();
            self.drain_into(&mut cands);
            self.cands = cands;
        }
    }

    /// Finishes the query: [`QueryScratch::drain_into`] `out`, then flushes
    /// the counters.
    pub fn take_into(&mut self, out: &mut Vec<u32>) {
        self.drain_into(out);
        self.finish_query();
    }

    /// Puts a finished query's answer in ascending order on this scratch's
    /// word arena, which is idle (all-zero) between queries and is left
    /// so: [`crate::kernels::order_ids_ascending`].
    pub fn order_answer_ids(&mut self, ids: &mut [u32]) {
        debug_assert!(!self.bits_live && self.loaded.is_empty(), "mid-query");
        crate::kernels::order_ids_ascending(ids, &mut self.bits);
    }

    #[inline]
    fn bit(&self, id: u32) -> bool {
        let w = id as usize / 64;
        w < self.bits_words && (self.bits[w] >> (id % 64)) & 1 == 1
    }

    fn zero_bits(&mut self) {
        for w in &mut self.bits[..self.bits_words] {
            *w = 0;
        }
        self.bits_words = 0;
        self.bits_count = 0;
    }

    // ----- candidate-probe mode (Algorithm 3 / mark-hits call sites) -----

    /// Indexes `cands` (unique live raw ids, any order) for repeated
    /// [`QueryScratch::probe_take`] calls: a candidate bitmap when the id
    /// range is small enough, a sorted copy with hit flags otherwise.
    /// `universe` is a sizing hint (`max id + 1` if known; 0 is fine —
    /// the candidate maximum is used); ranges beyond
    /// [`MAX_PROBE_UNIVERSE`] fall back to binary-search probes.
    pub fn load_candidates(&mut self, cands: &[u32], universe: u32) {
        let needed = cands
            .iter()
            .fold(universe, |u, &c| u.max(c.saturating_add(1)));
        self.loaded.clear();
        self.loaded.extend_from_slice(cands);
        if needed > 0 && needed <= MAX_PROBE_UNIVERSE {
            self.probe_bits = true;
            let w = (needed as usize).div_ceil(64);
            if self.bits.len() < w {
                self.bits.resize(w, 0);
            }
            self.bits_words = self.bits_words.max(w);
            for &c in &self.loaded {
                self.bits[c as usize / 64] |= 1u64 << (c % 64);
            }
            self.stats
                .note(Kernel::BitmapProbe, self.loaded.len() as u64);
        } else {
            self.probe_bits = false;
            self.loaded.sort_unstable();
            self.hits.clear();
            self.hits.resize(self.loaded.len(), false);
            self.stats.note(Kernel::Gallop, self.loaded.len() as u64);
        }
    }

    /// Tests whether `raw_id` is a loaded candidate not yet taken, and
    /// takes it — each candidate is emitted at most once per load, which
    /// replaces the mark-hits pass over replicated sub-lists.
    ///
    /// Deliberately does no counter bookkeeping: this is the hottest
    /// per-element call in the probe pattern, so call sites account the
    /// elements they scanned in bulk via [`QueryScratch::note_probed`].
    #[inline]
    pub fn probe_take(&mut self, raw_id: u32) -> bool {
        if self.probe_bits {
            let w = raw_id as usize / 64;
            if w < self.bits_words && (self.bits[w] >> (raw_id % 64)) & 1 == 1 {
                self.bits[w] &= !(1u64 << (raw_id % 64));
                return true;
            }
            false
        } else if let Ok(i) = self.loaded.binary_search(&raw_id) {
            !std::mem::replace(&mut self.hits[i], true)
        } else {
            false
        }
    }

    /// Records `scanned` posting elements probed through
    /// [`QueryScratch::probe_take`] since the last
    /// [`QueryScratch::load_candidates`], attributed to whichever probe
    /// kernel that load selected. Called once per posting list (or per
    /// round) rather than per element so the probe loop stays free of
    /// counter read-modify-writes.
    #[inline]
    pub fn note_probed(&mut self, scanned: u64) {
        let kernel = if self.probe_bits {
            Kernel::BitmapProbe
        } else {
            Kernel::Gallop
        };
        self.stats.note(kernel, scanned);
    }

    // ----- merge-marking rounds (sorted replicated sub-lists) -----

    /// Begins a merge-marking round over a sorted candidate set of `n`
    /// ids: clears and sizes the per-candidate hit flags. Cheaper than
    /// probe mode when the postings runs are id-sorted, because each
    /// [`QueryScratch::mark`] is a branch-light linear zipper.
    pub fn begin_mark(&mut self, n: usize) {
        self.hits.clear();
        self.hits.resize(n, false);
    }

    /// Merge-marks every candidate with a live posting in `postings`
    /// (both sorted ascending; postings by raw id). A candidate may be
    /// marked by several runs — e.g. slice-replicated sub-lists — and is
    /// still emitted once by [`QueryScratch::finish_mark`].
    pub fn mark(&mut self, cands: &[u32], postings: &[u32]) {
        self.check_deadline();
        if self.deadline_expired {
            // Past deadline: mark nothing, so finish_mark empties the
            // caller's candidate buffer and its plan early-exits.
            return;
        }
        if postings.len().saturating_mul(GALLOP_RATIO) < cands.len() {
            // Skewed round: iterate the small postings side, gallop
            // through the candidates (same dispatch as intersect_ids).
            crate::kernels::mark_hits_gallop_rev(cands, postings, &mut self.hits);
            self.stats.note(Kernel::Gallop, postings.len() as u64);
        } else if cands.len().saturating_mul(GALLOP_RATIO) < postings.len() {
            // Opposite skew — few surviving candidates against a long
            // sub-list (the dominant slicing shape: ~10^2 cands vs 10^4
            // postings): gallop through the postings per candidate.
            crate::kernels::mark_hits_gallop(cands, postings, &mut self.hits);
            self.stats.note(Kernel::Gallop, cands.len() as u64);
        } else {
            mark_hits(cands, postings, &mut self.hits);
            self.stats
                .note(Kernel::Merge, (cands.len() + postings.len()) as u64);
        }
    }

    /// Ends a merge-marking round: compacts `cands` in place (preserving
    /// sorted order) to the candidates that were marked.
    pub fn finish_mark(&mut self, cands: &mut Vec<u32>) {
        debug_assert_eq!(self.hits.len(), cands.len());
        let mut i = 0;
        cands.retain(|_| {
            let hit = self.hits[i];
            i += 1;
            hit
        });
        self.hits.clear();
    }

    /// Takes the internal secondary buffer for call sites that run their
    /// own merge loops (e.g. cTIF's compressed streaming intersection).
    /// Give it back with [`QueryScratch::put_aux`] so its capacity is
    /// reused by later queries.
    pub fn take_aux(&mut self) -> Vec<u32> {
        let mut aux = std::mem::take(&mut self.next);
        aux.clear();
        aux
    }

    /// Returns the buffer taken with [`QueryScratch::take_aux`].
    pub fn put_aux(&mut self, mut aux: Vec<u32>) {
        aux.clear();
        self.next = aux;
    }

    /// Takes the block-decode buffer for call sites that stream
    /// [`BlockPostings`] themselves (e.g. cTIF's overlay union). Give it
    /// back with [`QueryScratch::put_blk`].
    pub fn take_blk(&mut self) -> Vec<u32> {
        let mut blk = std::mem::take(&mut self.blk);
        blk.clear();
        blk
    }

    /// Returns the buffer taken with [`QueryScratch::take_blk`].
    pub fn put_blk(&mut self, mut blk: Vec<u32>) {
        blk.clear();
        self.blk = blk;
    }

    /// Records compressed blocks decoded by an external streaming loop
    /// (see [`QueryScratch::note`] for the matching element counts).
    #[inline]
    pub fn note_blocks(&mut self, blocks: u64) {
        self.stats.note_blocks(blocks);
    }

    /// Ends a probe round, clearing the candidate index so the next
    /// [`QueryScratch::load_candidates`] starts clean.
    pub fn end_probe(&mut self) {
        if self.probe_bits {
            for &c in &self.loaded {
                let w = c as usize / 64;
                if w < self.bits.len() {
                    self.bits[w] &= !(1u64 << (c % 64));
                }
            }
            self.bits_words = 0;
        } else {
            self.hits.clear();
        }
        self.loaded.clear();
    }
}

impl Drop for QueryScratch {
    fn drop(&mut self) {
        self.finish_query();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::TOMBSTONE;

    fn seq(scratch: &mut QueryScratch, seed: &[u32], sides: &[Postings<'_>]) -> Vec<u32> {
        scratch.reset();
        scratch.cands.extend_from_slice(seed);
        for side in sides {
            if scratch.is_empty() {
                break;
            }
            scratch.intersect(*side);
        }
        let mut out = Vec::new();
        scratch.take_into(&mut out);
        out
    }

    /// A present-only bitmap of `ids`, as [`crate::ElemBitmaps`] hands out.
    fn bits_of(ids: &[u32], universe: u32) -> Vec<u64> {
        let mut words = vec![0u64; (universe as usize).div_ceil(64)];
        for &id in ids {
            words[id as usize / 64] |= 1 << (id % 64);
        }
        words
    }

    #[test]
    fn expired_deadline_collapses_the_plan_and_flags_timeout() {
        let big: Vec<u32> = (0..20_000u32).map(|i| i * 2).collect();
        // Wide enough that 20K candidates stay in array form, so a plan of
        // `Bits` steps only ever probes.
        let big_bits = bits_of(&big, 1 << 20);
        for side in [Postings::Ids(&big), Postings::Bits(&big_bits)] {
            let mut s = QueryScratch::default();

            // A deadline already in the past: the first step past the probe
            // threshold must flag the timeout and empty the candidates.
            s.set_deadline(Some(std::time::Instant::now()));
            s.reset();
            s.cands.extend_from_slice(&big);
            s.intersect(side); // accrues > DEADLINE_PROBE_EVERY
            s.intersect(side); // probe fires here at the latest
            assert!(s.timed_out(), "{side:?}");
            assert!(s.is_empty(), "expired plan must hold no candidates");

            // Disarming restores normal behavior on the same scratch.
            s.set_deadline(None);
            s.reset();
            s.cands.extend_from_slice(&[2, 4, 6]);
            s.intersect(side);
            assert!(!s.timed_out());
            let mut out = Vec::new();
            s.take_into(&mut out);
            assert_eq!(out, vec![2, 4, 6]);

            // A generous deadline never fires even on heavy plans.
            s.set_deadline(Some(
                std::time::Instant::now() + std::time::Duration::from_secs(600),
            ));
            s.reset();
            s.cands.extend_from_slice(&big);
            s.intersect(side);
            s.intersect(side);
            assert!(!s.timed_out());
        }
    }

    #[test]
    fn array_steps_match_kernels() {
        let mut s = QueryScratch::default();
        let got = seq(
            &mut s,
            &[1, 3, 5, 7, 9],
            &[Postings::Ids(&[1, 2, 3, 7]), Postings::Ids(&[3, 7, 8])],
        );
        assert_eq!(got, vec![3, 7]);
        let st = s.last_stats();
        assert_eq!(st.steps(), 2);
        assert_eq!(st.kernel_scanned_sum(), st.scanned);
    }

    #[test]
    fn dense_probe_and_word_and() {
        let dense_ids: Vec<u32> = (0..128).map(|i| i * 2).collect();
        let cands: Vec<u32> = (0..64).map(|i| i * 4).collect();
        let (evens, fours) = (bits_of(&dense_ids, 256), bits_of(&cands, 256));
        let (evens, fours) = (Postings::Bits(&evens), Postings::Bits(&fours));
        // Sparse candidates: bitmap-probe, in whatever order they came.
        let mut s = QueryScratch::default();
        let got = seq(&mut s, &[500, 3, 2], &[evens]);
        assert_eq!(got, vec![2]);
        assert_eq!(s.last_stats().bitmap_probe_steps, 1);

        // Dense candidates: word-AND, result extracted ascending.
        let got = seq(&mut s, &cands, &[evens]);
        assert_eq!(got, cands);
        assert_eq!(s.last_stats().word_and_steps, 1);

        // Word-AND chains across consecutive dense steps, then
        // downshifts cleanly on a sparse side.
        let got = seq(
            &mut s,
            &(0..256).collect::<Vec<_>>(),
            &[evens, fours, Postings::Ids(&[4, 5, 6, 8, 500])],
        );
        assert_eq!(got, vec![4, 8]);
        let st = s.last_stats();
        assert_eq!(st.word_and_steps, 2);
        assert_eq!(st.bitmap_probe_steps, 1);
        assert_eq!(st.kernel_scanned_sum(), st.scanned);
    }

    #[test]
    fn drain_hands_over_mid_query_and_leaves_array_form() {
        let evens = bits_of(&(0..128).map(|i| i * 2).collect::<Vec<_>>(), 256);
        let mut s = QueryScratch::default();
        s.reset();
        let mut out = Vec::new();
        // First partition ends in bitmap form (dense candidates)...
        s.cands.extend(0..64);
        s.intersect(Postings::Bits(&evens));
        s.drain_into(&mut out);
        assert!(s.is_empty() && s.cands.is_empty());
        // ...and the second, seeded afresh, must not see its leftovers.
        s.cands.extend_from_slice(&[7, 8, 300]);
        s.intersect(Postings::Ids(&[8, 300]));
        s.drain_into(&mut out);
        let want: Vec<u32> = (0..32).map(|i| i * 2).chain([8, 300]).collect();
        assert_eq!(out, want);
        // Counters are still the one query's: nothing was flushed between.
        s.reset();
        assert_eq!(s.last_stats().steps(), 2);
    }

    #[test]
    fn unpacked_bits_feed_a_mark_round_in_ascending_order() {
        let evens = bits_of(&(0..128).map(|i| i * 2).collect::<Vec<_>>(), 256);
        let mut s = QueryScratch::default();
        s.reset();
        // Dense candidates, given in descending order: the word-AND leaves
        // them as a bitmap, and `cands` no longer says what survived.
        s.cands.extend((0..64).rev());
        s.intersect(Postings::Bits(&evens));
        assert_eq!(s.last_stats().word_and_steps, 0, "still mid-query");
        s.unpack_candidate_bits();
        let want: Vec<u32> = (0..32).map(|i| i * 2).collect();
        assert_eq!(s.cands, want);
        // A merge-mark round reads the handed-back array directly.
        let mut cands = std::mem::take(&mut s.cands);
        s.begin_mark(cands.len());
        s.mark(&cands, &[2, 3, 40, 41]);
        s.finish_mark(&mut cands);
        assert_eq!(cands, vec![2, 40]);
        // Array-form candidates are left as they are, order included.
        s.cands = vec![9, 3];
        s.unpack_candidate_bits();
        assert_eq!(s.cands, vec![9, 3]);
        let mut out = Vec::new();
        s.take_into(&mut out);
        assert_eq!(out, vec![9, 3]);
        assert_eq!(s.last_stats().word_and_steps, 1);
    }

    #[test]
    fn blocks_intersect_in_array_and_bitmap_mode() {
        // 8 blocks of evens over [0, 2048).
        let ids: Vec<u32> = (0..1024).map(|i| i * 2).collect();
        let bp = BlockPostings::encode(&ids);
        assert_eq!(bp.num_blocks(), 8);

        // Array candidates confined to one block: the rest skip.
        let mut s = QueryScratch::default();
        let cands: Vec<u32> = (600..700).collect();
        let got = seq(&mut s, &cands, &[Postings::Blocks(&bp)]);
        let want: Vec<u32> = (600..700).filter(|c| c % 2 == 0).collect();
        assert_eq!(got, want);
        let st = s.last_stats();
        assert_eq!(st.blocks_decoded, 1);
        assert_eq!(st.steps(), 1);
        assert_eq!(st.kernel_scanned_sum(), st.scanned);

        // Bitmap candidates: decoding stops at the bitmap's last word.
        let dense_ids: Vec<u32> = (0..128).map(|i| i * 2).collect();
        let evens = bits_of(&dense_ids, 256);
        let seed: Vec<u32> = (0..256).collect();
        let got = seq(
            &mut s,
            &seed,
            &[Postings::Bits(&evens), Postings::Blocks(&bp)],
        );
        assert_eq!(got, dense_ids, "evens in [0, 256) survive both sides");
        let st = s.last_stats();
        assert!(
            st.blocks_decoded < bp.num_blocks() as u64,
            "blocks past the bitmap universe stay undecoded"
        );
        assert_eq!(st.kernel_scanned_sum(), st.scanned);
    }

    #[test]
    fn large_arrays_dispatch_to_the_vector_merge() {
        // Both sides must clear SIMD_MERGE_MIN or the wrapper (correctly)
        // routes to scalar.
        let n = crate::simd::SIMD_MERGE_MIN as u32 + 77;
        let a: Vec<u32> = (0..n).map(|i| i * 3).collect();
        let b: Vec<u32> = (0..n).map(|i| i * 2).collect();
        let mut want = Vec::new();
        crate::kernels::intersect_merge_into(&a, &b, &mut want);
        let mut s = QueryScratch::default();
        let got = seq(&mut s, &a, &[Postings::Ids(&b)]);
        assert_eq!(got, want);
        let st = s.last_stats();
        if simd::level() >= crate::simd::SimdLevel::Sse2 {
            assert_eq!(st.simd_merge_steps, 1, "big merge takes the SSE2 path");
        } else {
            assert_eq!(st.merge_steps, 1, "scalar fallback under TIR_SIMD=off");
        }
        assert_eq!(st.kernel_scanned_sum(), st.scanned);
    }

    #[test]
    fn tombstones_respected_on_every_path() {
        // Evens below 128, id 20 deleted: the present-only words hold no
        // bit for it, the sorted array keeps it with its tombstone bit.
        let all: Vec<u32> = (0..64).map(|i| i * 2).collect();
        let stored: Vec<u32> = all
            .iter()
            .map(|&id| if id == 20 { id | TOMBSTONE } else { id })
            .collect();
        let live: Vec<u32> = all.iter().copied().filter(|&id| id != 20).collect();
        let words = bits_of(&live, 128);
        let mut s = QueryScratch::default();
        for side in [Postings::Ids(&stored), Postings::Bits(&words)] {
            // probe / gallop path
            assert_eq!(seq(&mut s, &[18, 20, 22], &[side]), vec![18, 22]);
            // merge / word-AND path
            let got = seq(&mut s, &all, &[side]);
            assert!(!got.contains(&20) && got.len() == 63);
        }
        // downshift path skips tombstoned array entries
        let arr = [18u32, 20 | TOMBSTONE, 22];
        let got = seq(
            &mut s,
            &all,
            &[Postings::Bits(&bits_of(&all, 128)), Postings::Ids(&arr)],
        );
        assert_eq!(s.last_stats().word_and_steps, 1);
        assert_eq!(got, vec![18, 22]);
    }

    #[test]
    fn probe_mode_takes_each_candidate_once() {
        let mut s = QueryScratch::default();
        // 100 exercises the candidate bitmap; u32::MAX overflows
        // MAX_PROBE_UNIVERSE and exercises the sorted fallback.
        for universe in [100u32, u32::MAX] {
            s.reset();
            s.load_candidates(&[5, 1, 9], universe);
            assert!(s.probe_take(1));
            assert!(!s.probe_take(1), "taken candidates never re-emit");
            assert!(!s.probe_take(2));
            assert!(s.probe_take(9));
            s.end_probe();
            // A fresh load sees a clean slate.
            s.load_candidates(&[1], universe);
            assert!(s.probe_take(1));
            s.end_probe();
        }
    }

    #[test]
    fn mark_rounds_compact_to_hit_candidates() {
        let mut s = QueryScratch::default();
        s.reset();
        let mut cands = vec![1u32, 4, 7, 9];
        s.begin_mark(cands.len());
        // Replicated runs: 7 appears in both, and is still emitted once.
        s.mark(&cands, &[2, 7, 9 | TOMBSTONE]);
        s.mark(&cands, &[4, 7]);
        s.finish_mark(&mut cands);
        assert_eq!(cands, vec![4, 7]);
        // A fresh round starts from clean flags.
        s.begin_mark(cands.len());
        s.mark(&cands, &[4]);
        s.finish_mark(&mut cands);
        assert_eq!(cands, vec![4]);
        let stats = {
            s.reset();
            s.last_stats()
        };
        assert_eq!(stats.kernel_scanned_sum(), stats.scanned);
        assert!(stats.merge_steps >= 3);
    }

    #[test]
    fn global_counters_accumulate() {
        let before = global_stats();
        let mut s = QueryScratch::default();
        assert_eq!(
            seq(&mut s, &[1, 2, 3], &[Postings::Ids(&[2, 3, 4])]),
            vec![2, 3]
        );
        drop(s); // a scratch flushes its counters when the query finishes
        let after = global_stats();
        assert!(after.scanned > before.scanned);
        assert_eq!(after.kernel_scanned_sum(), after.scanned);
    }
}
