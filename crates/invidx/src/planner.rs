//! Cost-based conjunction planner and per-query scratch arena.
//!
//! Every index method evaluates a time-travel query as a conjunction:
//! seed a candidate set from the least frequent element, then intersect
//! with the remaining elements in ascending document frequency. This
//! module owns the *how* of each intersection step:
//!
//! * sorted array vs sorted array → **merge** or **gallop** in either
//!   direction, picked by the size ratio ([`crate::kernels::GALLOP_RATIO`])
//!   in one place for both the array step and the run-marking round;
//! * anything vs the present-only [`Postings::Bits`] view of an
//!   index-wide [`crate::ElemBitmaps`] entry → **bitmap-probe** (O(1)
//!   membership per candidate), or **word-AND** when the candidate set is
//!   itself dense enough to be worth materializing as a bitmap, after
//!   which consecutive dense steps AND whole 64-bit words;
//! * id-sorted runs that may share ids (slices, id-sorted HINT
//!   divisions, a compressed list's decoded blocks and its overlay) → one
//!   marking round, [`QueryScratch::intersect_runs`];
//! * ids offered in no id order (shards, beneficially sorted HINT
//!   divisions) → one take-once round, [`QueryScratch::intersect_offered`],
//!   over a candidate bitmap when the universe is small enough, binary
//!   search otherwise.
//!
//! A policy only says which runs or ids are relevant; the planner runs the
//! round, picks the kernel and counts the work.
//!
//! All state lives in a reusable [`QueryScratch`] so a steady-state query
//! performs no allocation beyond its reply vector, and every step is
//! counted: per-query via [`QueryScratch::last_stats`], process-wide via
//! [`global_stats`] (surfaced through `tir serve`'s `STATS`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::compress::BlockPostings;
use crate::kernels::{
    gallop_matches, gallop_rev_matches, intersect_gallop_rev_into, live, merge_matches, raw,
    GALLOP_RATIO, TOMBSTONE,
};
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
/// compressed blocks a run round decoded ([`RunMarker::mark_blocks`]) and
/// is deliberately *not* part of that sum — it is a unit of decode work,
/// not of elements scanned (those are counted by the kernel each decoded
/// block was marked on).
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
    /// A present-only bitmap: bit `id % 64` of word `id / 64` is set iff
    /// `id` is a live member, ids past the slice are absent — the
    /// [`crate::ElemBitmaps`] view. Candidates need not be sorted for this
    /// operand.
    Bits(&'a [u64]),
}

/// The three sorted-step algorithms.
#[derive(Clone, Copy)]
enum Algo {
    Merge,
    Gallop,
    GallopRev,
}

/// The size-ratio choice of every sorted step, array or run: gallop
/// through the longer side once it is [`GALLOP_RATIO`] times the shorter,
/// else merge. Returns the algorithm, its scalar counter (both gallop
/// directions share one: same cost shape) and the elements it scans, the
/// side it iterates.
#[inline]
fn choose(cands: usize, postings: usize) -> (Algo, Kernel, u64) {
    if cands.saturating_mul(GALLOP_RATIO) < postings {
        (Algo::Gallop, Kernel::Gallop, cands as u64)
    } else if postings.saturating_mul(GALLOP_RATIO) < cands {
        (Algo::GallopRev, Kernel::Gallop, postings as u64)
    } else {
        (Algo::Merge, Kernel::Merge, (cands + postings) as u64)
    }
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
    /// before `query_into`; every non-seed step then starts with a probe
    /// ([`QueryScratch::intersect`], [`QueryScratch::begin_policy_step`])
    /// that reads the wall clock once per [`DEADLINE_PROBE_EVERY`] scanned
    /// elements and, on expiry, drops every candidate so the rest of the
    /// plan collapses to O(1) early-exits. After the query, [`QueryScratch::timed_out`]
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

    /// Records a step that ran outside the planner's own kernels (a seed
    /// step's scan) so the totals stay honest.
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
        let (algo, mut kernel, scanned) = choose(self.cands.len(), ids.len());
        let (cands, next) = (&self.cands, &mut self.next);
        match algo {
            // The AVX2 gallop shares the scalar counter: same cost shape.
            Algo::Gallop => _ = simd::gallop_into(cands, ids, next),
            Algo::GallopRev => intersect_gallop_rev_into(cands, ids, next),
            Algo::Merge => {
                if simd::merge_into(cands, ids, next) {
                    kernel = Kernel::SimdMerge;
                }
            }
        }
        self.stats.note(kernel, scanned);
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

    /// Starts a non-seed step that does not go through
    /// [`QueryScratch::intersect`] (a policy's own restriction): probes an
    /// armed deadline, as `intersect` does, then hands the candidates back
    /// in array form, ascending, if a word-AND step left them as a bitmap.
    /// Array-form candidates are left as they are.
    pub fn begin_policy_step(&mut self) {
        self.check_deadline();
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

    /// One step over id-sorted runs that may share ids (slice-replicated
    /// sub-lists, id-sorted HINT divisions, a compressed base's blocks and
    /// its overlay): `each_run` hands every relevant run to
    /// [`RunMarker::mark_run`] or [`RunMarker::mark_blocks`], which mark
    /// the candidates the run holds; the candidates are then compacted, in
    /// order, to the marked ones, so an id held by several runs survives
    /// once. The candidates must be in array form and ascending.
    pub fn intersect_runs(&mut self, each_run: impl FnOnce(&mut RunMarker<'_>)) {
        debug_assert!(!self.bits_live, "begin_policy_step hands back array form");
        if self.cands.is_empty() {
            return;
        }
        self.hits.clear();
        self.hits.resize(self.cands.len(), false);
        each_run(&mut RunMarker {
            cands: &self.cands,
            hits: &mut self.hits,
            blk: &mut self.blk,
            stats: &mut self.stats,
        });
        let mut hits = self.hits.iter();
        self.cands.retain(|_| hits.next() == Some(&true));
    }

    /// One step over ids that arrive in no id order (start-sorted shards,
    /// beneficially sorted HINT divisions): the candidates (array form, any
    /// order) are indexed — as a bitmap up to [`MAX_PROBE_UNIVERSE`], else
    /// sorted for binary search — and `walk` offers ids to
    /// [`IdTaker::offer_id`], returning how many postings it scanned. Each
    /// candidate is taken at most once, so replicated postings emit it
    /// once; the survivors are the candidates, in the order taken.
    pub fn intersect_offered(&mut self, walk: impl FnOnce(&mut IdTaker<'_>) -> u64) {
        debug_assert!(!self.bits_live, "begin_policy_step hands back array form");
        if self.cands.is_empty() {
            return;
        }
        std::mem::swap(&mut self.loaded, &mut self.cands);
        let universe = self
            .loaded
            .iter()
            .fold(0u32, |u, &c| u.max(c.saturating_add(1)));
        let (kernel, index) = if universe <= MAX_PROBE_UNIVERSE {
            let w = (universe as usize).div_ceil(64);
            if self.bits.len() < w {
                self.bits.resize(w, 0);
            }
            for &c in &self.loaded {
                self.bits[c as usize / 64] |= 1u64 << (c % 64);
            }
            (Kernel::BitmapProbe, CandIndex::Bits(&mut self.bits[..w]))
        } else {
            self.loaded.sort_unstable();
            self.hits.clear();
            self.hits.resize(self.loaded.len(), false);
            let (ids, taken) = (&self.loaded[..], &mut self.hits[..]);
            (Kernel::Gallop, CandIndex::Sorted { ids, taken })
        };
        self.stats.note(kernel, self.loaded.len() as u64);
        let scanned = walk(&mut IdTaker {
            index,
            out: &mut self.cands,
        });
        self.stats.note(kernel, scanned);
        if kernel == Kernel::BitmapProbe {
            // Candidates never taken still have their bit set.
            for &c in &self.loaded {
                self.bits[c as usize / 64] &= !(1u64 << (c % 64));
            }
        }
        self.loaded.clear();
    }
}

impl Drop for QueryScratch {
    fn drop(&mut self) {
        self.finish_query();
    }
}

/// The handle [`QueryScratch::intersect_runs`] passes to its closure.
pub struct RunMarker<'a> {
    cands: &'a [u32],
    hits: &'a mut [bool],
    blk: &'a mut Vec<u32>,
    stats: &'a mut PlanStats,
}

/// Marks `hits[i]` for every `cands[i]` with a live posting in `postings`
/// (sorted by raw id), on the kernel the size ratio picks, and counts one
/// step.
fn mark_sorted(cands: &[u32], hits: &mut [bool], postings: &[u32], stats: &mut PlanStats) {
    let (algo, kernel, scanned) = choose(cands.len(), postings.len());
    let mark = |i: usize, _| hits[i] = true;
    match algo {
        Algo::Merge => merge_matches(cands, postings, mark),
        Algo::Gallop => gallop_matches(cands, postings, mark),
        Algo::GallopRev => gallop_rev_matches(cands, postings, mark),
    }
    stats.note(kernel, scanned);
}

impl RunMarker<'_> {
    /// Marks every candidate with a live posting in `postings` (sorted by
    /// raw id), on the kernel the size ratio picks, and counts the run as
    /// one step.
    pub fn mark_run(&mut self, postings: &[u32]) {
        mark_sorted(self.cands, self.hits, postings, self.stats);
    }

    /// Marks every candidate `blocks` holds and `dead` (strictly
    /// ascending) does not list. A block whose `[first, last]` cannot meet
    /// the remaining candidates is skipped without decoding; every other
    /// block is decoded into the scratch's block buffer, its dead ids
    /// tombstoned, and marked against the candidates up to its last id
    /// only — one step and one decoded block each, so the size ratio is
    /// the window's to the block's.
    pub fn mark_blocks(&mut self, blocks: &BlockPostings, dead: &[u32]) {
        let cands = self.cands;
        let Some(&last_cand) = cands.last() else {
            return;
        };
        let mut ci = 0usize;
        // First block that can hold the smallest candidate.
        let mut b = blocks.first_block_reaching(cands[0]);
        while b < blocks.num_blocks() && ci < cands.len() {
            let (first, last) = (blocks.block_first(b), blocks.block_last(b));
            if first > last_cand {
                break;
            }
            if last < cands[ci] {
                b += 1;
                continue;
            }
            blocks.decode_block_into(b, self.blk);
            let lo = dead.partition_point(|&id| id < first);
            let hi = dead.partition_point(|&id| id <= last);
            for &id in &dead[lo..hi] {
                if let Ok(j) = self.blk.binary_search_by_key(&id, |&p| raw(p)) {
                    self.blk[j] |= TOMBSTONE;
                }
            }
            let ce = ci + cands[ci..].partition_point(|&c| c <= last);
            mark_sorted(&cands[ci..ce], &mut self.hits[ci..ce], self.blk, self.stats);
            self.stats.blocks_decoded += 1;
            ci = ce;
            b += 1;
        }
    }
}

/// How a take-once round indexes its candidates.
enum CandIndex<'a> {
    /// Bit `id` set iff `id` is a candidate not yet taken.
    Bits(&'a mut [u64]),
    /// The candidates ascending, with a taken flag each.
    Sorted {
        ids: &'a [u32],
        taken: &'a mut [bool],
    },
}

/// The handle [`QueryScratch::intersect_offered`] passes to its walk.
pub struct IdTaker<'a> {
    index: CandIndex<'a>,
    out: &'a mut Vec<u32>,
}

impl IdTaker<'_> {
    /// Keeps `raw_id` if it is a candidate not taken yet, and takes it.
    /// Does no counter bookkeeping: the walk returns its scan count once.
    #[inline]
    pub fn offer_id(&mut self, raw_id: u32) {
        let fresh = match &mut self.index {
            CandIndex::Bits(words) => match words.get_mut(raw_id as usize / 64) {
                Some(w) if (*w >> (raw_id % 64)) & 1 == 1 => {
                    *w &= !(1u64 << (raw_id % 64));
                    true
                }
                _ => false,
            },
            CandIndex::Sorted { ids, taken } => ids
                .binary_search(&raw_id)
                .is_ok_and(|i| !std::mem::replace(&mut taken[i], true)),
        };
        if fresh {
            self.out.push(raw_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn a_policy_step_gets_a_word_and_result_back_ascending() {
        let evens = bits_of(&(0..128).map(|i| i * 2).collect::<Vec<_>>(), 256);
        let mut s = QueryScratch::default();
        s.reset();
        // Dense candidates, given in descending order: the word-AND leaves
        // them as a bitmap, and `cands` no longer says what survived.
        s.cands.extend((0..64).rev());
        s.intersect(Postings::Bits(&evens));
        assert_eq!(s.last_stats().word_and_steps, 0, "still mid-query");
        s.begin_policy_step();
        let want: Vec<u32> = (0..32).map(|i| i * 2).collect();
        assert_eq!(s.cands, want);
        // A run round reads the handed-back array directly.
        s.intersect_runs(|runs| runs.mark_run(&[2, 3, 40, 41]));
        assert_eq!(s.cands, vec![2, 40]);
        // Array-form candidates are left as they are, order included.
        s.cands = vec![9, 3];
        s.begin_policy_step();
        assert_eq!(s.cands, vec![9, 3]);
        let mut out = Vec::new();
        s.take_into(&mut out);
        assert_eq!(out, vec![9, 3]);
        assert_eq!(s.last_stats().word_and_steps, 1);
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
    fn offered_rounds_take_each_candidate_once() {
        let mut s = QueryScratch::default();
        // Small ids index the candidates as a bitmap; one id at
        // MAX_PROBE_UNIVERSE sends the round to the sorted fallback.
        for far in [99, MAX_PROBE_UNIVERSE] {
            s.reset();
            s.cands.extend_from_slice(&[5, far, 1, 9]);
            s.intersect_offered(|taker| {
                for id in [1, 1, 2, far, 9, far, 9] {
                    taker.offer_id(id);
                }
                7
            });
            assert_eq!(s.cands, vec![1, far, 9], "taken candidates never re-emit");
            // A fresh round sees a clean slate.
            s.intersect_offered(|taker| {
                [9, far, 1].into_iter().for_each(|id| taker.offer_id(id));
                3
            });
            assert_eq!(s.cands, vec![9, far, 1]);
            s.reset();
            let st = s.last_stats();
            let steps = if far < MAX_PROBE_UNIVERSE {
                st.bitmap_probe_steps
            } else {
                st.gallop_steps
            };
            assert_eq!(steps, 4, "a load and a scan per round, far={far}");
            assert_eq!(st.scanned, 4 + 7 + 3 + 3);
            // The word arena is left all-zero for the answer's ordering.
            let mut ids = [70, 5, 1];
            s.order_answer_ids(&mut ids);
            assert_eq!(ids, [1, 5, 70]);
        }
    }

    #[test]
    fn run_rounds_compact_to_the_candidates_some_run_holds() {
        let mut s = QueryScratch::default();
        s.reset();
        s.cands.extend_from_slice(&[1, 4, 7, 9]);
        // Replicated runs: 7 is in both and survives once; 9's posting is
        // tombstoned.
        s.intersect_runs(|runs| {
            runs.mark_run(&[2, 7, 9 | TOMBSTONE]);
            runs.mark_run(&[4, 7]);
        });
        assert_eq!(s.cands, vec![4, 7]);
        // A fresh round starts from clean flags.
        s.intersect_runs(|runs| runs.mark_run(&[4]));
        assert_eq!(s.cands, vec![4]);
        // Either skew gallops, counting the side it iterates.
        let long: Vec<u32> = (0..100).collect();
        s.cands = vec![5, 500];
        s.intersect_runs(|runs| runs.mark_run(&long));
        assert_eq!(s.cands, vec![5]);
        s.cands = long;
        s.intersect_runs(|runs| runs.mark_run(&[50, 60 | TOMBSTONE]));
        assert_eq!(s.cands, vec![50]);
        // A round with no relevant run keeps nothing.
        s.intersect_runs(|_| {});
        assert!(s.cands.is_empty());
        s.reset();
        let st = s.last_stats();
        assert_eq!(st.kernel_scanned_sum(), st.scanned);
        assert_eq!((st.merge_steps, st.merge_scanned), (3, 7 + 6 + 3));
        assert_eq!((st.gallop_steps, st.gallop_scanned), (2, 2 + 2));
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
