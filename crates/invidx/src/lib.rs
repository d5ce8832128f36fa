//! # tir-invidx
//!
//! Inverted-index substrate for temporal information retrieval:
//!
//! * [`Dictionary`] — string-to-element-id interning with document
//!   frequencies;
//! * [`FlatInverted`] — the flat, low-overhead per-division index used
//!   inside irHINT partitions, id-only ([`CompactInverted`]) or carrying
//!   `[start, end]` ([`CompactTemporalInverted`]);
//! * [`kernels`] — merge / galloping / adaptive sorted-set intersection
//!   primitives, tombstone-aware, and the comparison-free pass that puts
//!   a served answer in ascending order;
//! * [`simd`] — runtime-dispatched SSE2/SSSE3/AVX2 variants of the hot
//!   kernels (the one audited `unsafe` module in this crate; scalar
//!   fallbacks always available, `TIR_SIMD=off` forces them);
//! * [`planner`] — the cost-based conjunction planner and reusable
//!   [`QueryScratch`] arena with per-query kernel counters;
//! * [`ElemBitmaps`] — global membership bitmaps for an index's few dense
//!   elements, an accelerator beside per-division postings;
//! * [`compress`] — stream-vbyte [`BlockPostings`] with per-block skip
//!   bounds and delta/varint temporal postings (the paper's compression
//!   future-work direction).

// `deny`, not `forbid`, so the audited [`simd`] module can locally
// allow intrinsics. The `unsafe-code` analyze rule pins the allowlist to
// exactly that file.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod compact;
pub mod compress;
pub mod dict;
pub mod elem_bitmaps;
pub mod kernels;
pub mod planner;
pub mod simd;

pub use compact::{CompactInverted, CompactTemporalInverted, FlatInverted, TemporalPostings};
pub use compress::{BlockPostings, CompressedTemporalPostings};
pub use dict::Dictionary;
pub use elem_bitmaps::{ElemBitmaps, ELEM_BITMAP_DEN};
pub use kernels::{
    intersect_adaptive_into, intersect_gallop_into, intersect_gallop_rev_into,
    intersect_merge_into, live, mark_hits, mark_hits_gallop, mark_hits_gallop_rev,
    order_ids_ascending, raw, ORDER_SPAN_WORDS_PER_ID, TOMBSTONE,
};
pub use planner::{global_stats, Kernel, PlanStats, Postings, QueryScratch};
pub use simd::SimdLevel;
