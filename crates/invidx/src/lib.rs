//! # tir-invidx
//!
//! Inverted-index substrate for temporal information retrieval:
//!
//! * [`Dictionary`] — string-to-element-id interning with document
//!   frequencies;
//! * [`ColumnList`] — the one uncompressed time-aware postings list: an
//!   id column plus `W` endpoint columns, id-sorted ([`TemporalList`]) or
//!   start-sorted ([`ByStart`]);
//! * [`FlatInverted`] — the flat, low-overhead per-division index used
//!   inside irHINT partitions: one column list cut into element runs,
//!   id-only ([`CompactInverted`]) or carrying `[start, end]`
//!   ([`CompactTemporalInverted`]);
//! * [`kernels`] — merge / galloping sorted-set intersection primitives,
//!   each written once over a match sink, tombstone-aware, and the
//!   comparison-free pass that puts a served answer in ascending order;
//! * [`simd`] — the runtime-dispatched SSSE3 stream-vbyte decoder that
//!   [`BlockPostings`] runs on (the one audited `unsafe` module in this
//!   crate; the scalar decode is always available, `TIR_SIMD=off` forces
//!   it);
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

pub mod column_list;
pub mod compact;
pub mod compress;
pub mod dict;
pub mod elem_bitmaps;
pub mod kernels;
pub mod planner;
pub mod simd;

pub use column_list::{ById, ByStart, ColumnList, SortKey, TemporalList};
pub use compact::{CompactInverted, CompactTemporalInverted, FlatInverted, TemporalPostings};
pub use compress::{BlockPostings, CompressedTemporalPostings};
pub use dict::Dictionary;
pub use elem_bitmaps::{ElemBitmaps, ELEM_BITMAP_DEN};
pub use kernels::{
    intersect_gallop_into, intersect_gallop_rev_into, intersect_merge_into, live,
    order_ids_ascending, raw, ORDER_SPAN_WORDS_PER_ID, TOMBSTONE,
};
pub use planner::{Kernel, PlanStats, Postings, QueryScratch};
pub use simd::SimdLevel;
