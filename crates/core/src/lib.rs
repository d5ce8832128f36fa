//! # tir-core
//!
//! Indexes for **time-travel IR queries** (Rauch & Bouros, "Fast Indexing
//! for Temporal Information Retrieval"): given a query interval and a set
//! of descriptive elements, retrieve every object whose lifespan overlaps
//! the interval and whose description contains all elements.
//!
//! ## Index implementations
//!
//! The first six are one skeleton, [`PerTerm`], over what a term's
//! postings are ([`TermPartition`]); the next two are time-first. Both
//! halves answer a dense non-seed query term from one index-wide
//! membership bitmap (`tir_invidx::ElemBitmaps`).
//!
//! | Type | Approach | Paper section |
//! |------|----------|---------------|
//! | [`Tif`] | base temporal inverted file: a term is one id-sorted list | §2.2, Alg. 1 |
//! | [`TifSlicing`] | a term's list cut into vertical time slices | §2.2 |
//! | [`TifSharding`] | a term's list cut into staircase shards + impact lists | §2.2 |
//! | [`TifHint`] (binary-search) | a term is a HINT, Alg. 3 | §3.1 |
//! | [`TifHint`] (merge-sort) | a term is an id-sorted HINT, Alg. 4 | §3.1 |
//! | [`TifHintSlicing`] | dual-copy hybrid: a term is a HINT plus slices | §3.2 |
//! | [`IrHintPerf`] | time-first, tIF per division | §4.1, Alg. 5 |
//! | [`IrHintSize`] | time-first, decoupled dual structure | §4.2, Alg. 6 |
//! | [`CompressedTif`] | block-compressed base + uncompressed overlay | §7 (future work) |
//!
//! Those nine rows are the closed set [`Method`] enumerates: the registry
//! names each method (CLI spelling and paper name), builds it with the
//! paper-tuned defaults behind `dyn` ([`Method::build`]), and dispatches
//! statically to the concrete type ([`with_method!`]). All indexes
//! implement [`TemporalIrIndex`] — one required query entry point,
//! `query_into`, with `query` provided over it — and agree exactly with
//! the [`BruteForce`] oracle.
//!
//! Extension beyond the paper: [`ranked`] adds relevance-ranked top-k
//! retrieval (`tir rank`).
//!
//! ```
//! use tir_core::prelude::*;
//!
//! let coll = Collection::running_example();
//! let index = IrHintPerf::build(&coll);
//! let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
//! let mut hits = index.query(&q);
//! hits.sort_unstable();
//! assert_eq!(hits, vec![1, 3, 6]); // objects o2, o4, o7 of Figure 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Ids read from `tir_hint` division views are tested with
// `tir_invidx::{live, raw}` throughout this crate; the two crates do not
// depend on each other, so the tombstone bits they define agree here.
const _: () = assert!(tir_hint::TOMBSTONE == tir_invidx::TOMBSTONE);

pub mod collection;
pub mod compressed_tif;
pub mod freq;
pub mod hybrid;
pub mod index_trait;
pub mod irhint_perf;
pub mod irhint_size;
pub mod method;
pub mod oracle;
pub mod per_term;
pub mod postings;
pub mod ranked;
pub mod sharding;
pub mod slicing;
pub mod tif;
pub mod tif_hint;
pub mod types;

pub use collection::{Collection, CollectionStats};
pub use compressed_tif::CompressedTif;
pub use hybrid::TifHintSlicing;
pub use index_trait::{apply_ops, delete_batch, insert_batch, TemporalIrIndex, WriteOp};
pub use irhint_perf::IrHintPerf;
pub use irhint_size::IrHintSize;
pub use method::Method;
pub use oracle::BruteForce;
pub use per_term::{PerTerm, TermPartition};
pub use ranked::{RankedQuery, RankedTif, ScoredHit};
pub use sharding::{TifSharding, IMPACT_STRIDE};
pub use slicing::TifSlicing;
pub use tif::Tif;
pub use tif_hint::{IntersectStrategy, TifHint, TifHintConfig};
pub use tir_invidx::{Kernel, PlanStats, QueryScratch};
pub use types::{ElemId, Interval, Object, ObjectId, TimeTravelQuery, Timestamp};

/// Commonly used items, star-importable.
pub mod prelude {
    pub use crate::collection::{Collection, CollectionStats};
    pub use crate::compressed_tif::CompressedTif;
    pub use crate::hybrid::TifHintSlicing;
    pub use crate::index_trait::{apply_ops, delete_batch, insert_batch, TemporalIrIndex, WriteOp};
    pub use crate::irhint_perf::IrHintPerf;
    pub use crate::irhint_size::IrHintSize;
    pub use crate::method::Method;
    pub use crate::oracle::BruteForce;
    pub use crate::ranked::{RankedQuery, RankedTif, ScoredHit};
    pub use crate::sharding::TifSharding;
    pub use crate::slicing::TifSlicing;
    pub use crate::tif::Tif;
    pub use crate::tif_hint::{IntersectStrategy, TifHint, TifHintConfig};
    pub use crate::types::{ElemId, Interval, Object, ObjectId, TimeTravelQuery, Timestamp};
    pub use tir_invidx::{Kernel, PlanStats, QueryScratch};
}
