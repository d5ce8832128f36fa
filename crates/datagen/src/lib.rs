//! # tir-datagen
//!
//! Workload generation for the temporal-IR evaluation:
//!
//! * [`synthetic`] — the Table 4 generator (zipfian durations and element
//!   frequencies, normal interval positions);
//! * [`realworld`] — shape-matched stand-ins for the ECLOG and WIKIPEDIA
//!   datasets of Table 3;
//! * [`queries`] — time-travel query workloads over the four experimental
//!   knobs (extent, |q.d|, element frequency bins, selectivity bins) with
//!   guaranteed non-empty results;
//! * [`mixed`] — interleaved read/write operation streams for the
//!   serving layer (`tir-serve`) and its load generator;
//! * [`dist`] — the in-house zipf and normal samplers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod mixed;
pub mod queries;
pub mod realworld;
pub mod synthetic;

pub use mixed::{mixed_stream, with_sparse_ids, MixedSpec, Op};
pub use queries::{
    selectivity_binned, workload, ElemSource, Extent, WorkloadSpec, SELECTIVITY_BINS,
    SELECTIVITY_LABELS,
};
pub use realworld::{eclog_like, generate_shape, wikipedia_like, RealShape, ECLOG, WIKIPEDIA};
pub use synthetic::{generate, SyntheticConfig};
