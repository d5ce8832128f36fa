//! # tir-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Section 5). The [`experiments`] module contains one
//! function per table/figure; the `repro` binary dispatches them:
//!
//! ```text
//! cargo run --release -p tir-bench --bin repro -- all --scale 1.0
//! cargo run --release -p tir-bench --bin repro -- fig11 --queries 2000
//! ```
//!
//! Scales are fractions of the harness defaults, which are laptop-sized
//! versions of the paper's datasets (see DESIGN.md for the substitution
//! rationale).

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

pub use harness::{
    build_method, datasets, par_throughput, throughput, BuildStats, Dataset, COMPETITION, TABLE5,
    TIF_HINT_VARIANTS,
};
