//! # temporal-ir
//!
//! Facade crate for the temporal information retrieval workspace: fast
//! indexing for *time-travel IR queries* — retrieve all objects whose time
//! interval overlaps a query interval and whose description contains all
//! query elements (Rauch & Bouros, "Fast Indexing for Temporal Information
//! Retrieval").
//!
//! Re-exports the substrates and index implementations:
//!
//! * [`hint`] — the HINT interval index and baselines;
//! * [`invidx`] — the inverted-index substrate;
//! * [`core`] — the object model, the nine temporal-IR indexes and their
//!   [`Method`] registry;
//! * [`datagen`] — synthetic / real-world-shaped data and query workloads.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use tir_core as core;
pub use tir_datagen as datagen;
pub use tir_hint as hint;
pub use tir_invidx as invidx;

pub use tir_core::prelude::*;
