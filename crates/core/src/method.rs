//! The method registry: which temporal-IR methods exist, what each is
//! called, and how each is built with the paper's tuned defaults.
//!
//! Everything that enumerates, names, parses or constructs "a method" —
//! the CLI, the server, the validators, the benchmark harness, the
//! cross-index tests — goes through [`Method`], so adding or retuning a
//! method is an edit to this file alone. Callers that can work behind
//! `dyn` use [`Method::build`]; callers that need the concrete type (to
//! require `Validate`, `Clone`, `'static`, …) use [`crate::with_method!`].

use std::fmt;
use std::str::FromStr;

use crate::collection::Collection;
use crate::index_trait::TemporalIrIndex;

/// One of the nine temporal-IR indexing methods of the evaluation, in
/// the paper's presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Base temporal inverted file, no temporal indexing (§2.2).
    Tif,
    /// tIF+Slicing (Berberich et al., §2.2).
    Slicing,
    /// tIF+Sharding (Anand et al., §2.2).
    Sharding,
    /// tIF+HINT with binary-search intersections (Algorithm 3).
    TifHintBs,
    /// tIF+HINT with merge-sort intersections (Algorithm 4).
    TifHintMs,
    /// tIF+HINT+Slicing hybrid (§3.2).
    Hybrid,
    /// irHINT, performance variant (§4.1).
    IrHintPerf,
    /// irHINT, size variant (§4.2).
    IrHintSize,
    /// Compressed tIF (extension; §7 future work).
    Ctif,
}

impl Method {
    /// Every method, in presentation order.
    pub const ALL: [Method; 9] = [
        Method::Tif,
        Method::Slicing,
        Method::Sharding,
        Method::TifHintBs,
        Method::TifHintMs,
        Method::Hybrid,
        Method::IrHintPerf,
        Method::IrHintSize,
        Method::Ctif,
    ];

    /// The CLI / wire spelling (`--method irhint-perf`); round-trips
    /// through [`FromStr`].
    pub const fn name(self) -> &'static str {
        match self {
            Method::Tif => "tif",
            Method::Slicing => "slicing",
            Method::Sharding => "sharding",
            Method::TifHintBs => "tif-hint-bs",
            Method::TifHintMs => "tif-hint-ms",
            Method::Hybrid => "hybrid",
            Method::IrHintPerf => "irhint-perf",
            Method::IrHintSize => "irhint-size",
            Method::Ctif => "ctif",
        }
    }

    /// The name the paper's tables and figures use; also what the built
    /// index's [`TemporalIrIndex::name`] reports.
    pub const fn paper_name(self) -> &'static str {
        match self {
            Method::Tif => "tIF",
            Method::Slicing => "tIF+Slicing",
            Method::Sharding => "tIF+Sharding",
            Method::TifHintBs => "tIF+HINT(bs)",
            Method::TifHintMs => "tIF+HINT(ms)",
            Method::Hybrid => "tIF+HINT+Slicing",
            Method::IrHintPerf => "irHINT(perf)",
            Method::IrHintSize => "irHINT(size)",
            Method::Ctif => "cTIF",
        }
    }

    /// Builds the method's index over a collection with the paper-tuned
    /// default parameters.
    pub fn build(self, coll: &Collection) -> Box<dyn TemporalIrIndex + Send + Sync> {
        crate::with_method!(self, |I, build| Box::new(build(coll)))
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Method {
    type Err = String;

    /// Parses the CLI spelling; the error lists every valid one.
    fn from_str(s: &str) -> Result<Method, String> {
        Method::ALL
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Method::ALL.iter().map(|m| m.name()).collect();
                format!("unknown method {s} (methods: {})", names.join(", "))
            })
    }
}

/// Statically dispatches on a [`Method`]: evaluates `body` once per
/// method with `I` aliased to the method's concrete index type and
/// `build` bound to its default-parameter constructor
/// (`FnOnce(&Collection) -> I`), so `body` can call functions generic
/// over the index type with bounds this crate cannot name.
///
/// ```
/// use tir_core::{with_method, Collection, Method, TemporalIrIndex};
///
/// fn footprint<I: TemporalIrIndex + Clone>(index: I) -> usize {
///     index.clone().size_bytes()
/// }
/// let coll = Collection::running_example();
/// for m in Method::ALL {
///     assert!(with_method!(m, |I, build| footprint::<I>(build(&coll))) > 0);
/// }
/// ```
#[macro_export]
macro_rules! with_method {
    (@bind $ty:ty, $ctor:expr, $I:ident, $build:ident, $body:expr) => {{
        #[allow(dead_code)]
        type $I = $ty;
        #[allow(unused_variables)]
        let $build = $ctor;
        $body
    }};
    // The table: one row per method — concrete type, tuned constructor.
    ($method:expr, |$I:ident, $build:ident| $body:expr) => {
        match $method {
            $crate::Method::Tif => {
                $crate::with_method!(@bind $crate::Tif, $crate::Tif::build, $I, $build, $body)
            }
            $crate::Method::Slicing => $crate::with_method!(
                @bind $crate::TifSlicing, $crate::TifSlicing::build, $I, $build, $body
            ),
            $crate::Method::Sharding => $crate::with_method!(
                @bind $crate::TifSharding, $crate::TifSharding::build, $I, $build, $body
            ),
            $crate::Method::TifHintBs => $crate::with_method!(
                @bind $crate::TifHint,
                |c: &$crate::Collection| {
                    $crate::TifHint::build(c, $crate::TifHintConfig::binary_search())
                },
                $I, $build, $body
            ),
            $crate::Method::TifHintMs => $crate::with_method!(
                @bind $crate::TifHint,
                |c: &$crate::Collection| {
                    $crate::TifHint::build(c, $crate::TifHintConfig::merge_sort())
                },
                $I, $build, $body
            ),
            $crate::Method::Hybrid => $crate::with_method!(
                @bind $crate::TifHintSlicing, $crate::TifHintSlicing::build, $I, $build, $body
            ),
            $crate::Method::IrHintPerf => $crate::with_method!(
                @bind $crate::IrHintPerf, $crate::IrHintPerf::build, $I, $build, $body
            ),
            $crate::Method::IrHintSize => $crate::with_method!(
                @bind $crate::IrHintSize, $crate::IrHintSize::build, $I, $build, $body
            ),
            $crate::Method::Ctif => $crate::with_method!(
                @bind $crate::CompressedTif, $crate::CompressedTif::build, $I, $build, $body
            ),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TimeTravelQuery;

    #[test]
    fn names_round_trip_and_are_distinct() {
        for m in Method::ALL {
            assert_eq!(m.name().parse::<Method>(), Ok(m));
            assert_eq!(m.to_string(), m.name());
        }
        let err = "nope".parse::<Method>().unwrap_err();
        assert!(err.contains("nope") && err.contains("irhint-size"), "{err}");
    }

    #[test]
    fn every_method_builds_its_named_index() {
        let coll = Collection::running_example();
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        for m in Method::ALL {
            let index = m.build(&coll);
            assert_eq!(index.name(), m.paper_name());
            let mut hits = index.query(&q);
            hits.sort_unstable();
            assert_eq!(hits, vec![1, 3, 6], "{m}");
        }
    }
}
