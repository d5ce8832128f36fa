//! Workspace-wide call graph with suffix-based name resolution.
//!
//! Static resolution of Rust method calls without type inference is
//! undecidable in general, so the graph **over-approximates**: a call
//! named `foo` links to *every* workspace function named `foo`. That is
//! the right bias for a lint gate — the rules err toward asking, and a
//! false pairing is silenced with a justified `analyze:allow` at the
//! offending site. Two refinements keep the noise low in practice:
//!
//! - a qualified call `Owner::foo(…)` resolves only to functions whose
//!   `impl`/`trait` owner is literally `Owner`, when any exist;
//! - calls with no workspace definition (std, shims) are leaves — the
//!   rules judge them by *name pattern* at the call site instead.

use std::collections::HashMap;

use crate::parser::{extract_calls, Call, FnDef};

/// The graph: all parsed functions plus their extracted call sites.
pub struct CallGraph {
    fns: Vec<FnDef>,
    calls: Vec<Vec<Call>>,
    by_name: HashMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph from every function in the workspace, in feed
    /// order (deterministic: the driver sorts files).
    pub fn build(fns: Vec<FnDef>) -> CallGraph {
        let calls: Vec<Vec<Call>> = fns.iter().map(|f| extract_calls(&f.tokens)).collect();
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        CallGraph {
            fns,
            calls,
            by_name,
        }
    }

    /// All parsed functions, indexable by the ids this graph hands out.
    pub fn fns(&self) -> &[FnDef] {
        &self.fns
    }

    /// The call sites extracted from function `id`'s body.
    pub fn calls(&self, id: usize) -> &[Call] {
        &self.calls[id]
    }

    /// Ids of every function named `name`.
    pub fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Resolves a call site to candidate definitions by name suffix.
    /// Macros never resolve (their bodies are judged at the call site).
    pub fn resolve(&self, call: &Call) -> Vec<usize> {
        if call.is_macro {
            return Vec::new();
        }
        let candidates = self.named(&call.name);
        if let Some(qual) = &call.qual {
            let owned: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| self.fns[i].owner.as_deref() == Some(qual.as_str()))
                .collect();
            if !owned.is_empty() {
                return owned;
            }
            // A type qualifier with no workspace impl (`Vec::new`,
            // `Arc::clone`) is external — making it a leaf instead of a
            // name-wide wildcard keeps `Vec::new()` from "reaching"
            // every constructor in the workspace. A lowercase
            // qualifier is a module path (`kernels::merge_matches`) and
            // falls through to the name-wide set.
            if qual.chars().next().is_some_and(char::is_uppercase) {
                return Vec::new();
            }
        }
        candidates.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_fns;
    use crate::source::SourceFile;

    fn graph(src: &str) -> CallGraph {
        CallGraph::build(parse_fns("snippet", &SourceFile::parse("snippet.rs", src)))
    }

    #[test]
    fn suffix_resolution_links_methods_by_name() {
        let g = graph(
            "impl A { fn helper(&self) {} }\n\
             impl B { fn helper(&self) {} }\n\
             fn caller(x: &A) { x.helper(); }\n",
        );
        let caller = g.named("caller")[0];
        let call = &g.calls(caller)[0];
        assert_eq!(g.resolve(call).len(), 2, "suffix match is intentional");
    }

    #[test]
    fn qualified_calls_restrict_to_the_owner() {
        let g = graph(
            "impl A { fn build() {} }\n\
             impl B { fn build() {} }\n\
             fn caller() { A::build(); }\n",
        );
        let caller = g.named("caller")[0];
        let targets = g.resolve(&g.calls(caller)[0]);
        assert_eq!(targets.len(), 1);
        assert_eq!(g.fns()[targets[0]].owner.as_deref(), Some("A"));
    }

    #[test]
    fn module_qualifiers_fall_back_to_name_wide() {
        let g = graph(
            "fn merge_matches() {}\n\
             fn caller() { kernels::merge_matches(); }\n",
        );
        let caller = g.named("caller")[0];
        assert_eq!(g.resolve(&g.calls(caller)[0]).len(), 1);
    }

    #[test]
    fn std_calls_are_leaves() {
        let g = graph("fn caller(v: &mut Vec<u32>) { v.sort_unstable(); }\n");
        let caller = g.named("caller")[0];
        assert!(g.resolve(&g.calls(caller)[0]).is_empty());
    }
}
