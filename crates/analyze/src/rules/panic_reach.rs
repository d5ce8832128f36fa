//! `panic-reachability`: the serving loops must not be able to die.
//!
//! The line-local `panic-path` rule keeps `.unwrap()` and friends out of
//! library code generally, but it judges sites one at a time and accepts
//! a messaged `.expect("…")`. The serving stack has a stricter
//! obligation: a panic anywhere reachable from the accept loop kills
//! the accept thread or the connection thread it spawned — which now
//! also runs the query — so *messaged* expects are errors there too,
//! and the judgment has to be transitive.
//!
//! This rule walks the workspace call graph from
//! [`crate::Config::serve_roots`] (`accept_loop` by default; the
//! connection threads and the query path hang off it) and flags every
//! reachable `.unwrap()` / `.expect()` /
//! `panic!` / `todo!` / `unimplemented!` / `unreachable!`, printing the
//! full call chain from the root so the report is actionable.
//!
//! Deliberate panics — the lock-order witness, poison propagation —
//! stay, with the argument written at the site:
//!
//! ```text
//! // analyze:allow(panic-reachability): poisoned serving mutex means invariants are gone; die loudly
//! m.lock().expect("serving mutex poisoned by a panicked thread")
//! ```
//!
//! A bare allow still fires — the annotation is the audit trail.

use std::collections::HashMap;

use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::reach::Reach;
use crate::source::{allow_in, Allow};
use crate::Config;

/// Rule name, as used by `analyze:allow(...)`.
pub const NAME: &str = "panic-reachability";

/// Method calls that panic on the unhappy path.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Macros that unconditionally panic when expanded.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// Runs the rule over the whole-workspace call graph.
pub fn check(
    graph: &CallGraph,
    allows: &HashMap<String, Vec<Allow>>,
    config: &Config,
) -> Vec<Diagnostic> {
    let roots: Vec<usize> = graph
        .fns()
        .iter()
        .enumerate()
        .filter(|(_, f)| config.serve_roots.iter().any(|r| r == &f.name))
        .map(|(i, _)| i)
        .collect();
    let reach = Reach::compute(graph, &roots, &[]);
    let mut out = Vec::new();
    for &id in reach.order() {
        let f = &graph.fns()[id];
        for call in graph.calls(id) {
            let panicking = if call.is_macro {
                PANIC_MACROS.iter().any(|m| *m == call.name)
            } else {
                PANIC_METHODS.iter().any(|m| *m == call.name)
            };
            if !panicking {
                continue;
            }
            let what = if call.is_macro {
                format!("`{}!`", call.name)
            } else {
                format!("`.{}()`", call.name)
            };
            match allow_in(allows, &f.path, NAME, call.line) {
                Some(allow) if !allow.justification.is_empty() => {}
                Some(_) => out.push(
                    Diagnostic::new(
                        NAME,
                        &f.path,
                        call.line,
                        call.col,
                        format!(
                            "analyze:allow({NAME}) requires a justification: \
                             `// analyze:allow({NAME}): <why this panic is the right failure mode>`"
                        ),
                    )
                    .unsuppressible(),
                ),
                None => out.push(
                    Diagnostic::new(
                        NAME,
                        &f.path,
                        call.line,
                        call.col,
                        format!(
                            "{what} can panic a serving thread; call chain: {}: \
                             return an error instead, or annotate \
                             `// analyze:allow({NAME}): <why this panic is the right failure mode>`",
                            reach.chain(graph, id)
                        ),
                    )
                    .unsuppressible(),
                ),
            }
        }
    }
    out
}
