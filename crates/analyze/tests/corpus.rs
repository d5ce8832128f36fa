//! Self-test corpus: every shipped rule must (a) fire on a seeded
//! violation and (b) stay silent on the fixed or annotated form. This is
//! the proof the acceptance criteria ask for, and a regression net for
//! the lexer: several snippets hide rule triggers inside strings and
//! comments where they must NOT fire.

use tir_analyze::{analyze_snippet, Analysis, Config};

fn rules_fired(src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = analyze_snippet(src).iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

// ---------------------------------------------------------------- panic-path

#[test]
fn panic_path_fires_on_unwrap() {
    let diags = analyze_snippet("fn f(x: Option<u32>) -> u32 { x.unwrap() }");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "panic-path");
    assert_eq!((diags[0].line, diags[0].col), (1, 33));
}

#[test]
fn panic_path_silent_on_justified_expect() {
    assert!(
        rules_fired(r#"fn f(x: Option<u32>) -> u32 { x.expect("caller checked") }"#).is_empty()
    );
}

#[test]
fn panic_path_fires_on_messageless_expect() {
    assert_eq!(
        rules_fired(r#"fn f(x: Option<u32>, m: &str) -> u32 { x.expect(m) }"#),
        ["panic-path"]
    );
    assert_eq!(
        rules_fired(r#"fn f(x: Option<u32>) -> u32 { x.expect("") }"#),
        ["panic-path"]
    );
}

#[test]
fn panic_path_fires_on_denied_macros() {
    for src in [
        "fn f() { todo!() }",
        "fn f() { unimplemented!() }",
        "fn f(x: u32) { dbg!(x); }",
        "fn f() { panic!(\"boom\") }",
    ] {
        assert_eq!(rules_fired(src), ["panic-path"], "{src}");
    }
}

#[test]
fn panic_path_silent_inside_strings_and_comments() {
    for src in [
        r#"fn f() -> &'static str { "call .unwrap() then panic!(now)" }"#,
        "/// call .unwrap() at your peril\n//! dbg! example\n// todo! later\nfn f() {}",
        r##"fn f() -> &'static str { r#".unwrap() and todo!"# }"##,
        "/* nested /* .unwrap() */ todo! */ fn f() {}",
    ] {
        assert!(rules_fired(src).is_empty(), "{src}");
    }
}

#[test]
fn panic_path_silent_in_test_modules() {
    let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); panic!(); }\n}\n";
    assert!(rules_fired(src).is_empty());
}

#[test]
fn panic_path_allow_suppresses() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // analyze:allow(panic-path): demo";
    assert!(rules_fired(src).is_empty());
}

// ------------------------------------------------------------ atomic-ordering

#[test]
fn atomic_ordering_fires_without_justification() {
    let diags = analyze_snippet("fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, "atomic-ordering");
}

#[test]
fn atomic_ordering_silent_with_justified_allow() {
    let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); } \
               // analyze:allow(atomic-ordering): monotonic telemetry counter";
    assert!(rules_fired(src).is_empty());
}

#[test]
fn atomic_ordering_bare_allow_still_fires() {
    let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); } \
               // analyze:allow(atomic-ordering)";
    assert_eq!(rules_fired(src), ["atomic-ordering"]);
}

#[test]
fn atomic_ordering_own_line_allow_covers_chain() {
    let src = "fn f(s: &Stats) {\n    \
               // analyze:allow(atomic-ordering): counter, no sync piggybacks\n    \
               s.stats\n        .violations\n        .fetch_add(1, Ordering::Relaxed);\n}\n";
    assert!(rules_fired(src).is_empty(), "{:?}", analyze_snippet(src));
}

#[test]
fn atomic_ordering_silent_on_stronger_orderings() {
    assert!(rules_fired("fn f(c: &AtomicU64) { c.store(1, Ordering::SeqCst); }").is_empty());
    assert!(rules_fired("fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Acquire) }").is_empty());
}

// ----------------------------------------------------------------- raw-lock

#[test]
fn raw_lock_fires_on_bare_lock_unwrap() {
    let src = "fn f(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() }";
    let mut fired = rules_fired(src);
    fired.sort_unstable();
    // Both the bare .lock() and the .unwrap() are wrong here.
    assert_eq!(fired, ["panic-path", "raw-lock"]);
}

#[test]
fn raw_lock_silent_on_helper() {
    assert!(rules_fired("fn f(m: &Mutex<u32>) -> u32 { *lock(m) }").is_empty());
}

#[test]
fn raw_lock_allow_for_helper_internals() {
    let src = "fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {\n    \
               // analyze:allow(raw-lock): this IS the helper\n    \
               m.lock().expect(\"poisoned\")\n}\n";
    assert!(rules_fired(src).is_empty(), "{:?}", analyze_snippet(src));
}

// --------------------------------------------------------------- lock-order

const INVERSION: &str = "\
impl S {
    fn ab(&self) {
        let a = lock(&self.alpha);
        let b = lock(&self.beta);
        use_both(&a, &b);
    }
    fn ba(&self) {
        let b = lock(&self.beta);
        let a = lock(&self.alpha);
        use_both(&a, &b);
    }
}
";

#[test]
fn lock_order_fires_on_inversion() {
    // Nested acquisitions also fire blocking-under-lock (each inner
    // lock waits while the outer is held); the cycle itself is one
    // lock-order diagnostic.
    let diags: Vec<_> = analyze_snippet(INVERSION)
        .into_iter()
        .filter(|d| d.rule == "lock-order")
        .collect();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("alpha"), "{}", diags[0].message);
    assert!(diags[0].message.contains("beta"));
    assert!(
        diags[0].message.contains("snippet.rs:3"),
        "witness sites named: {}",
        diags[0].message
    );
}

#[test]
fn lock_order_silent_on_consistent_order() {
    let src = "\
impl S {
    fn ab(&self) {
        let a = lock(&self.alpha);
        let b = lock(&self.beta);
        use_both(&a, &b);
    }
    fn also_ab(&self) {
        let a = lock(&self.alpha);
        let b = lock(&self.beta);
        use_both(&a, &b);
    }
}
";
    // Consistent order: no cycle, so lock-order stays silent. The
    // nested held regions still surface as blocking-under-lock.
    assert_eq!(rules_fired(src), ["blocking-under-lock"]);
}

#[test]
fn lock_order_fires_on_relock_of_held_mutex() {
    let src = "\
fn f(s: &S) {
    let a = lock(&s.alpha);
    let again = lock(&s.alpha);
}
";
    let diags: Vec<_> = analyze_snippet(src)
        .into_iter()
        .filter(|d| d.rule == "lock-order")
        .collect();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("re-locked"));
}

#[test]
fn lock_order_respects_scopes_and_drop() {
    // Guard dropped by block end / drop() before the second acquisition:
    // no edge, no cycle even though the textual order inverts.
    let src = "\
impl S {
    fn ab(&self) {
        { let a = lock(&self.alpha); use_one(&a); }
        let b = lock(&self.beta);
    }
    fn ba(&self) {
        let b = lock(&self.beta);
        drop(b);
        let a = lock(&self.alpha);
    }
}
";
    assert!(rules_fired(src).is_empty(), "{:?}", analyze_snippet(src));
}

#[test]
fn lock_order_temporaries_live_for_one_statement() {
    // Two temporaries in one statement DO order against each other…
    let one_stmt = "fn f(s: &S) { use_both(lock(&s.alpha), lock(&s.beta)); }\n\
                    fn g(s: &S) { use_both(lock(&s.beta), lock(&s.alpha)); }";
    assert_eq!(rules_fired(one_stmt), ["blocking-under-lock", "lock-order"]);
    // …but a temporary does not leak into the next statement.
    let two_stmts = "fn f(s: &S) { use_one(lock(&s.alpha)); use_one(lock(&s.beta)); }\n\
                     fn g(s: &S) { use_one(lock(&s.beta)); use_one(lock(&s.alpha)); }";
    assert!(rules_fired(two_stmts).is_empty());
}

#[test]
fn lock_order_method_form_is_recognized() {
    let src = "\
impl S {
    fn ab(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        use_both(&a, &b);
    }
    fn ba(&self) {
        let b = self.beta.lock();
        let a = self.alpha.lock();
        use_both(&a, &b);
    }
}
";
    let fired = rules_fired(src);
    assert!(fired.contains(&"lock-order"), "{fired:?}");
}

#[test]
fn lock_order_allow_excludes_site_from_graph() {
    let src = "\
impl S {
    fn ab(&self) {
        let a = lock(&self.alpha);
        let b = lock(&self.beta);
        use_both(&a, &b);
    }
    fn ba(&self) {
        let b = lock(&self.beta);
        // analyze:allow(lock-order): beta is a shard-private clone here
        let a = lock(&self.alpha);
        use_both(&a, &b);
    }
}
";
    let fired = rules_fired(src);
    assert!(!fired.contains(&"lock-order"), "{:?}", analyze_snippet(src));
}

// ------------------------------------------------------------ unguarded-cast

#[test]
fn cast_fires_on_narrowing() {
    let diags = analyze_snippet("fn f(n: usize) -> u32 { n as u32 }");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, "unguarded-cast");
}

#[test]
fn cast_silent_on_widening_and_annotated() {
    assert!(rules_fired("fn f(n: u32) -> u64 { n as u64 }").is_empty());
    assert!(rules_fired("fn f(n: u32) -> usize { n as usize }").is_empty());
    assert!(rules_fired(
        "fn f(n: usize) -> u32 { n as u32 } // analyze:allow(unguarded-cast): n < 2^32 by construction"
    )
    .is_empty());
}

#[test]
fn cast_scoped_to_configured_crates() {
    let src = "fn f(n: usize) -> u32 { n as u32 }";
    let mut a = Analysis::new(Config {
        cast_crates: Some(vec!["hint".into()]),
        ..Config::default()
    });
    a.add_file("serve", "serve/lib.rs", src);
    a.add_file("hint", "hint/lib.rs", src);
    let diags = a.finish();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].path, "hint/lib.rs");
}

// --------------------------------------------------------- unbounded-channel

#[test]
fn channel_fires_on_qualified_call_and_import() {
    assert_eq!(
        rules_fired("fn f() { let (tx, rx) = mpsc::channel::<u32>(); }"),
        ["unbounded-channel"]
    );
    assert_eq!(
        rules_fired("use std::sync::mpsc::channel;\nfn f() {}"),
        ["unbounded-channel"]
    );
    assert_eq!(
        rules_fired("use std::sync::mpsc::{channel, Receiver};\nfn f() {}"),
        ["unbounded-channel"]
    );
}

#[test]
fn channel_silent_on_bounded() {
    assert!(rules_fired(
        "use std::sync::mpsc::{sync_channel, Receiver};\nfn f() { let (tx, rx) = sync_channel::<u32>(8); }"
    )
    .is_empty());
}

// ------------------------------------------------------------------- engine

#[test]
fn diagnostics_are_sorted_and_addressed() {
    let src = "fn f(x: Option<u32>, m: &Mutex<u32>) {\n    let a = m.lock().unwrap();\n    x.unwrap();\n}\n";
    let diags = analyze_snippet(src);
    assert!(diags.len() >= 3, "{diags:?}");
    for w in diags.windows(2) {
        assert!((w[0].line, w[0].col) <= (w[1].line, w[1].col));
    }
    let rendered = diags[0].to_string();
    assert!(rendered.starts_with("snippet.rs:2:"), "{rendered}");
}

#[test]
fn files_seen_counts() {
    let mut a = Analysis::new(Config::default());
    a.add_file("x", "a.rs", "fn a() {}");
    a.add_file("x", "b.rs", "fn b() {}");
    assert_eq!(a.files_seen(), 2);
    assert!(a.finish().is_empty());
}

// ------------------------------------------------------ blocking-under-lock

#[test]
fn blocking_fires_on_recv_while_holding() {
    let src = "fn f(s: &S, rx: &Receiver<u32>) {\n    let g = lock(&s.state);\n    let x = rx.recv();\n}\n";
    let diags = analyze_snippet(src);
    assert_eq!(rules_fired(src), ["blocking-under-lock"]);
    assert!(diags[0].message.contains("`recv`"), "{}", diags[0].message);
    assert!(diags[0].message.contains("state"), "{}", diags[0].message);
}

#[test]
fn blocking_fires_on_sleep_and_io_while_holding() {
    for call in [
        "thread::sleep(d)",
        "handle.join()",
        "reader.read_line(&mut buf)",
    ] {
        let src = format!("fn f(s: &S) {{\n    let g = lock(&s.state);\n    {call};\n}}\n");
        assert_eq!(rules_fired(&src), ["blocking-under-lock"], "{call}");
    }
}

#[test]
fn blocking_fires_on_nested_acquisition() {
    let src = "fn f(s: &S) {\n    let a = lock(&s.alpha);\n    let b = lock(&s.beta);\n}\n";
    let diags = analyze_snippet(src);
    assert_eq!(rules_fired(src), ["blocking-under-lock"]);
    assert!(
        diags[0].message.contains("acquiring mutex `beta`"),
        "{}",
        diags[0].message
    );
}

#[test]
fn blocking_silent_after_guard_released() {
    // drop() release and block-scoped guard: the wait happens lock-free.
    let dropped = "fn f(s: &S, rx: &Receiver<u32>) {\n    let g = lock(&s.state);\n    drop(g);\n    let x = rx.recv();\n}\n";
    assert!(rules_fired(dropped).is_empty(), "{dropped}");
    let scoped = "fn f(s: &S, rx: &Receiver<u32>) {\n    { let g = lock(&s.state); g.bump(); }\n    let x = rx.recv();\n}\n";
    assert!(rules_fired(scoped).is_empty(), "{scoped}");
}

#[test]
fn blocking_justified_allow_silences_bare_allow_fires() {
    let justified = "fn f(s: &S, rx: &Receiver<u32>) {\n    let g = lock(&s.state);\n    let x = rx.recv(); // analyze:allow(blocking-under-lock): 1-slot ack channel, holder is the only sender\n}\n";
    assert!(rules_fired(justified).is_empty());
    let bare = "fn f(s: &S, rx: &Receiver<u32>) {\n    let g = lock(&s.state);\n    let x = rx.recv(); // analyze:allow(blocking-under-lock)\n}\n";
    let diags = analyze_snippet(bare);
    assert_eq!(rules_fired(bare), ["blocking-under-lock"]);
    assert!(
        diags[0].message.contains("justification"),
        "{}",
        diags[0].message
    );
}

// ------------------------------------------------------- panic-reachability

#[test]
fn panic_reach_fires_with_full_chain() {
    let src = "fn accept_loop(listener: &TcpListener) {\n    helper();\n}\nfn helper(x: Option<u32>) {\n    x.unwrap();\n}\n";
    let diags: Vec<_> = analyze_snippet(src)
        .into_iter()
        .filter(|d| d.rule == "panic-reachability")
        .collect();
    assert_eq!(diags.len(), 1, "{diags:?}");
    let msg = &diags[0].message;
    assert!(msg.contains("accept_loop (snippet.rs:1)"), "{msg}");
    assert!(msg.contains("helper (snippet.rs:4)"), "{msg}");
}

#[test]
fn panic_reach_fires_on_messaged_expect_unlike_panic_path() {
    // A messaged .expect() passes the line-local rule but still kills a
    // serving thread: only panic-reachability fires.
    let src =
        "fn accept_loop(x: Option<u32>) {\n    x.expect(\"listener configured at startup\");\n}\n";
    assert_eq!(rules_fired(src), ["panic-reachability"]);
}

#[test]
fn panic_reach_silent_off_the_serving_roots() {
    let src = "fn island(x: Option<u32>) {\n    x.expect(\"not reachable from serving\");\n}\n";
    assert!(rules_fired(src).is_empty());
}

#[test]
fn panic_reach_silent_on_fixed_form() {
    let src = "fn accept_loop(listener: &TcpListener) {\n    if helper().is_none() { return; }\n}\nfn helper() -> Option<u32> {\n    None\n}\n";
    assert!(rules_fired(src).is_empty());
}

#[test]
fn panic_reach_justified_allow_silences_bare_allow_fires() {
    let justified = "fn accept_loop(m: &Mutex<u32>) {\n    // analyze:allow(panic-reachability): poisoned mutex means invariants are gone; die loudly\n    let g = m.lock().expect(\"poisoned\"); // analyze:allow(raw-lock): demo helper body\n}\n";
    assert!(
        rules_fired(justified).is_empty(),
        "{:?}",
        analyze_snippet(justified)
    );
    let bare = "fn accept_loop(x: Option<u32>) {\n    // analyze:allow(panic-reachability)\n    x.expect(\"boom\");\n}\n";
    assert_eq!(rules_fired(bare), ["panic-reachability"]);
}

// ----------------------------------------------------------- hot-path-alloc

#[test]
fn hot_path_alloc_fires_on_clone_in_query_into() {
    let src = "impl Tif {\n    fn query_into(&self, out: &mut Vec<u32>) {\n        let v = self.ids.clone();\n    }\n}\n";
    let diags = analyze_snippet(src);
    assert_eq!(rules_fired(src), ["hot-path-alloc"]);
    assert!(diags[0].message.contains("`clone`"), "{}", diags[0].message);
}

#[test]
fn hot_path_alloc_fires_transitively_with_chain() {
    let src = "fn query_into(out: &mut Vec<u32>) {\n    helper();\n}\nfn helper() {\n    let v = Vec::new();\n}\n";
    let diags = analyze_snippet(src);
    assert_eq!(rules_fired(src), ["hot-path-alloc"]);
    let msg = &diags[0].message;
    assert!(msg.contains("`Vec::new`"), "{msg}");
    assert!(
        msg.contains("query_into (snippet.rs:1) -> helper (snippet.rs:4)"),
        "{msg}"
    );
}

#[test]
fn hot_path_alloc_fires_on_macros_and_kernel_roots() {
    assert_eq!(
        rules_fired(
            "fn intersect_merge_into(a: &[u32]) {\n    let label = format!(\"{a:?}\");\n}\n"
        ),
        ["hot-path-alloc"]
    );
    for kernel in ["merge_matches", "gallop_matches", "gallop_rev_matches"] {
        assert_eq!(
            rules_fired(&format!(
                "fn {kernel}(a: &[u32]) {{\n    let v = vec![1, 2];\n}}\n"
            )),
            ["hot-path-alloc"],
            "{kernel}"
        );
    }
}

#[test]
fn hot_path_alloc_silent_on_arena_growth() {
    // Growth through every arena-backed route: the caller-owned out
    // buffer, the scratch parameter's fields, a let-binding taken from
    // the scratch, and the declared arena's own impl.
    let src = "\
impl QueryScratch {
    fn intersect(&mut self) {
        self.bits.resize(64, false);
        let staging = Vec::with_capacity(8);
    }
}
impl Tif {
    fn query_into(&self, scratch: &mut QueryScratch, out: &mut Vec<u32>) {
        scratch.reset();
        scratch.intersect();
        scratch.cands.push(1);
        let mut cands = std::mem::take(&mut scratch.cands);
        cands.push(2);
        out.extend_from_slice(&cands);
    }
}
";
    assert!(rules_fired(src).is_empty(), "{:?}", analyze_snippet(src));
}

#[test]
fn hot_path_alloc_fires_on_non_arena_growth() {
    let src = "impl Tif {\n    fn query_into(&self, out: &mut Vec<u32>) {\n        self.cache.push(1);\n    }\n}\n";
    let diags = analyze_snippet(src);
    assert_eq!(rules_fired(src), ["hot-path-alloc"]);
    assert!(
        diags[0].message.contains("non-arena receiver"),
        "{}",
        diags[0].message
    );
}

#[test]
fn hot_path_alloc_cuts_the_cold_path_delegate() {
    // The trait's default query_into delegates to the allocating cold
    // path; the `query` cut keeps the walk out of it.
    let src = "\
trait TemporalIrIndex {
    fn query_into(&self, out: &mut Vec<u32>) {
        out.extend(self.query());
    }
}
impl Tif {
    fn query(&self) -> Vec<u32> {
        let mut v = Vec::new();
        v.clone()
    }
}
";
    assert!(rules_fired(src).is_empty(), "{:?}", analyze_snippet(src));
}

#[test]
fn hot_path_alloc_arc_clone_is_not_an_allocation() {
    let src = "fn query_into(out: &mut Vec<u32>) {\n    let snap = Arc::clone(&CURRENT);\n}\n";
    assert!(rules_fired(src).is_empty());
}

#[test]
fn hot_path_alloc_justified_allow_silences_bare_allow_fires() {
    let justified = "fn query_into(out: &mut Vec<u32>) {\n    let v = names.to_vec(); // analyze:allow(hot-path-alloc): build-time path, not steady state\n}\n";
    assert!(rules_fired(justified).is_empty());
    let bare = "fn query_into(out: &mut Vec<u32>) {\n    let v = names.to_vec(); // analyze:allow(hot-path-alloc)\n}\n";
    let diags = analyze_snippet(bare);
    assert_eq!(rules_fired(bare), ["hot-path-alloc"]);
    assert!(
        diags[0].message.contains("justification"),
        "{}",
        diags[0].message
    );
}

// ------------------------------- suppression extents against the call-graph
// tier (satellite: trailing vs own-line allows, cfg(test) and the parser)

#[test]
fn trailing_allow_covers_only_its_line_for_graph_rules() {
    let src = "fn query_into(out: &mut Vec<u32>) {\n    let a = x.to_vec(); // analyze:allow(hot-path-alloc): warm-up only\n    let b = y.to_vec();\n}\n";
    let diags = analyze_snippet(src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].line, 3, "second site still fires");
}

#[test]
fn own_line_allow_covers_the_whole_next_statement_for_graph_rules() {
    let src = "fn query_into(out: &mut Vec<u32>) {\n    // analyze:allow(hot-path-alloc): one-time label, off the steady state\n    let label = parts\n        .iter()\n        .collect();\n    let stray = other.to_vec();\n}\n";
    let diags = analyze_snippet(src);
    assert_eq!(diags.len(), 1, "chain covered, next stmt not: {diags:?}");
    assert_eq!(diags[0].line, 6);
}

#[test]
fn cfg_test_items_are_invisible_to_graph_rules() {
    // Seeded violations inside #[cfg(test)] modules — including nested
    // modules — must not reach the parser or the call graph.
    let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn query_into(out: &mut Vec<u32>) {
        let v = data.clone();
    }
    mod nested {
        fn accept_loop(x: Option<u32>) {
            x.unwrap();
        }
    }
}
";
    assert!(rules_fired(src).is_empty(), "{:?}", analyze_snippet(src));
}

// ----------------------------------------------------------- untrusted-length

/// Runs the engine over `src` as the `persist` crate — the scope the
/// workspace gate applies the taint audit and the rename-ordering
/// checks to.
fn persist_diags(src: &str) -> Vec<tir_analyze::Diagnostic> {
    let mut a = Analysis::new(Config::default());
    a.add_file("persist", "persist/x.rs", src);
    a.finish()
}

#[test]
fn untrusted_length_fires_on_index_sink_with_def_use_chain() {
    let src = "fn f(b: &[u8]) {\n    let n = read_u32(b, 0) as usize;\n    let v = &b[..n];\n}\n";
    let diags = analyze_snippet(src);
    assert_eq!(rules_fired(src), ["untrusted-length"]);
    let msg = &diags[0].message;
    assert!(msg.contains("`n` <- `read_u32(..)` at line 2"), "{msg}");
    assert!(msg.contains("slice index/range"), "{msg}");
}

#[test]
fn untrusted_length_fires_on_capacity_sink() {
    let src = "fn f(b: &[u8]) {\n    let count = read_u64(b, 8) as usize;\n    let v: Vec<u32> = Vec::with_capacity(count);\n}\n";
    let diags = analyze_snippet(src);
    assert_eq!(rules_fired(src), ["untrusted-length"]);
    assert!(
        diags[0].message.contains("`with_capacity` argument"),
        "{}",
        diags[0].message
    );
}

#[test]
fn untrusted_length_fires_on_offset_arithmetic() {
    let src = "fn f(b: &[u8], pos: usize) -> usize {\n    let dlen = read_u32(b, pos) as usize;\n    pos + dlen * 4\n}\n";
    let diags = analyze_snippet(src);
    assert_eq!(rules_fired(src), ["untrusted-length"]);
    assert!(
        diags[0].message.contains("offset-arithmetic operand"),
        "{}",
        diags[0].message
    );
}

#[test]
fn untrusted_length_fires_on_decoder_directly_in_sink() {
    let src = "fn f(b: &[u8]) {\n    let v = &b[read_u32(b, 0) as usize..];\n}\n";
    let diags = analyze_snippet(src);
    assert_eq!(rules_fired(src), ["untrusted-length"]);
    assert!(
        diags[0].message.contains("`read_u32(..)` used directly"),
        "{}",
        diags[0].message
    );
}

#[test]
fn untrusted_length_silent_on_bounds_checked_value() {
    let src = "fn f(b: &[u8]) -> Option<&[u8]> {\n    let n = read_u32(b, 0) as usize;\n    if n > b.len() {\n        return None;\n    }\n    Some(&b[..n])\n}\n";
    assert!(rules_fired(src).is_empty(), "{:?}", analyze_snippet(src));
}

#[test]
fn untrusted_length_silent_on_guard_clamped_value() {
    let src = "fn f(b: &[u8]) {\n    let n = read_u32(b, 0) as usize;\n    let v: Vec<u32> = Vec::with_capacity(n.min(4096));\n}\n";
    assert!(rules_fired(src).is_empty(), "{:?}", analyze_snippet(src));
}

#[test]
fn untrusted_length_backward_validation_through_derived_total() {
    // Checking the derived `total` bounds the raw `len` it was built
    // from: the later index on `len` is safe.
    let src = "fn f(b: &[u8]) -> Option<&[u8]> {\n    let len = read_u32(b, 0) as usize;\n    let total = 12 + len;\n    if b.len() < total {\n        return None;\n    }\n    Some(&b[12..12 + len])\n}\n";
    assert!(rules_fired(src).is_empty(), "{:?}", analyze_snippet(src));
}

#[test]
fn untrusted_length_justified_allow_silences_bare_allow_fires() {
    let justified = "fn f(b: &[u8]) {\n    let n = read_u32(b, 0) as usize;\n    let v = &b[..n]; // analyze:allow(untrusted-length): section CRC verified before any field decode\n}\n";
    assert!(rules_fired(justified).is_empty());
    let bare = "fn f(b: &[u8]) {\n    let n = read_u32(b, 0) as usize;\n    let v = &b[..n]; // analyze:allow(untrusted-length)\n}\n";
    let diags = analyze_snippet(bare);
    assert_eq!(rules_fired(bare), ["untrusted-length"]);
    assert!(
        diags[0].message.contains("justification"),
        "{}",
        diags[0].message
    );
}

#[test]
fn untrusted_length_scoped_to_configured_crates() {
    let src = "fn f(b: &[u8]) {\n    let n = read_u32(b, 0) as usize;\n    let v = &b[..n];\n}\n";
    let mut a = Analysis::new(Config {
        taint_crates: Some(vec!["persist".into()]),
        ..Config::default()
    });
    a.add_file("serve", "serve/lib.rs", src);
    a.add_file("persist", "persist/lib.rs", src);
    let diags = a.finish();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].path, "persist/lib.rs");
}

// --------------------------------------------------------- durability-ordering

#[test]
fn durability_fires_on_apply_before_fsync_with_observed_order() {
    let src = "\
impl Durability {
    fn apply_batch(&mut self) {
        self.wal.append(epoch, ops);
        apply_ops(index, ops);
        self.wal.sync();
    }
}
";
    let diags = analyze_snippet(src);
    assert_eq!(rules_fired(src), ["durability-ordering"]);
    let msg = &diags[0].message;
    assert!(
        msg.contains("applies at line 4 before the fsync at line 5"),
        "{msg}"
    );
    assert!(
        msg.contains("append (line 3) -> apply_ops (line 4) -> sync (line 5)"),
        "observed call order printed: {msg}"
    );
}

#[test]
fn durability_fires_on_missing_wal_append() {
    let src = "fn apply_batch(&mut self) {\n    apply_ops(index, ops);\n}\n";
    let diags = analyze_snippet(src);
    assert_eq!(rules_fired(src), ["durability-ordering"]);
    assert!(
        diags[0].message.contains("no WAL `append` call"),
        "{}",
        diags[0].message
    );
}

#[test]
fn durability_fires_on_ack_before_fsync_path() {
    let src = "\
fn drain(tx: &Sender<u64>, eng: &mut Engine) {
    tx.send(epoch);
    eng.apply_batch(index, ops);
}
";
    let diags = analyze_snippet(src);
    assert_eq!(rules_fired(src), ["durability-ordering"]);
    let msg = &diags[0].message;
    assert!(
        msg.contains("`send` at line 2 precedes the durable `apply_batch` call at line 3"),
        "{msg}"
    );
}

#[test]
fn durability_silent_on_correct_engine_shape() {
    let src = "\
impl Durability {
    fn apply_batch(&mut self) {
        self.wal.append(epoch, ops);
        self.wal.sync();
        apply_ops(index, ops);
    }
}
fn drain(tx: &Sender<u64>, eng: &mut Engine) {
    eng.apply_batch(index, ops);
    tx.send(epoch);
}
";
    assert!(rules_fired(src).is_empty(), "{:?}", analyze_snippet(src));
}

#[test]
fn durability_fires_on_unsynced_rename_in_persist() {
    let src = "\
fn publish(tmp: &Path, dst: &Path) {
    write_stuff(tmp);
    fs::rename(tmp, dst);
}
";
    let diags = persist_diags(src);
    let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(diags.len(), 2, "{msgs:?}");
    assert!(
        msgs.iter().any(|m| m.contains("before any fsync")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("directory fsync")),
        "{msgs:?}"
    );
}

#[test]
fn durability_silent_on_fsync_rename_fsync() {
    // The data fsync may be transitive: `finish` reaches a sync through
    // the call graph, the directory fsync follows the rename directly.
    let src = "\
fn finish(f: &File) {
    f.sync_all();
}
fn publish(f: &File, d: &File, tmp: &Path, dst: &Path) {
    finish(f);
    fs::rename(tmp, dst);
    d.sync_all();
}
";
    assert!(persist_diags(src).is_empty(), "{:?}", persist_diags(src));
}

#[test]
fn durability_rename_checks_scoped_to_persist_crate() {
    // The same unsynced rename outside the persist crate is not a
    // durability site (tmp-file juggling in tests/tools).
    let src = "fn publish(tmp: &Path, dst: &Path) {\n    fs::rename(tmp, dst);\n}\n";
    assert!(rules_fired(src).is_empty(), "{:?}", analyze_snippet(src));
}

#[test]
fn durability_justified_allow_silences_bare_allow_fires() {
    let justified = "fn apply_batch(&mut self) { // analyze:allow(durability-ordering): recovery replay — the WAL being replayed is already durable\n    apply_ops(index, ops);\n}\n";
    assert!(rules_fired(justified).is_empty());
    let bare = "fn apply_batch(&mut self) { // analyze:allow(durability-ordering)\n    apply_ops(index, ops);\n}\n";
    let diags = analyze_snippet(bare);
    assert_eq!(rules_fired(bare), ["durability-ordering"]);
    assert!(
        diags[0].message.contains("justification"),
        "{}",
        diags[0].message
    );
}

// --------------------------------------------------------------- error-swallow

#[test]
fn error_swallow_fires_on_discarded_fsync() {
    let src = "fn f(file: &File) {\n    let _ = file.sync_all();\n}\n";
    let diags = analyze_snippet(src);
    assert_eq!(rules_fired(src), ["error-swallow"]);
    assert!(
        diags[0].message.contains("swallows the `io::Result`"),
        "{}",
        diags[0].message
    );
}

#[test]
fn error_swallow_fires_on_ok_discard() {
    let src = "fn f(file: &File) {\n    file.sync_all().ok();\n}\n";
    let diags = analyze_snippet(src);
    assert_eq!(rules_fired(src), ["error-swallow"]);
    assert!(
        diags[0].message.contains("`.ok()` discards"),
        "{}",
        diags[0].message
    );
}

#[test]
fn error_swallow_resolves_workspace_io_results() {
    // `persist_marker` is no std API: only its declared return type says
    // io::Result, through the workspace call graph.
    let src = "\
fn persist_marker(dir: &Path) -> io::Result<()> {
    Ok(())
}
fn f(dir: &Path) {
    let _ = persist_marker(dir);
}
";
    let diags = analyze_snippet(src);
    assert_eq!(rules_fired(src), ["error-swallow"]);
    assert!(
        diags[0].message.contains("persist_marker"),
        "{}",
        diags[0].message
    );
}

#[test]
fn error_swallow_silent_on_non_io_discards() {
    for src in [
        "fn f(h: JoinHandle<()>) {\n    let _ = h.join();\n}\n",
        "fn f(s: &str) -> Option<u32> {\n    s.parse().ok()\n}\n",
        "fn f(tx: &Sender<u32>) {\n    let _ = tx.send(1);\n}\n",
    ] {
        assert!(rules_fired(src).is_empty(), "{src}");
    }
}

#[test]
fn error_swallow_silent_in_test_modules() {
    let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t(f: &File) {\n        let _ = f.sync_all();\n        f.flush().ok();\n    }\n}\n";
    assert!(rules_fired(src).is_empty());
}

#[test]
fn error_swallow_justified_allow_silences_bare_allow_fires() {
    let justified = "fn f(file: &File) {\n    let _ = file.sync_all(); // analyze:allow(error-swallow): best-effort flush on the abort path, error returned right after\n}\n";
    assert!(rules_fired(justified).is_empty());
    let bare =
        "fn f(file: &File) {\n    let _ = file.sync_all(); // analyze:allow(error-swallow)\n}\n";
    let diags = analyze_snippet(bare);
    assert_eq!(rules_fired(bare), ["error-swallow"]);
    assert!(
        diags[0].message.contains("justification"),
        "{}",
        diags[0].message
    );
}

// ----------------------------- cross-phase suppression extents (fn items vs
// the dataflow and reach tiers; trailing vs own-line; nested cfg(test))

#[test]
fn fn_item_allow_suppresses_dataflow_rule_in_whole_body() {
    // An own-line allow above a fn item extends through the closing
    // brace: dataflow diagnostics attributed anywhere inside are covered.
    let src = "\
// analyze:allow(untrusted-length): fuzz harness — lengths bounded by the generator
fn f(b: &[u8]) {
    let n = read_u32(b, 0) as usize;
    let v = &b[..n];
    let w: Vec<u32> = Vec::with_capacity(n);
}
";
    assert!(rules_fired(src).is_empty(), "{:?}", analyze_snippet(src));
}

#[test]
fn fn_item_allow_suppresses_reach_rule_in_whole_body() {
    // panic-reachability attributes its diagnostic to the panic site,
    // so the allow sits on the fn item owning that site and must cover
    // every line of its body.
    let src = "\
fn accept_loop(x: Option<u32>) {
    helper(x);
}
// analyze:allow(panic-reachability): poison propagation — invariants are gone, die loudly
fn helper(x: Option<u32>) {
    x.expect(\"boot invariant\");
}
";
    assert!(rules_fired(src).is_empty(), "{:?}", analyze_snippet(src));
}

#[test]
fn fn_item_allow_suppresses_error_swallow_in_whole_body() {
    let src = "\
// analyze:allow(error-swallow): teardown path — the process exits right after
fn shutdown(file: &File, sock: &TcpStream) {
    let _ = file.sync_all();
    let _ = sock.shutdown(Shutdown::Both);
}
";
    assert!(rules_fired(src).is_empty(), "{:?}", analyze_snippet(src));
}

#[test]
fn trailing_allow_on_fn_line_does_not_cover_the_body() {
    // The trailing form covers exactly its own line; a dataflow
    // diagnostic attributed to a body line still fires.
    let src = "fn f(b: &[u8]) { // analyze:allow(untrusted-length): signature line only\n    let n = read_u32(b, 0) as usize;\n    let v = &b[..n];\n}\n";
    let diags = analyze_snippet(src);
    assert_eq!(rules_fired(src), ["untrusted-length"]);
    assert_eq!(diags[0].line, 3, "{diags:?}");
}

#[test]
fn nested_cfg_test_invisible_to_dataflow_rules() {
    let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn t(b: &[u8]) {
        let n = read_u32(b, 0) as usize;
        let v = &b[..n];
    }
    mod nested {
        fn apply_batch(&mut self) {
            apply_ops(index, ops);
        }
        fn u(f: &File) {
            let _ = f.sync_all();
        }
    }
}
";
    assert!(rules_fired(src).is_empty(), "{:?}", analyze_snippet(src));
}

#[test]
fn cfg_test_sibling_does_not_hide_live_violations() {
    // A live seeded violation next to a stripped test module still fires:
    // stripping removes exactly the annotated item, nothing after it.
    let src = "\
#[cfg(test)]
mod tests {
    fn helper() {}
}
fn query_into(out: &mut Vec<u32>) {
    let v = data.clone();
}
";
    assert_eq!(rules_fired(src), ["hot-path-alloc"]);
}
