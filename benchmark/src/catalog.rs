//! The single source of truth for workload and metric names: the binary
//! prints exactly these, and `--describe` renders them as `BENCHMARK.json`
//! (`tests/schema.rs` fails when the committed file drifts from it).

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// One metric. `bound` is `Some` for end-to-end metrics only.
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

/// Seconds one run measures (the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u32 = 20;

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "serve_point",
        why: "stabbing 2-term reads (~1 hit) over TCP on irhint-perf/dense100k: wire, protocol, pool and epoch layers do nearly all the work, the index almost none",
    },
    WorkloadDef {
        name: "serve_range",
        why: "1%-extent 3-term reads (~1.7K hits) on the same server: core+hint+invidx dominate the round trip and reply formatting scales with hits, the mirror image of serve_point",
    },
    WorkloadDef {
        name: "durable_mixed",
        why: "tif under the WAL-backed server: bursts of 8-write groups closed by FLUSH with periodic SNAPSHOT, alternating with read bursts, so a read gain that costs the durable write path (or the reverse) shows",
    },
    WorkloadDef {
        name: "lib_methods",
        why: "no server: all nine methods built, queried (0.1% and 10% extent) and batch-updated on the paper-shaped eclog30k corpus, the paper's own measurement and the guard for the postings refactor",
    },
];

/// The nine index methods, in the CLI's order.
pub const METHODS: [&str; 9] = [
    "tif",
    "slicing",
    "sharding",
    "tif-hint-bs",
    "tif-hint-ms",
    "hybrid",
    "irhint-perf",
    "irhint-size",
    "ctif",
];

/// The per-method columns of the `core.<m>.*` table.
pub const METHOD_COLUMNS: [(&str, &str, &str); 6] = [
    ("build_s", "s", "lower"),
    ("bytes", "bytes", "lower"),
    ("qps_sel", "1/s", "higher"),
    ("qps_broad", "1/s", "higher"),
    ("insert_batch_ms", "ms", "lower"),
    ("delete_batch_ms", "ms", "lower"),
];

fn e2e(name: &str, unit: &'static str, better: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: Some(bound),
    }
}

/// End-to-end metrics: what a user of the system sees, each with the
/// share of the parent's median it may worsen by. Every workload reports
/// every one of them (see README "How each workload defines the metrics").
///
/// The bounds come from NOISE.md. A bound is three times the widest
/// spread its metric showed on any workload across ten seeds, and one
/// bound serves all four workloads: in a noisy hour on this box every
/// timing spreads 8 % or more on some workload, which puts every timing
/// at the contract's ceiling of 25 %. Sizes repeat and get 2 %.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        e2e("setup_s", "s", "lower", 0.25),
        e2e("read_qps", "1/s", "higher", 0.25),
        e2e("read_p50_us", "us", "lower", 0.25),
        e2e("write_qps", "1/s", "higher", 0.25),
        e2e("commit_p50_us", "us", "lower", 0.25),
        e2e("index_bytes", "bytes", "lower", 0.02),
    ]
}

/// Per-layer metrics, printed by the traced run. No bounds: they say
/// where a change landed, the end-to-end metrics say whether it counts.
pub fn per_layer() -> Vec<MetricDef> {
    let mut out = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: &'static str| {
        out.push(MetricDef {
            name: name.into(),
            unit,
            better,
            bound: None,
        });
    };
    // The benchmark's own cost; moves nothing.
    add("datagen.generate_s", "s", "lower");
    add("datagen.workload_s", "s", "lower");
    add("bench.oracle_s", "s", "lower");
    // The nine-method table on the workload's corpus, and the paper's
    // shape ratios from the same data (reported, not gated).
    for m in METHODS {
        for (col, unit, better) in METHOD_COLUMNS {
            add(&format!("core.{m}.{col}"), unit, better);
        }
    }
    add("shape.irhint_over_irfirst_broad", "ratio", "higher");
    add("shape.irhint_over_irfirst_sel", "ratio", "higher");
    add("shape.bytes_irsize_over_irperf", "ratio", "lower");
    // The served index answering the workload's own queries, directly.
    add("core.query_us", "us", "lower");
    add("core.hits_per_query", "count", "lower");
    add("hint.range_query_us", "us", "lower");
    add("hint.candidates_per_query", "count", "lower");
    add("hint.useful_ratio", "ratio", "higher");
    add("invidx.elems_scanned_per_query", "count", "lower");
    add("invidx.steps_per_query", "count", "lower");
    add("invidx.blocks_decoded_per_query", "count", "lower");
    add("invidx.scan_per_hit", "ratio", "lower");
    add("invidx.share_merge", "ratio", "lower");
    add("invidx.share_simd_merge", "ratio", "higher");
    add("invidx.share_gallop", "ratio", "higher");
    add("invidx.share_bitmap_probe", "ratio", "higher");
    add("invidx.share_word_and", "ratio", "higher");
    add("invidx.share_run", "ratio", "higher");
    add("invidx.ns_per_scanned_elem", "ns", "lower");
    // The read path, one span per layer boundary.
    add("client.rtt_us", "us", "lower");
    add("client.read_p99_us", "us", "lower");
    add("client.parse_us", "us", "lower");
    add("serve.protocol.parse_us", "us", "lower");
    add("serve.protocol.format_us", "us", "lower");
    add("serve.dict.resolve_us", "us", "lower");
    add("serve.pool.execute_us", "us", "lower");
    add("serve.pool.handoff_us", "us", "lower");
    add("serve.epoch.snapshot_ns", "ns", "lower");
    add("serve.wire_ping_us", "us", "lower");
    add("serve.wire_self_us", "us", "lower");
    // The write path.
    add("client.commit_us", "us", "lower");
    add("client.commit_p99_us", "us", "lower");
    add("serve.epoch.enqueue_us", "us", "lower");
    add("serve.dict.intern_us", "us", "lower");
    add("serve.epoch.flush_us", "us", "lower");
    add("serve.epoch.publish_ms", "ms", "lower");
    add("core.apply_us", "us", "lower");
    add("persist.wal.append_us", "us", "lower");
    add("persist.wal.sync_us", "us", "lower");
    add("persist.wal.bytes_per_write", "bytes", "lower");
    add("persist.engine.apply_batch_us", "us", "lower");
    add("persist.snapshot.write_ms", "ms", "lower");
    add("persist.snapshot.bytes", "bytes", "lower");
    add("persist.snapshot.stall_ms", "ms", "lower");
    add("persist.engine.recover_s", "s", "lower");
    add("persist.engine.replayed_batches", "count", "lower");
    // Whole-process and trace bookkeeping.
    add("check.validate_ms", "ms", "lower");
    add("proc.rss_peak_mb", "MB", "lower");
    add("trace.spans", "count", "lower");
    add("trace.coverage", "ratio", "higher");
    add("trace.coverage_commit", "ratio", "higher");
    add("trace.overhead_pct", "%", "lower");
    out
}

/// The metrics one run prints: per-layer when traced, else end-to-end.
pub fn metrics(traced: bool) -> Vec<MetricDef> {
    if traced {
        per_layer()
    } else {
        end_to_end()
    }
}

fn metric_json(m: &MetricDef) -> String {
    let bound = m
        .bound
        .map(|b| format!(", \"bound\": {b}"))
        .unwrap_or_default();
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
        m.name, m.unit, m.better
    )
}

/// Renders `BENCHMARK.json` (exactly the six keys the contract names).
pub fn describe() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = end_to_end().iter().map(metric_json).collect();
    let layers: Vec<String> = per_layer().iter().map(metric_json).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}
