//! `tir` — command-line front end for the temporal-IR indexes.
//!
//! ```text
//! tir gen     --out data.tsv [--cardinality N] [--seed K] [--scale S]
//! tir stats   --input data.tsv
//! tir query   --input data.tsv --method irhint-perf \
//!             --from 100 --to 900 --elems foo,bar [--topk 10]
//! tir bench   --kernels BENCH_kernels.json [--universe N]
//! tir check   --input data.tsv
//! tir serve   [--input data.tsv | --scale S] [--method M] [--port P]
//! tir loadgen --addr host:port [--requests N] [--threads T]
//! tir chaos   [--schedules N] [--seed K]
//! ```
//!
//! TSV format: `start<TAB>end<TAB>elem1,elem2,...` per object; `#` lines
//! are comments.

mod chaos;
mod io;

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::time::Instant;

use tir_core::prelude::*;
use tir_core::{with_method, RankedQuery, RankedTif};
use tir_datagen::SyntheticConfig;
use tir_persist::{Durability, DurabilityOptions, Recovered, SnapshotFile, TermLog, SNAPSHOT_NAME};
use tir_serve::epoch::Validator;
use tir_serve::{
    loadgen, spawn_server, spawn_server_durable, Json, LoadgenConfig, PoolConfig, ServeDict,
    ServerConfig, ServerHandle,
};

use crate::io::{read_tsv, write_tsv, Corpus};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("error: {msg}");
            2
        }
    };
    std::process::exit(code);
}

struct Opts {
    flags: Vec<(String, String)>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {}", args[i]))?;
            i += 1;
            // A flag followed by another --flag (or the end of the line)
            // is a bare switch (`--verify`): present, with no value.
            let value = match args.get(i) {
                Some(v) if !v.starts_with("--") => {
                    i += 1;
                    v.clone()
                }
                _ => String::new(),
            };
            flags.push((key.to_string(), value));
        }
        Ok(Opts { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
            None => Ok(default),
        }
    }

    /// `--method M`, if given; an unknown spelling is an error that lists
    /// the registry's methods.
    fn method(&self) -> Result<Option<Method>, String> {
        self.get("method").map(str::parse).transpose()
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    let opts = Opts::parse(rest)?;
    match cmd.as_str() {
        "gen" => cmd_gen(&opts),
        "stats" => cmd_stats(&opts),
        "query" => cmd_query(&opts),
        "bench" => cmd_bench(&opts),
        "check" => cmd_check(&opts),
        "serve" => cmd_serve(&opts),
        "loadgen" => cmd_loadgen(&opts),
        "chaos" => chaos::cmd_chaos(&opts),
        "snapshot" => cmd_snapshot(&opts),
        "recover" => cmd_recover(&opts),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other}\n{}", usage())),
    }
}

/// What `--method` means when absent: the paper's contribution.
const DEFAULT_METHOD: Method = Method::IrHintPerf;

fn usage() -> String {
    let methods = Method::ALL.map(|m| match m {
        DEFAULT_METHOD => format!("{m} (default)"),
        m => m.to_string(),
    });
    format!(
        "usage: tir <gen|stats|query|bench|check|serve|loadgen|chaos|snapshot|recover> [--flags]\n\
         gen      --out FILE [--cardinality N] [--seed K] [--scale S]\n\
         stats    --input FILE\n\
         query    --input FILE --from T --to T --elems a,b [--method M] [--topk K]\n\
         bench    --kernels BENCH_kernels.json [--universe N]   (microbenchmark\n\
                  the intersection kernels over a density grid; no corpus.\n\
                  Per-method numbers: benchmark/ --workload lib_methods)\n\
         check    --input FILE   (build every index, verify structural invariants)\n\
         check    --file SNAPSHOT   (fsck an on-disk snapshot)\n\
         serve    [--input FILE | --scale S [--seed K]] [--method M] [--port P]\n\
                  [--port-file PATH] [--workers N] [--queue-depth N]\n\
                  [--data-dir DIR [--snapshot-every N]]   (durable: WAL + snapshots;\n\
                  recovers the directory on restart)\n\
         loadgen  --addr HOST:PORT [--requests N] [--threads T] [--seed K]\n\
                  [--write-fraction F] [--insert-fraction F] [--elems N]\n\
                  [--durability N] [--deadline-ms MS] [--retries N] [--backoff-ms MS]\n\
                  [--json BENCH_serve.json]\n\
         chaos    [--schedules N] [--seed K] [--rounds N] [--scale S]\n\
                  (seeded fault-injection schedules against a live durable\n\
                  server; model + oracle verified, kill-then-recover each)\n\
         snapshot --out FILE [--input FILE | --scale S] [--method M] [--epoch N]\n\
                  (write a standalone snapshot file, then fsck it)\n\
         recover  --data-dir DIR [--verify]   (replay snapshot + WAL, report the\n\
                  epoch reached; --verify adds fsck + brute-force oracle agreement)\n\
         methods: {methods}",
        methods = methods.join(", "),
    )
}

fn load(opts: &Opts) -> Result<Corpus, String> {
    let path = opts.require("input")?;
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    read_tsv(BufReader::new(file))
}

fn cmd_gen(opts: &Opts) -> Result<(), String> {
    let out = opts.require("out")?;
    let scale: f64 = opts.parse_or("scale", 0.01)?;
    let mut cfg = SyntheticConfig::default().scaled(scale);
    cfg.cardinality = opts.parse_or("cardinality", cfg.cardinality)?;
    cfg.dict_size = opts.parse_or("dict", cfg.dict_size)?;
    cfg.seed = opts.parse_or("seed", cfg.seed)?;
    let coll = tir_datagen::generate(&cfg);
    let file = File::create(out).map_err(|e| format!("{out}: {e}"))?;
    write_tsv(&coll, BufWriter::new(file)).map_err(|e| e.to_string())?;
    eprintln!("wrote {} objects to {out}", coll.len());
    Ok(())
}

fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let corpus = load(opts)?;
    let s = corpus.collection.stats();
    println!("cardinality        {}", s.cardinality);
    println!("domain span        {}", s.domain_span);
    println!(
        "duration min/avg/max  {} / {:.1} / {}",
        s.min_duration, s.avg_duration, s.max_duration
    );
    println!("avg duration       {:.2}% of domain", s.avg_duration_pct);
    println!("dictionary         {}", s.dictionary_size);
    println!(
        "description min/avg/max  {} / {:.1} / {}",
        s.min_desc, s.avg_desc, s.max_desc
    );
    println!(
        "avg element freq   {:.1} ({:.3}%)",
        s.avg_elem_freq, s.avg_elem_freq_pct
    );
    Ok(())
}

/// Parses a `--elems a,b,c` value against the corpus dictionary.
///
/// Every malformed shape is a hard error — empty value, stray commas,
/// blank tokens, unknown elements — so a typo can never silently shrink
/// the query (and, with `--topk`, silently re-rank against the wrong
/// element set).
fn parse_elems_flag(raw: &str, dict: &tir_invidx::Dictionary) -> Result<Vec<u32>, String> {
    if raw.trim().is_empty() {
        return Err("--elems is empty; expected a comma-separated element list".into());
    }
    raw.split(',')
        .map(|t| {
            let t = t.trim();
            if t.is_empty() {
                return Err(format!(
                    "--elems '{raw}' has an empty element (stray comma?)"
                ));
            }
            dict.lookup(t)
                .ok_or_else(|| format!("unknown element '{t}' in --elems '{raw}'"))
        })
        .collect()
}

fn cmd_query(opts: &Opts) -> Result<(), String> {
    let corpus = load(opts)?;
    let from: u64 = opts.require("from")?.parse().map_err(|_| "bad --from")?;
    let to: u64 = opts.require("to")?.parse().map_err(|_| "bad --to")?;
    if from > to {
        return Err("--from must be <= --to".into());
    }
    let elems = parse_elems_flag(opts.require("elems")?, &corpus.dictionary)?;

    if let Some(k) = opts.get("topk") {
        let k: usize = k.parse().map_err(|_| "bad --topk")?;
        if k == 0 {
            return Err("--topk must be at least 1".into());
        }
        let ranked = RankedTif::build(&corpus.collection);
        for hit in ranked.query_topk(&RankedQuery::new(from, to, elems, k)) {
            let o = corpus.collection.get(hit.id);
            println!(
                "{}\t{:.4}\t[{}, {}]",
                hit.id, hit.score, o.interval.st, o.interval.end
            );
        }
        return Ok(());
    }

    let method = opts.method()?.unwrap_or(DEFAULT_METHOD);
    let t0 = Instant::now();
    let index = method.build(&corpus.collection);
    let built = t0.elapsed();
    let t0 = Instant::now();
    let mut hits = index.query(&TimeTravelQuery::new(from, to, elems));
    let answered = t0.elapsed();
    hits.sort_unstable();
    for id in &hits {
        let o = corpus.collection.get(*id);
        println!("{id}\t[{}, {}]", o.interval.st, o.interval.end);
    }
    eprintln!(
        "{} results | {} | build {:.1?} | query {:.1?} | {} KiB",
        hits.len(),
        index.name(),
        built,
        answered,
        index.size_bytes() / 1024
    );
    Ok(())
}

fn cmd_bench(opts: &Opts) -> Result<(), String> {
    warn_stale_binary();
    let path = opts.get("kernels").ok_or(
        "tir bench measures the kernel grid only (--kernels PATH); per-method build, size \
         and throughput numbers come from the repo benchmark: cargo run --release \
         --manifest-path benchmark/Cargo.toml -- --workload lib_methods",
    )?;
    cmd_bench_kernels(opts, path)
}

/// Short git revision of the checkout that produced this run, with a
/// `-dirty` suffix when the tree has uncommitted changes — so a
/// `BENCH_*.json` can always be matched to (or ruled out against) the
/// source it claims to measure. `"unknown"` outside a git checkout.
fn git_rev() -> String {
    let git = |args: &[&str]| -> Option<String> {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".to_string();
    };
    // -uno: untracked files (the emitted BENCH_*.json themselves, run
    // artifacts) do not make a run unattributable; modified tracked
    // sources do.
    match git(&["status", "--porcelain", "-uno"]) {
        Some(st) if st.is_empty() => rev,
        _ => format!("{rev}-dirty"),
    }
}

/// Compile-time git stamp of this binary (see `build.rs`).
const BUILT_GIT_REV: &str = env!("TIR_BUILD_GIT_REV");

/// Warns when the running binary cannot be trusted to measure the
/// current checkout: built from a dirty tree, or built at a commit the
/// checkout has since moved past.
fn warn_stale_binary() {
    let now = git_rev();
    if BUILT_GIT_REV.ends_with("-dirty") || BUILT_GIT_REV == "unknown" {
        eprintln!(
            "warning: binary stamped {BUILT_GIT_REV}; rebuild (cargo xtask build) \
             before trusting the numbers"
        );
    } else if now != "unknown" && now != BUILT_GIT_REV {
        eprintln!(
            "warning: binary built at {BUILT_GIT_REV} but the checkout is at {now}; \
             rebuild (cargo xtask build) before trusting the numbers"
        );
    }
}

/// Deterministic xorshift64* — the microharness needs cheap well-spread
/// draws, not statistical finesse (same generator the loadgen uses).
struct KernelRng(u64);

impl KernelRng {
    fn new(seed: u64) -> KernelRng {
        KernelRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Sorted unique id set over `[0, universe)` where each id is included
/// with probability `per_mille / 1000`.
fn sample_ids(rng: &mut KernelRng, universe: u32, per_mille: u64) -> Vec<u32> {
    let mut ids = Vec::new();
    for id in 0..universe {
        if rng.next_u64() % 1000 < per_mille {
            ids.push(id);
        }
    }
    ids
}

/// Names the kernel a one-step plan ran on (for the planner rows of the
/// microharness, where the cost model — not the caller — picks).
fn chosen_kernel(stats: &PlanStats) -> &'static str {
    if stats.word_and_steps > 0 {
        "word-and"
    } else if stats.bitmap_probe_steps > 0 {
        "bitmap-probe"
    } else if stats.gallop_steps > 0 {
        "gallop"
    } else {
        "merge"
    }
}

/// `tir bench --kernels PATH`: microbenchmark the intersection kernels
/// over a candidate-density × postings-density grid (synthetic ids, no
/// corpus needed) and write per-cell ns/element to `PATH`.
///
/// Six timings per cell: the raw `merge`, `gallop` and `gallop-rev`
/// array kernels, `blocks` (a planner run round over the stream-vbyte
/// blocks: skip by bounds, decode, mark each block's candidate window),
/// and two planner rows — a [`QueryScratch::intersect`] against
/// the Bernoulli sample as a sorted id array (`planner:*`) and as the
/// present-only words the dense-element bitmaps hand the planner
/// (`planner:bits-*`), each labeled with whichever kernel the cost model
/// picked. After the grid come the reply-path rows
/// ([`bench_reply_kernels`]). CI runs this as a smoke test; the JSON makes
/// kernel-mix regressions diffable.
fn cmd_bench_kernels(opts: &Opts, json_path: &str) -> Result<(), String> {
    use tir_invidx::{intersect_gallop_into, intersect_merge_into, BlockPostings, Postings};
    let universe: u32 = opts.parse_or("universe", 1u32 << 20)?;
    if universe == 0 {
        return Err("--universe must be at least 1".into());
    }
    let reps: u32 = opts.parse_or("reps", 0)?; // 0 = auto-scale per cell
    let mut rng = KernelRng::new(opts.parse_or("seed", 7u64)?);

    println!(
        "{:<8} {:<8} {:>10} {:>10} {:<22} {:>12} {:>12}",
        "cands‰", "post‰", "|cands|", "|post|", "kernel", "ns/call", "ns/elem"
    );
    let mut records = Vec::new();
    for cand_pm in [1u64, 8, 64, 256] {
        let cands = sample_ids(&mut rng, universe, cand_pm);
        for post_pm in [1u64, 8, 64, 256] {
            let postings = sample_ids(&mut rng, universe, post_pm);
            let blocks = BlockPostings::encode(&postings);
            let mut words = vec![0u64; (universe as usize).div_ceil(64)];
            for &id in &postings {
                words[id as usize / 64] |= 1 << (id % 64);
            }
            let work = (cands.len() + postings.len()).max(1);
            let cell_reps = if reps > 0 {
                reps
            } else {
                // Aim for ~20M touched elements per measurement.
                (20_000_000 / work).clamp(3, 1_000) as u32
            };

            let mut out = Vec::new();
            let mut scratch = QueryScratch::default();
            // ns/call of `kernel`, which appends its hits to the buffer
            // it is handed (cleared before every call).
            let mut time = |kernel: &mut dyn FnMut(&mut Vec<u32>)| -> u64 {
                let t0 = Instant::now();
                for _ in 0..cell_reps {
                    out.clear();
                    kernel(&mut out);
                    std::hint::black_box(out.len());
                }
                let per_call = t0.elapsed().as_nanos() / u128::from(cell_reps);
                per_call.min(u128::from(u64::MAX)) as u64
            };
            let (n_cands, n_post) = (cands.len() as u64, postings.len() as u64);
            // (kernel, ns/call, scanned/call, |postings| for the row).
            let mut measured: Vec<(String, u64, u64, u64)> = vec![
                (
                    "merge".into(),
                    time(&mut |o| intersect_merge_into(&cands, &postings, o)),
                    work as u64,
                    n_post,
                ),
                (
                    "gallop".into(),
                    time(&mut |o| intersect_gallop_into(&cands, &postings, o)),
                    n_cands,
                    n_post,
                ),
                (
                    "gallop-rev".into(),
                    time(&mut |o| tir_invidx::intersect_gallop_rev_into(&cands, &postings, o)),
                    n_post,
                    n_post,
                ),
                (
                    "blocks".into(),
                    time(&mut |o| {
                        scratch.reset();
                        scratch.cands.extend_from_slice(&cands);
                        scratch.intersect_runs(|runs| runs.mark_blocks(&blocks, &[]));
                        scratch.drain_into(o);
                    }),
                    scratch.last_stats().scanned.max(1),
                    n_post,
                ),
            ];
            for (label, side) in [
                ("planner:", Postings::Ids(&postings)),
                ("planner:bits-", Postings::Bits(&words)),
            ] {
                let ns_call = time(&mut |o| {
                    scratch.reset();
                    scratch.cands.extend_from_slice(&cands);
                    scratch.intersect(side);
                    scratch.drain_into(o);
                });
                let stats = scratch.last_stats();
                let mut kernel = chosen_kernel(&stats);
                if label == "planner:bits-" {
                    // `planner:bits-probe` or `planner:bits-word-and`.
                    kernel = kernel.trim_start_matches("bitmap-");
                }
                measured.push((
                    format!("{label}{kernel}"),
                    ns_call,
                    stats.scanned.max(1),
                    n_post,
                ));
            }

            for (kernel, ns_call, scanned, n_post) in measured {
                let ns_elem = ns_call as f64 / scanned as f64;
                println!(
                    "{:<8} {:<8} {:>10} {:>10} {:<22} {:>12} {:>12.2}",
                    cand_pm,
                    post_pm,
                    cands.len(),
                    n_post,
                    kernel,
                    ns_call,
                    ns_elem
                );
                records.push(Json::obj(vec![
                    ("cands_per_mille", Json::Int(cand_pm)),
                    ("postings_per_mille", Json::Int(post_pm)),
                    ("cands", Json::Int(cands.len() as u64)),
                    ("postings", Json::Int(n_post)),
                    ("kernel", Json::str(kernel)),
                    ("reps", Json::Int(u64::from(cell_reps))),
                    ("ns_per_call", Json::Int(ns_call)),
                    ("ns_per_elem", Json::Num(ns_elem)),
                ]));
            }
        }
    }
    bench_reply_kernels(&mut rng, reps, &mut records);
    let doc = Json::obj(vec![
        ("tool", Json::str("tir bench --kernels")),
        ("git_rev", Json::str(git_rev())),
        (
            "simd_level",
            Json::str(format!("{:?}", tir_invidx::simd::level())),
        ),
        ("universe", Json::Int(u64::from(universe))),
        ("cells", Json::Arr(records)),
    ]);
    std::fs::write(json_path, format!("{doc}\n")).map_err(|e| format!("{json_path}: {e}"))?;
    eprintln!("wrote {json_path}");
    Ok(())
}

/// The reply-path rows of the kernel grid: what it costs per id to put an
/// answer in order (`reply:order-ids`, with `reply:sort-unstable` as the
/// comparison sort it replaced), to write it as a `HITS` line
/// (`reply:format-hits`) and to parse that line back
/// (`reply:parse-hits`). Answers are 16 to 32 K distinct ids of a
/// 100 K-id universe, as `serve_range`'s are, handed over as 1, 8 or 32
/// ascending runs — one per division an irHINT walk reported from; the
/// line is the same whatever the runs, so it is timed once per size.
fn bench_reply_kernels(rng: &mut KernelRng, reps: u32, records: &mut Vec<Json>) {
    use tir_serve::protocol::{format_response, parse_response, write_response, Response};
    const UNIVERSE: u32 = 100_000;
    println!(
        "{:<8} {:<8} {:<22} {:>12} {:>12}",
        "ids", "runs", "kernel", "ns/call", "ns/id"
    );
    let mut universe: Vec<u32> = (0..UNIVERSE).collect();
    let mut arena = Vec::new();
    for n in [16usize, 256, 4096, 32_768] {
        // A partial Fisher–Yates draw: the first `n` slots end up a
        // uniform sample without repeats.
        for i in 0..n {
            let j = i + (rng.next_u64() % (u64::from(UNIVERSE) - i as u64)) as usize;
            universe.swap(i, j);
        }
        let cell_reps = if reps > 0 {
            reps
        } else {
            (4_000_000 / n).clamp(20, 20_000) as u32
        };
        let time = |step: &mut dyn FnMut()| -> u64 {
            let t0 = Instant::now();
            for _ in 0..cell_reps {
                step();
            }
            let per_call = t0.elapsed().as_nanos() / u128::from(cell_reps);
            per_call.min(u128::from(u64::MAX)) as u64
        };
        let mut emit = |kernel: &str, runs: usize, ns_call: u64| {
            let ns_id = ns_call as f64 / n as f64;
            println!("{n:<8} {runs:<8} {kernel:<22} {ns_call:>12} {ns_id:>12.2}");
            records.push(Json::obj(vec![
                ("kernel", Json::str(kernel)),
                ("ids", Json::Int(n as u64)),
                ("runs", Json::Int(runs as u64)),
                ("reps", Json::Int(u64::from(cell_reps))),
                ("ns_per_call", Json::Int(ns_call)),
                ("ns_per_elem", Json::Num(ns_id)),
            ]));
        };
        for runs in [1usize, 8, 32] {
            let mut by_run: Vec<Vec<u32>> = vec![Vec::new(); runs];
            for &id in &universe[..n] {
                by_run[(rng.next_u64() % runs as u64) as usize].push(id);
            }
            for run in &mut by_run {
                run.sort_unstable();
            }
            let answer = by_run.concat();
            let mut ids = answer.clone();
            // Both rows pay the same copy that restores the input.
            let ordered = time(&mut || {
                ids.copy_from_slice(&answer);
                tir_invidx::order_ids_ascending(&mut ids, &mut arena);
                std::hint::black_box(&ids);
            });
            emit("reply:order-ids", runs, ordered);
            let sorted = time(&mut || {
                ids.copy_from_slice(&answer);
                ids.sort_unstable();
                std::hint::black_box(&ids);
            });
            emit("reply:sort-unstable", runs, sorted);
        }
        let mut ascending = universe[..n].to_vec();
        ascending.sort_unstable();
        let hits = Response::Hits(ascending);
        let mut line = Vec::new();
        let formatted = time(&mut || {
            line.clear();
            write_response(std::hint::black_box(&hits), &mut line);
            std::hint::black_box(&line);
        });
        emit("reply:format-hits", 1, formatted);
        let text = format_response(&hits);
        let parsed = time(&mut || {
            std::hint::black_box(parse_response(std::hint::black_box(&text)).is_ok());
        });
        emit("reply:parse-hits", 1, parsed);
    }
}

/// Builds every method's index over the collection and collects the
/// structural violations each one reports, tagged by method name.
fn validate_all(coll: &Collection) -> Vec<(&'static str, Vec<tir_check::Violation>)> {
    use tir_check::Validate;
    Method::ALL
        .iter()
        .map(|&m| (m.name(), with_method!(m, |I, build| build(coll).validate())))
        .collect()
}

/// `tir check --file SNAPSHOT`: fsck one on-disk snapshot — open-time
/// CRC/bounds validation plus the deep content walk in `tir-check`.
fn cmd_check_file(path: &str) -> Result<(), String> {
    let p = Path::new(path);
    let violations = tir_check::validate_snapshot(p);
    if violations.is_empty() {
        let snap = SnapshotFile::open(p).map_err(|e| format!("{path}: {e}"))?;
        let m = snap.meta();
        println!(
            "{path}: ok ({} @ epoch {}, {} live)",
            m.method, m.epoch, m.live
        );
        return Ok(());
    }
    for v in &violations {
        println!("{v}");
    }
    Err(format!("{path}: {} violation(s)", violations.len()))
}

fn cmd_check(opts: &Opts) -> Result<(), String> {
    use tir_check::Validate;
    if let Some(path) = opts.get("file") {
        return cmd_check_file(path);
    }
    let corpus = load(opts)?;
    let mut total = 0usize;
    let mut reports = validate_all(&corpus.collection);
    reports.push(("dictionary", corpus.dictionary.validate()));
    for (name, violations) in &reports {
        if violations.is_empty() {
            println!("{name:<12} ok");
        } else {
            println!("{name:<12} {} violation(s)", violations.len());
            for v in violations {
                println!("  {v}");
            }
            total += violations.len();
        }
    }
    if total == 0 {
        eprintln!("all structural invariants hold");
        Ok(())
    } else {
        Err(format!("{total} structural violation(s)"))
    }
}

/// Loads the serving corpus: a TSV file when `--input` is given, else a
/// synthetic collection (`--scale`, `--seed`) whose dictionary uses the
/// same `e<id>` terms `tir gen` writes to disk.
fn serve_corpus(opts: &Opts) -> Result<Corpus, String> {
    if opts.get("input").is_some() {
        return load(opts);
    }
    let scale: f64 = opts.parse_or("scale", 0.01)?;
    let mut cfg = SyntheticConfig::default().scaled(scale);
    cfg.seed = opts.parse_or("seed", cfg.seed)?;
    let collection = tir_datagen::generate(&cfg);
    let mut dictionary = tir_invidx::Dictionary::new();
    for e in 0..collection.dict_size() as u32 {
        let id = dictionary.intern(&format!("e{e}"));
        debug_assert_eq!(id, e);
    }
    Ok(Corpus {
        collection,
        dictionary,
    })
}

/// A post-swap validator for any index tir-check knows how to audit:
/// the applier runs it on every freshly rebuilt snapshot and counts the
/// violations into `STATS`.
fn checking_validator<I>() -> Option<Validator<I>>
where
    I: tir_check::Validate + Send + Sync + 'static,
{
    Some(Box::new(|index: &I| index.validate().len()))
}

/// Writes the port file (if requested) and blocks until the accept loop
/// exits (client `SHUTDOWN` or process signal).
fn run_server(handle: ServerHandle, port_file: Option<&str>) -> Result<(), String> {
    let addr = handle.addr();
    if let Some(path) = port_file {
        std::fs::write(path, format!("{addr}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    eprintln!("serving on {addr} (send SHUTDOWN to stop)");
    handle.join();
    eprintln!("server stopped");
    Ok(())
}

/// Boots the serving stack over a concrete index type.
fn serve_index<I>(
    index: I,
    corpus: Corpus,
    config: ServerConfig,
    port_file: Option<&str>,
) -> Result<(), String>
where
    I: TemporalIrIndex + tir_check::Validate + Clone + Send + Sync + 'static,
{
    let catalog = corpus.collection.objects().to_vec();
    let validator = checking_validator();
    let handle = spawn_server(index, catalog, corpus.dictionary, config, validator)
        .map_err(|e| format!("bind: {e}"))?;
    run_server(handle, port_file)
}

fn server_config(opts: &Opts, method: Method) -> Result<ServerConfig, String> {
    let port: u16 = opts.parse_or("port", 0)?;
    let host = opts.get("host").unwrap_or("127.0.0.1");
    Ok(ServerConfig {
        addr: format!("{host}:{port}"),
        pool: PoolConfig {
            workers: opts.parse_or("workers", PoolConfig::default().workers)?,
            queue_depth: opts.parse_or("queue-depth", PoolConfig::default().queue_depth)?,
        },
        write_queue_depth: opts.parse_or("write-queue", 1024)?,
        max_write_batch: opts.parse_or("write-batch", 256)?,
        method: method.to_string(),
    })
}

/// The method the data directory's current snapshot is tagged with.
fn snapshot_method(dir: &Path) -> Result<Method, String> {
    let path = dir.join(SNAPSHOT_NAME);
    let snap = SnapshotFile::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(snap.meta().method)
}

/// Fscks the data directory's snapshot; any violation refuses the load.
fn fsck_data_dir(dir: &Path) -> Result<(), String> {
    let path = dir.join(SNAPSHOT_NAME);
    let violations = tir_check::validate_snapshot(&path);
    if violations.is_empty() {
        return Ok(());
    }
    for v in &violations {
        eprintln!("{}: {v}", path.display());
    }
    Err(format!(
        "{}: {} fsck violation(s); refusing to load",
        path.display(),
        violations.len()
    ))
}

/// `tir serve --data-dir`: recovers (or initializes) the directory, then
/// serves with the WAL in front of the applier — every acknowledged
/// write survives `kill -9`.
fn serve_durable<I, F>(
    opts: &Opts,
    dir: &Path,
    d_opts: DurabilityOptions,
    build: F,
    config: ServerConfig,
    port_file: Option<&str>,
) -> Result<(), String>
where
    I: TemporalIrIndex + tir_check::Validate + Clone + Send + Sync + 'static,
    F: FnOnce(&Collection) -> I,
{
    let (index, dict, durability) = if Durability::exists(dir) {
        fsck_data_dir(dir)?;
        let r: Recovered<I> = Durability::recover(dir, d_opts)
            .map_err(|e| format!("recover {}: {e}", dir.display()))?;
        eprintln!(
            "recovered {} to epoch {} ({} WAL batch(es) replayed{})",
            dir.display(),
            r.epoch,
            r.replayed,
            if r.truncated_tail {
                ", torn WAL tail truncated"
            } else {
                ""
            }
        );
        (r.index, r.dict, r.durability)
    } else {
        let corpus = serve_corpus(opts)?;
        eprintln!(
            "building {} over {} objects...",
            config.method,
            corpus.collection.len()
        );
        let index = build(&corpus.collection);
        let durability = Durability::create(
            dir,
            &index,
            &corpus.dictionary,
            corpus.collection.objects(),
            d_opts,
        )
        .map_err(|e| format!("init {}: {e}", dir.display()))?;
        eprintln!("initialized durable data dir {} at epoch 0", dir.display());
        (index, corpus.dictionary, durability)
    };
    let log = TermLog::open(dir).map_err(|e| format!("terms.log: {e}"))?;
    let handle = spawn_server_durable(
        index,
        ServeDict::durable(dict, log),
        durability,
        config,
        checking_validator(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    run_server(handle, port_file)
}

fn cmd_serve_durable(opts: &Opts, dir: &Path) -> Result<(), String> {
    let d_opts = DurabilityOptions {
        snapshot_every: opts.parse_or(
            "snapshot-every",
            DurabilityOptions::default().snapshot_every,
        )?,
        ..DurabilityOptions::default()
    };
    // An existing directory dictates the method: the snapshot knows what
    // wrote it, and a conflicting --method is an operator error.
    let requested = opts.method()?;
    let method = if Durability::exists(dir) {
        let held = snapshot_method(dir)?;
        if let Some(m) = requested.filter(|&m| m != held) {
            return Err(format!(
                "{} already holds a {held} snapshot; --method {m} conflicts",
                dir.display()
            ));
        }
        held
    } else {
        requested.unwrap_or(DEFAULT_METHOD)
    };
    let config = server_config(opts, method)?;
    let port_file = opts.get("port-file");
    with_method!(method, |I, build| serve_durable(
        opts, dir, d_opts, build, config, port_file
    ))
}

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    if let Some(dir) = opts.get("data-dir") {
        return cmd_serve_durable(opts, Path::new(dir));
    }
    let corpus = serve_corpus(opts)?;
    let method = opts.method()?.unwrap_or(DEFAULT_METHOD);
    let config = server_config(opts, method)?;
    let port_file = opts.get("port-file");
    eprintln!(
        "building {method} over {} objects...",
        corpus.collection.len()
    );
    // Static dispatch per method so each serving stack is monomorphic,
    // with the tir-check post-swap validator behind every one.
    with_method!(method, |I, build| serve_index(
        build(&corpus.collection),
        corpus,
        config,
        port_file
    ))
}

/// `tir snapshot`: build an index over a corpus and write the snapshot
/// a data directory of it would start from, then fsck the result — a
/// one-shot exporter for the `tir check --file` tooling.
fn cmd_snapshot(opts: &Opts) -> Result<(), String> {
    let out = opts.require("out")?;
    let corpus = serve_corpus(opts)?;
    let method = opts.method()?.unwrap_or(DEFAULT_METHOD);
    let epoch: u64 = opts.parse_or("epoch", 0)?;
    let path = Path::new(out);
    with_method!(method, |I, build| tir_persist::write_snapshot(
        path,
        epoch,
        &corpus.dictionary,
        corpus.collection.objects(),
        &build(&corpus.collection),
    ))
    .map_err(|e| format!("{out}: {e}"))?;
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "wrote {out} ({method}, {} objects, {} KiB)",
        corpus.collection.len(),
        bytes / 1024
    );
    cmd_check_file(out)
}

/// Recovers a data directory outside the server (`tir recover`): report
/// what last-snapshot + WAL replay reaches, optionally proving the
/// result against the brute-force oracle rebuilt from the recovered
/// catalog.
fn recover_and_report<I>(opts: &Opts, dir: &Path) -> Result<(), String>
where
    I: TemporalIrIndex + 'static,
{
    let r: Recovered<I> = Durability::recover(dir, DurabilityOptions::default())
        .map_err(|e| format!("recover {}: {e}", dir.display()))?;
    println!("data dir    {}", dir.display());
    println!("method      {}", r.index.name());
    println!("epoch       {}", r.epoch);
    println!("replayed    {} WAL batch(es)", r.replayed);
    println!(
        "torn tail   {}",
        if r.truncated_tail { "truncated" } else { "no" }
    );
    println!("live        {}", r.durability.live());
    println!("dictionary  {}", r.dict.len());
    if opts.get("verify").is_none() {
        return Ok(());
    }
    // Oracle agreement: the recovered index must answer exactly like a
    // brute-force scan of the recovered catalog, over a query grid
    // spanning the catalog's domain and element range.
    let catalog = r.durability.catalog_sorted();
    let grid = tir_check::oracle_query_grid(&catalog, 16, 0);
    if let Some(v) = tir_check::diff_against_oracle(&r.index, &catalog, &grid).first() {
        return Err(format!("oracle divergence: {v}"));
    }
    println!(
        "verified    {} queries against the brute-force oracle",
        grid.len()
    );
    Ok(())
}

fn cmd_recover(opts: &Opts) -> Result<(), String> {
    let dir = Path::new(opts.require("data-dir")?);
    if !Durability::exists(dir) {
        return Err(format!("{}: no snapshot found", dir.display()));
    }
    if opts.get("verify").is_some() {
        fsck_data_dir(dir)?;
        println!("fsck        clean");
    }
    with_method!(snapshot_method(dir)?, |I, build| recover_and_report::<I>(
        opts, dir
    ))
}

fn cmd_loadgen(opts: &Opts) -> Result<(), String> {
    warn_stale_binary();
    let mut cfg = LoadgenConfig::new(opts.require("addr")?);
    cfg.requests = opts.parse_or("requests", cfg.requests)?;
    cfg.threads = opts.parse_or("threads", cfg.threads)?;
    cfg.write_fraction = opts.parse_or("write-fraction", cfg.write_fraction)?;
    cfg.insert_fraction = opts.parse_or("insert-fraction", cfg.insert_fraction)?;
    cfg.max_elems = opts.parse_or("elems", cfg.max_elems)?;
    cfg.seed = opts.parse_or("seed", cfg.seed)?;
    cfg.durability = opts.parse_or("durability", cfg.durability)?;
    cfg.deadline_ms = opts.parse_or("deadline-ms", cfg.deadline_ms)?;
    cfg.retries = opts.parse_or("retries", cfg.retries)?;
    cfg.backoff_ms = opts.parse_or("backoff-ms", cfg.backoff_ms)?;
    if !(0.0..=1.0).contains(&cfg.write_fraction) || !(0.0..=1.0).contains(&cfg.insert_fraction) {
        return Err("--write-fraction and --insert-fraction must be in [0, 1]".into());
    }
    let json_path = opts.get("json").unwrap_or("BENCH_serve.json");

    let report = loadgen::run(&cfg)?;
    println!("{}", report.render());
    let mut doc = report.to_json();
    if let Json::Obj(pairs) = &mut doc {
        pairs.push(("git_rev".to_string(), Json::str(git_rev())));
    }
    std::fs::write(json_path, format!("{doc}\n")).map_err(|e| format!("{json_path}: {e}"))?;
    eprintln!("wrote {json_path}");
    if report.wrong > 0 {
        return Err(format!(
            "{} provably wrong answer(s) during the run",
            report.wrong
        ));
    }
    if report.errors > 0 {
        return Err(format!(
            "{} protocol error(s) during the run",
            report.errors
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_is_clean_on_running_example() {
        let coll = Collection::running_example();
        for (name, violations) in validate_all(&coll) {
            assert!(violations.is_empty(), "{name}: {violations:?}");
        }
    }

    #[test]
    fn opts_parsing() {
        let args: Vec<String> = ["--from", "5", "--to", "9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = Opts::parse(&args).unwrap();
        assert_eq!(o.require("from").unwrap(), "5");
        assert!(o.require("missing").is_err());
        assert_eq!(o.parse_or("to", 0u64).unwrap(), 9);
        assert_eq!(o.parse_or("absent", 42u64).unwrap(), 42);
    }

    #[test]
    fn opts_rejects_positional() {
        let args: Vec<String> = vec!["oops".into()];
        assert!(Opts::parse(&args).is_err());
    }

    fn abc_dictionary() -> tir_invidx::Dictionary {
        let mut dict = tir_invidx::Dictionary::new();
        for name in ["a", "b", "c"] {
            dict.intern(name);
        }
        dict
    }

    #[test]
    fn elems_flag_parses_known_elements() {
        let dict = abc_dictionary();
        assert_eq!(parse_elems_flag("a,c", &dict).unwrap(), vec![0, 2]);
        assert_eq!(parse_elems_flag(" b ", &dict).unwrap(), vec![1]);
    }

    #[test]
    fn elems_flag_rejects_every_malformed_shape() {
        let dict = abc_dictionary();
        // The old behavior let these slip through as a silently smaller
        // (or empty) element set; all of them must now be hard errors.
        for bad in [
            "", "  ", ",", "a,", ",a", "a,,c", "a, ,c", "zebra", "a,zebra",
        ] {
            assert!(
                parse_elems_flag(bad, &dict).is_err(),
                "'{bad}' was accepted"
            );
        }
    }

    #[test]
    fn serve_corpus_synthetic_dictionary_matches_collection() {
        let args: Vec<String> = ["--scale", "0.001", "--seed", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = Opts::parse(&args).unwrap();
        let corpus = serve_corpus(&opts).unwrap();
        assert_eq!(corpus.dictionary.len(), corpus.collection.dict_size());
        // Term ids line up with element ids, so wire-protocol terms
        // resolve to the elements the objects actually carry.
        let last = corpus.collection.dict_size() as u32 - 1;
        assert_eq!(corpus.dictionary.lookup(&format!("e{last}")), Some(last));
    }
}
