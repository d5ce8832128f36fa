//! Closed-loop multi-threaded load generator for `tir serve`.
//!
//! Each of `threads` workers opens one TCP connection and issues
//! requests back-to-back (closed loop: a worker's next request waits for
//! its previous answer, so concurrency equals the thread count). The mix
//! is read-heavy with a configurable write fraction; inserts mint globally
//! unique ids above the server's `next_id`, and deletes only target ids
//! the issuing thread inserted itself, so `MISSING` should never occur.
//!
//! Every request is timed into a per-thread [`LatencyHistogram`]; the
//! merged report carries throughput and p50/p95/p99 latency. `OVERLOADED`
//! responses count as *rejected* (backpressure working as designed), not
//! as protocol errors; `errors` counts only `ERR` responses, unparseable
//! lines, and unrecovered transport failures — a clean run reports
//! `errors == 0`.
//!
//! Resilience loop: every connection carries a client-side read timeout,
//! queries optionally ship a `DEADLINE <ms>` budget, and `OVERLOADED`,
//! `TIMEOUT`, and transport failures are retried with jittered
//! exponential backoff (reconnecting first when the transport died).
//! Each occurrence still lands in its own counter (`rejected`,
//! `timeouts`, `retries`, `degraded`), so the report shows both how
//! often the server pushed back and how much work the client re-issued.
//! Answer sets are structurally checked (strictly ascending unique ids);
//! any violation bumps `wrong`, which the CLI turns into a nonzero exit.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::histogram::LatencyHistogram;
use crate::json::Json;
use crate::protocol::{parse_response, Response};

/// Deterministic xorshift64* generator — the loadgen is std-only and
/// needs no statistical finesse, just cheap well-spread draws.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, n)`; `n` must be nonzero.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 > 1.0 - p
    }
}

/// Load generator parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Total requests across all threads.
    pub requests: u64,
    /// Concurrent closed-loop connections.
    pub threads: usize,
    /// Fraction of requests that are writes (default 0.05).
    pub write_fraction: f64,
    /// Fraction of writes that are inserts (default 0.7).
    pub insert_fraction: f64,
    /// Maximum elements per query (each query draws 1..=this).
    pub max_elems: usize,
    /// RNG seed.
    pub seed: u64,
    /// Durability mode: issue a `FLUSH` barrier after every this many
    /// writes per worker and report flush latency separately (0 = off).
    /// Against a `--data-dir` server the flush waits for the WAL fsync,
    /// so these percentiles are the durability cost on the wire.
    pub durability: u64,
    /// Per-query deadline shipped as `DEADLINE <ms>` (0 = none).
    pub deadline_ms: u64,
    /// Maximum retry attempts per request after `OVERLOADED`, `TIMEOUT`,
    /// or a transport failure (0 = fail fast).
    pub retries: u32,
    /// Base backoff before the first retry, milliseconds; doubles per
    /// attempt with up to 100% random jitter on top.
    pub backoff_ms: u64,
}

impl LoadgenConfig {
    /// Defaults for everything but the address.
    pub fn new(addr: impl Into<String>) -> LoadgenConfig {
        LoadgenConfig {
            addr: addr.into(),
            requests: 5000,
            threads: 4,
            write_fraction: 0.05,
            insert_fraction: 0.7,
            max_elems: 3,
            seed: 7,
            durability: 0,
            deadline_ms: 0,
            retries: 3,
            backoff_ms: 2,
        }
    }
}

/// Aggregated results of a load run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests issued.
    pub requests: u64,
    /// Successful answers (`HITS` or `OK`).
    pub ok: u64,
    /// Total ids returned across all `HITS`.
    pub hits: u64,
    /// `OVERLOADED` rejections (backpressure).
    pub rejected: u64,
    /// `MISSING` answers (should stay 0 for this generator's mix).
    pub missing: u64,
    /// Protocol errors and unrecovered transport failures — a healthy
    /// run reports 0.
    pub errors: u64,
    /// `TIMEOUT` answers (each occurrence, including retried ones).
    pub timeouts: u64,
    /// Retry attempts issued (backoff loop iterations).
    pub retries: u64,
    /// `DEGRADED` answers — the server latched read-only mid-run.
    pub degraded: u64,
    /// Structurally wrong answers (ids not strictly ascending unique).
    /// Any nonzero value fails the run at the CLI.
    pub wrong: u64,
    /// Wall-clock duration of the measured phase in seconds.
    pub elapsed_s: f64,
    /// Requests per second (all threads combined).
    pub qps: f64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Worst observed latency, microseconds.
    pub max_us: f64,
    /// `FLUSH` barriers issued (durability mode; 0 when off). Flush
    /// round-trips are timed into their own histogram and excluded from
    /// the request percentiles above.
    pub flushes: u64,
    /// Median flush-barrier latency, microseconds.
    pub flush_p50_us: f64,
    /// 95th-percentile flush-barrier latency, microseconds.
    pub flush_p95_us: f64,
    /// 99th-percentile flush-barrier latency, microseconds.
    pub flush_p99_us: f64,
    /// Worst observed flush-barrier latency, microseconds.
    pub flush_max_us: f64,
    /// Serving method reported by the server.
    pub method: String,
    /// Index footprint reported by the server.
    pub size_bytes: u64,
    /// Threads used.
    pub threads: usize,
    /// Conjunction-planner kernel mix over the run (post-run minus
    /// pre-run server counters): scalar merge steps.
    pub kern_merge: u64,
    /// Vectorized merge steps during the run.
    pub kern_simd_merge: u64,
    /// Gallop / binary-search steps during the run.
    pub kern_gallop: u64,
    /// Bitmap-probe steps during the run.
    pub kern_bitmap_probe: u64,
    /// Word-AND steps during the run.
    pub kern_word_and: u64,
    /// Always 0 (`PlanStats::run_intersect_steps`): kept for the repo
    /// benchmark, which reads the key.
    pub kern_run_intersect: u64,
    /// Compressed posting blocks decoded during the run.
    pub blocks_decoded: u64,
    /// Elements scanned by intersection kernels during the run.
    pub elems_scanned: u64,
    /// Epochs during the run whose master the applier made by replaying
    /// the batch onto the retired copy.
    pub publish_reused: u64,
    /// Epochs during the run whose master was a clone of the published
    /// copy, because a reader still pinned the retired one.
    pub publish_cloned: u64,
}

impl LoadgenReport {
    /// The `BENCH_serve.json` record for this run.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tool", Json::str("tir loadgen")),
            ("method", Json::str(self.method.clone())),
            ("threads", Json::Int(self.threads as u64)),
            ("requests", Json::Int(self.requests)),
            ("ok", Json::Int(self.ok)),
            ("hits", Json::Int(self.hits)),
            ("rejected", Json::Int(self.rejected)),
            ("missing", Json::Int(self.missing)),
            ("errors", Json::Int(self.errors)),
            ("timeouts", Json::Int(self.timeouts)),
            ("retries", Json::Int(self.retries)),
            ("degraded", Json::Int(self.degraded)),
            ("wrong", Json::Int(self.wrong)),
            ("elapsed_s", Json::Num(self.elapsed_s)),
            ("qps", Json::Num(self.qps)),
            ("p50_us", Json::Num(self.p50_us)),
            ("p95_us", Json::Num(self.p95_us)),
            ("p99_us", Json::Num(self.p99_us)),
            ("max_us", Json::Num(self.max_us)),
            ("flushes", Json::Int(self.flushes)),
            ("flush_p50_us", Json::Num(self.flush_p50_us)),
            ("flush_p95_us", Json::Num(self.flush_p95_us)),
            ("flush_p99_us", Json::Num(self.flush_p99_us)),
            ("flush_max_us", Json::Num(self.flush_max_us)),
            ("size_bytes", Json::Int(self.size_bytes)),
            ("kern_merge", Json::Int(self.kern_merge)),
            ("kern_simd_merge", Json::Int(self.kern_simd_merge)),
            ("kern_gallop", Json::Int(self.kern_gallop)),
            ("kern_bitmap_probe", Json::Int(self.kern_bitmap_probe)),
            ("kern_word_and", Json::Int(self.kern_word_and)),
            ("kern_run_intersect", Json::Int(self.kern_run_intersect)),
            ("blocks_decoded", Json::Int(self.blocks_decoded)),
            ("elems_scanned", Json::Int(self.elems_scanned)),
            ("publish_reused", Json::Int(self.publish_reused)),
            ("publish_cloned", Json::Int(self.publish_cloned)),
        ])
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{} requests in {:.2}s over {} threads against {}\n\
             throughput  {:.0} req/s\n\
             latency     p50 {:.0}µs | p95 {:.0}µs | p99 {:.0}µs | max {:.0}µs\n\
             outcomes    ok {} | hits {} | rejected {} | missing {} | errors {}\n\
             resilience  timeouts {} | retries {} | degraded {} | wrong {}\n\
             kernels     merge {} | simd-merge {} | gallop {} | bitmap-probe {} | word-AND {} \
             | run {} | blocks {} | scanned {}\n\
             publish     reused {} | cloned {}",
            self.requests,
            self.elapsed_s,
            self.threads,
            self.method,
            self.qps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.max_us,
            self.ok,
            self.hits,
            self.rejected,
            self.missing,
            self.errors,
            self.timeouts,
            self.retries,
            self.degraded,
            self.wrong,
            self.kern_merge,
            self.kern_simd_merge,
            self.kern_gallop,
            self.kern_bitmap_probe,
            self.kern_word_and,
            self.kern_run_intersect,
            self.blocks_decoded,
            self.elems_scanned,
            self.publish_reused,
            self.publish_cloned
        );
        if self.flushes > 0 {
            s.push_str(&format!(
                "\nflushes     {} barriers | p50 {:.0}µs | p95 {:.0}µs | p99 {:.0}µs | max {:.0}µs",
                self.flushes,
                self.flush_p50_us,
                self.flush_p95_us,
                self.flush_p99_us,
                self.flush_max_us
            ));
        }
        s
    }
}

/// A client connection speaking the line protocol: no Nagle delay, one
/// write per request, and an optional read timeout.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Connection {
    fn open(addr: &str) -> Result<Connection, String> {
        Connection::open_with_timeout(addr, None)
    }

    /// Opens a connection with a client-side read timeout: a server that
    /// stalls past it surfaces as a transport error (and the retry loop
    /// reconnects) instead of hanging the worker forever.
    pub fn open_with_timeout(
        addr: &str,
        read_timeout: Option<std::time::Duration>,
    ) -> Result<Connection, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(read_timeout)
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Connection {
            reader,
            writer: stream,
            line: String::new(),
        })
    }

    /// One request/response round trip. `Err` means the transport died
    /// or stalled past the read timeout, or the reply did not parse.
    pub fn call(&mut self, request: &str) -> Result<Response, String> {
        // One write per request: the server must never wake on a line
        // whose terminator is still in flight.
        self.line.clear();
        self.line.push_str(request);
        self.line.push('\n');
        self.writer
            .write_all(self.line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        parse_response(self.line.trim_end())
    }
}

/// Server-side counters scraped from a STATS reply: the
/// conjunction-planner kernel mix and how the applier made each epoch's
/// master. A server that omits a key reads 0 for it.
#[derive(Debug, Clone, Copy, Default)]
struct ServerCounters {
    merge: u64,
    simd_merge: u64,
    gallop: u64,
    bitmap_probe: u64,
    word_and: u64,
    run_intersect: u64,
    blocks_decoded: u64,
    scanned: u64,
    publish_reused: u64,
    publish_cloned: u64,
}

impl ServerCounters {
    fn from_stats(pairs: &[(String, String)]) -> ServerCounters {
        let get = |key: &str| -> u64 {
            pairs
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(0)
        };
        ServerCounters {
            merge: get("kern_merge"),
            simd_merge: get("kern_simd_merge"),
            gallop: get("kern_gallop"),
            bitmap_probe: get("kern_bitmap_probe"),
            word_and: get("kern_word_and"),
            run_intersect: get("kern_run_intersect"),
            blocks_decoded: get("blocks_decoded"),
            scanned: get("elems_scanned"),
            publish_reused: get("publish_reused"),
            publish_cloned: get("publish_cloned"),
        }
    }

    /// Counter delta since `earlier` (saturating: a restarted server
    /// yields zeros, not nonsense).
    fn since(&self, earlier: &ServerCounters) -> ServerCounters {
        ServerCounters {
            merge: self.merge.saturating_sub(earlier.merge),
            simd_merge: self.simd_merge.saturating_sub(earlier.simd_merge),
            gallop: self.gallop.saturating_sub(earlier.gallop),
            bitmap_probe: self.bitmap_probe.saturating_sub(earlier.bitmap_probe),
            word_and: self.word_and.saturating_sub(earlier.word_and),
            run_intersect: self.run_intersect.saturating_sub(earlier.run_intersect),
            blocks_decoded: self.blocks_decoded.saturating_sub(earlier.blocks_decoded),
            scanned: self.scanned.saturating_sub(earlier.scanned),
            publish_reused: self.publish_reused.saturating_sub(earlier.publish_reused),
            publish_cloned: self.publish_cloned.saturating_sub(earlier.publish_cloned),
        }
    }
}

/// One STATS round-trip for its counters only.
fn fetch_counters(addr: &str) -> Result<ServerCounters, String> {
    let mut conn = Connection::open(addr)?;
    match conn.call("STATS")? {
        Response::Stats(pairs) => Ok(ServerCounters::from_stats(&pairs)),
        other => Err(format!("expected STATS, got {other:?}")),
    }
}

/// Server facts loadgen needs before it can generate a workload.
struct ServerInfo {
    method: String,
    size_bytes: u64,
    next_id: u32,
    domain_min: u64,
    domain_max: u64,
    terms: Vec<String>,
    /// Counters at discovery time — the "before" snapshot.
    counters: ServerCounters,
}

fn discover(addr: &str) -> Result<ServerInfo, String> {
    let mut conn = Connection::open(addr)?;
    let stats = match conn.call("STATS")? {
        Response::Stats(pairs) => pairs,
        other => return Err(format!("expected STATS, got {other:?}")),
    };
    let get = |key: &str| -> Option<String> {
        stats.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    let method = get("method").unwrap_or_else(|| "unknown".into());
    let size_bytes = get("size_bytes").and_then(|v| v.parse().ok()).unwrap_or(0);
    let next_id: u32 = get("next_id")
        .and_then(|v| v.parse().ok())
        .ok_or("STATS lacks next_id")?;
    let (domain_min, domain_max) = get("domain")
        .and_then(|v| {
            let (lo, hi) = v.split_once(':')?;
            Some((lo.parse().ok()?, hi.parse().ok()?))
        })
        .ok_or("STATS lacks domain")?;
    let counters = ServerCounters::from_stats(&stats);
    let terms = match conn.call("ELEMS 256")? {
        Response::Elems(terms) => terms,
        other => return Err(format!("expected ELEMS, got {other:?}")),
    };
    if terms.is_empty() {
        return Err("server returned no element terms to query with".into());
    }
    Ok(ServerInfo {
        method,
        size_bytes,
        next_id,
        domain_min,
        domain_max,
        terms,
        counters,
    })
}

#[derive(Default)]
struct ThreadOutcome {
    histogram: LatencyHistogram,
    flush_histogram: LatencyHistogram,
    ok: u64,
    hits: u64,
    rejected: u64,
    missing: u64,
    errors: u64,
    flushes: u64,
    timeouts: u64,
    retries: u64,
    degraded: u64,
    wrong: u64,
}

/// Merged per-thread outcomes: histograms and every counter summed.
#[derive(Default)]
struct Totals {
    histogram: LatencyHistogram,
    flush_histogram: LatencyHistogram,
    ok: u64,
    hits: u64,
    rejected: u64,
    missing: u64,
    errors: u64,
    flushes: u64,
    timeouts: u64,
    retries: u64,
    degraded: u64,
    wrong: u64,
}

impl Totals {
    fn absorb(&mut self, o: &ThreadOutcome) {
        self.histogram.merge(&o.histogram);
        self.flush_histogram.merge(&o.flush_histogram);
        self.ok += o.ok;
        self.hits += o.hits;
        self.rejected += o.rejected;
        self.missing += o.missing;
        self.errors += o.errors;
        self.flushes += o.flushes;
        self.timeouts += o.timeouts;
        self.retries += o.retries;
        self.degraded += o.degraded;
        self.wrong += o.wrong;
    }
}

/// Strictly ascending unique ids — the wire contract of `HITS`. A
/// violation means the server answered garbage, not that the data moved.
fn hits_look_sane(ids: &[u32]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

fn worker(
    cfg: &LoadgenConfig,
    info: &ServerInfo,
    id_source: &AtomicU32,
    thread_idx: usize,
    requests: u64,
) -> Result<ThreadOutcome, String> {
    // Client-side hang guard: a read that outlives several deadlines
    // (or 30s absolute) is treated as a dead transport.
    let read_timeout = Some(std::time::Duration::from_millis(if cfg.deadline_ms > 0 {
        (cfg.deadline_ms * 8).max(2_000)
    } else {
        30_000
    }));
    let mut conn = Connection::open_with_timeout(&cfg.addr, read_timeout)?;
    let mut rng = Rng::new(cfg.seed ^ (thread_idx as u64).wrapping_mul(0xA5A5_A5A5));
    let mut out = ThreadOutcome::default();
    let mut writes_since_flush = 0u64;
    let span = info.domain_max.saturating_sub(info.domain_min).max(1);
    let mut my_inserts: Vec<u32> = Vec::new();
    // Window extents from stabbing-ish to 1% of the domain.
    let extents = [0u64, span / 10_000, span / 1_000, span / 100];

    for _ in 0..requests {
        let is_write = rng.chance(cfg.write_fraction);
        let request = if !is_write {
            let len = extents[rng.below(extents.len() as u64) as usize];
            let st = info.domain_min + rng.below(span.saturating_sub(len).max(1));
            let n_elems = 1 + rng.below(cfg.max_elems.max(1) as u64) as usize;
            let mut elems = Vec::with_capacity(n_elems);
            for _ in 0..n_elems {
                elems.push(info.terms[rng.below(info.terms.len() as u64) as usize].clone());
            }
            elems.sort();
            elems.dedup();
            let mut q = format!("QUERY {} {} {}", st, st + len, elems.join(","));
            if cfg.deadline_ms > 0 {
                q.push_str(&format!(" DEADLINE {}", cfg.deadline_ms));
            }
            q
        } else if rng.chance(cfg.insert_fraction) || my_inserts.is_empty() {
            // analyze:allow(atomic-ordering): unique-id ticket; only atomicity matters, not ordering
            let id = id_source.fetch_add(1, Ordering::Relaxed);
            let st = info.domain_min + rng.below(span);
            let end = (st + rng.below((span / 64).max(1)))
                .min(info.domain_max)
                .max(st);
            let n_elems = 1 + rng.below(cfg.max_elems.max(1) as u64) as usize;
            let mut elems = Vec::with_capacity(n_elems);
            for _ in 0..n_elems {
                elems.push(info.terms[rng.below(info.terms.len() as u64) as usize].clone());
            }
            elems.sort();
            elems.dedup();
            my_inserts.push(id);
            format!("INSERT {} {} {} {}", id, st, end, elems.join(","))
        } else {
            let pick = rng.below(my_inserts.len() as u64) as usize;
            let id = my_inserts.swap_remove(pick);
            format!("DELETE {id}")
        };

        // Retry loop: OVERLOADED, TIMEOUT, and transport failures are
        // re-issued with jittered exponential backoff; everything else
        // settles on the first answer. Each occurrence lands in its
        // counter even when a retry later succeeds.
        let mut attempt = 0u32;
        loop {
            let t0 = Instant::now();
            let response = conn.call(&request);
            let nanos = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            out.histogram.record(nanos);
            let transport_dead = response.is_err();
            let retryable = match response {
                Ok(Response::Hits(ids)) => {
                    out.ok += 1;
                    out.hits += ids.len() as u64;
                    if !hits_look_sane(&ids) {
                        out.wrong += 1;
                    }
                    false
                }
                Ok(Response::Ok) => {
                    out.ok += 1;
                    false
                }
                Ok(Response::Overloaded) => {
                    out.rejected += 1;
                    true
                }
                Ok(Response::Timeout) => {
                    out.timeouts += 1;
                    true
                }
                // The store latched read-only; retrying cannot help.
                Ok(Response::Degraded) => {
                    out.degraded += 1;
                    false
                }
                Ok(Response::Missing) => {
                    out.missing += 1;
                    false
                }
                Ok(Response::Err(_)) => {
                    out.errors += 1;
                    false
                }
                Ok(_) => {
                    out.errors += 1; // unexpected response kind
                    false
                }
                Err(_) => true,
            };
            if !retryable || attempt >= cfg.retries {
                if transport_dead {
                    // Retries exhausted with a dead transport: one error
                    // for the lost request, and the worker is done.
                    out.errors += 1;
                    return Ok(out);
                }
                break;
            }
            attempt += 1;
            out.retries += 1;
            // Exponential backoff with up to 100% jitter (decorrelates
            // a herd of workers retrying after one stall).
            let base = cfg.backoff_ms.max(1) << (attempt - 1).min(6);
            let pause = base + rng.below(base);
            std::thread::sleep(std::time::Duration::from_millis(pause));
            if transport_dead {
                match Connection::open_with_timeout(&cfg.addr, read_timeout) {
                    Ok(fresh) => conn = fresh,
                    Err(_) => {
                        out.errors += 1;
                        return Ok(out); // server gone for good
                    }
                }
            }
        }

        // Durability mode: a FLUSH barrier after every N writes. Its
        // round-trip spans the WAL fsync on a durable server, so it gets
        // its own histogram and does not pollute the request percentiles.
        if is_write && cfg.durability > 0 {
            writes_since_flush += 1;
            if writes_since_flush >= cfg.durability {
                writes_since_flush = 0;
                let t0 = Instant::now();
                let flushed = conn.call("FLUSH");
                let nanos = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                out.flush_histogram.record(nanos);
                out.flushes += 1;
                match flushed {
                    Ok(Response::Epoch(_)) => {}
                    Ok(Response::Degraded) => out.degraded += 1,
                    Ok(_) => out.errors += 1,
                    Err(_) => {
                        out.errors += 1;
                        return Ok(out);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Runs the closed loop and aggregates a report.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    if cfg.requests == 0 || cfg.threads == 0 {
        return Err("need at least one request and one thread".into());
    }
    let info = Arc::new(discover(&cfg.addr)?);
    // Leave a gap above the server's next_id so a concurrent writer
    // (e.g. a second loadgen) is less likely to collide.
    let id_source = Arc::new(AtomicU32::new(info.next_id));

    let per_thread = cfg.requests / cfg.threads as u64;
    let remainder = cfg.requests % cfg.threads as u64;
    let t0 = Instant::now();
    let mut joins = Vec::with_capacity(cfg.threads);
    for t in 0..cfg.threads {
        let cfg = cfg.clone();
        let info = Arc::clone(&info);
        let id_source = Arc::clone(&id_source);
        let quota = per_thread + u64::from((t as u64) < remainder);
        joins.push(
            std::thread::Builder::new()
                .name(format!("tir-loadgen-{t}"))
                .spawn(move || worker(&cfg, &info, &id_source, t, quota))
                .map_err(|e| format!("spawn: {e}"))?,
        );
    }

    let mut totals = Totals::default();
    for join in joins {
        let outcome = join
            .join()
            .map_err(|_| "loadgen thread panicked".to_string())??;
        totals.absorb(&outcome);
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let issued = totals.histogram.count();
    // Second STATS snapshot: the delta is the server work this run drove.
    // A server that died mid-run already surfaced as transport errors, so
    // a failed snapshot degrades to zeros instead of failing the report.
    let counters = fetch_counters(&cfg.addr)
        .map(|after| after.since(&info.counters))
        .unwrap_or_default();

    Ok(LoadgenReport {
        requests: issued,
        ok: totals.ok,
        hits: totals.hits,
        rejected: totals.rejected,
        missing: totals.missing,
        errors: totals.errors,
        timeouts: totals.timeouts,
        retries: totals.retries,
        degraded: totals.degraded,
        wrong: totals.wrong,
        elapsed_s,
        qps: issued as f64 / elapsed_s.max(1e-9),
        p50_us: totals.histogram.quantile(0.50) as f64 / 1_000.0,
        p95_us: totals.histogram.quantile(0.95) as f64 / 1_000.0,
        p99_us: totals.histogram.quantile(0.99) as f64 / 1_000.0,
        max_us: totals.histogram.max() as f64 / 1_000.0,
        flushes: totals.flushes,
        flush_p50_us: totals.flush_histogram.quantile(0.50) as f64 / 1_000.0,
        flush_p95_us: totals.flush_histogram.quantile(0.95) as f64 / 1_000.0,
        flush_p99_us: totals.flush_histogram.quantile(0.99) as f64 / 1_000.0,
        flush_max_us: totals.flush_histogram.max() as f64 / 1_000.0,
        method: info.method.clone(),
        size_bytes: info.size_bytes,
        threads: cfg.threads,
        kern_merge: counters.merge,
        kern_simd_merge: counters.simd_merge,
        kern_gallop: counters.gallop,
        kern_bitmap_probe: counters.bitmap_probe,
        kern_word_and: counters.word_and,
        kern_run_intersect: counters.run_intersect,
        blocks_decoded: counters.blocks_decoded,
        elems_scanned: counters.scanned,
        publish_reused: counters.publish_reused,
        publish_cloned: counters.publish_cloned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_spread() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(43);
        let same = (0..100).filter(|_| a.next_u64() == c.next_u64()).count();
        assert!(same < 5);
        // below() stays in range.
        for n in [1u64, 2, 7, 1000] {
            for _ in 0..50 {
                assert!(a.below(n) < n);
            }
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::new(1);
        assert!((0..100).all(|_| !rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn zero_request_configs_are_rejected() {
        let mut cfg = LoadgenConfig::new("127.0.0.1:1");
        cfg.requests = 0;
        assert!(run(&cfg).is_err());
    }

    #[test]
    fn totals_merge_sums_every_counter_and_histogram() {
        let mut a = ThreadOutcome::default();
        a.histogram.record(1_000);
        a.histogram.record(2_000);
        a.flush_histogram.record(5_000);
        a.ok = 2;
        a.timeouts = 3;
        a.retries = 4;
        a.degraded = 1;
        a.wrong = 0;
        a.flushes = 1;
        let mut b = ThreadOutcome::default();
        b.histogram.record(8_000);
        b.ok = 1;
        b.rejected = 2;
        b.timeouts = 5;
        b.retries = 7;
        b.errors = 1;
        b.wrong = 2;
        let mut t = Totals::default();
        t.absorb(&a);
        t.absorb(&b);
        assert_eq!(t.histogram.count(), 3);
        assert_eq!(t.flush_histogram.count(), 1);
        assert_eq!(t.ok, 3);
        assert_eq!(t.rejected, 2);
        assert_eq!(t.timeouts, 8);
        assert_eq!(t.retries, 11);
        assert_eq!(t.degraded, 1);
        assert_eq!(t.errors, 1);
        assert_eq!(t.wrong, 2);
        assert_eq!(t.flushes, 1);
    }

    #[test]
    fn hits_sanity_check_rejects_unsorted_and_duplicates() {
        assert!(hits_look_sane(&[]));
        assert!(hits_look_sane(&[7]));
        assert!(hits_look_sane(&[1, 2, 9]));
        assert!(!hits_look_sane(&[2, 1]));
        assert!(!hits_look_sane(&[1, 1, 2]));
    }
}
