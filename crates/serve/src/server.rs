//! The `tir serve` TCP front end.
//!
//! One thread per connection reads request lines ([`crate::protocol`]),
//! resolves element strings through the shared dictionary, and runs the
//! request to completion: a query takes a permit at the [`QueryPool`]'s
//! admission gate and walks the index on this same thread, and the reply
//! leaves as one `write`. Writes are admission-checked against the
//! **catalog** (the map of live objects, authoritative for id liveness
//! ahead of the applied snapshots) and enqueued on the [`EpochStore`]'s
//! bounded write queue. Both reject with `OVERLOADED` instead of queueing
//! unboundedly.
//!
//! A `QUERY` naming an element unknown to the dictionary answers
//! `HITS 0`: no object can carry it, and a serving system should not
//! treat a miss as a client fault.
//!
//! Robustness on the wire: request lines are read through a hard
//! [`MAX_LINE_BYTES`] cap (an unterminated or oversize line answers one
//! `ERR` and closes the connection instead of buffering unboundedly),
//! `QUERY ... DEADLINE <ms>` budgets are enforced at the gate and
//! mid-plan (late answers become `TIMEOUT`), and a durability failure
//! latches the store read-only: queries keep serving the last acked
//! epoch while writes and barriers answer `DEGRADED` (`HEALTH` reports
//! the state).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use tir_core::{Object, TemporalIrIndex, TimeTravelQuery};
use tir_invidx::Dictionary;
use tir_persist::{Durability, PersistStats};

use crate::durable::ServeDict;
use crate::epoch::{EpochConfig, EpochStore, Rejected, Validator, WriteOp};
use crate::pool::{PoolConfig, QueryOutcome, QueryPool};
use crate::protocol::{parse_request, write_response, HealthStatus, Request, Response};
use crate::witness::lock;

/// Hard cap on one protocol request line (bytes, excluding nothing —
/// the newline counts). Far above any legal request; a client that
/// exceeds it is broken or hostile and gets `ERR` + connection close.
pub const MAX_LINE_BYTES: u64 = 64 * 1024;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an OS-assigned port.
    pub addr: String,
    /// Query pool shape.
    pub pool: PoolConfig,
    /// Bounded write-queue depth of the epoch store.
    pub write_queue_depth: usize,
    /// Maximum writes coalesced into one epoch swap.
    pub max_write_batch: usize,
    /// Method name reported in `STATS` (e.g. `irhint-perf`).
    pub method: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            pool: PoolConfig::default(),
            write_queue_depth: 1024,
            max_write_batch: 256,
            method: "unknown".into(),
        }
    }
}

struct Shared<I> {
    store: Arc<EpochStore<I>>,
    pool: QueryPool<I>,
    dict: Arc<Mutex<ServeDict>>,
    /// Durability counters of a `--data-dir` server; `None` in-memory.
    persist: Option<Arc<PersistStats>>,
    catalog: Mutex<HashMap<u32, Object>>,
    next_id: AtomicU32,
    domain_min: AtomicU64,
    domain_max: AtomicU64,
    method: String,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
}

/// A running server: its bound address plus the accept-loop handle.
pub struct ServerHandle {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and waits for the accept loop to exit.
    /// Connections already open finish serving their clients.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // analyze:allow(error-swallow): the connect exists only to wake accept(); if it fails the loop is already unblocked or gone
        let _ = TcpStream::connect(self.addr); // unblock accept()
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Blocks until the accept loop exits (e.g. a client sent `SHUTDOWN`).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Builds the serving stack over a built index and starts accepting
/// connections. `catalog` must list exactly the live objects of `index`;
/// `dict` resolves protocol element strings to ids.
pub fn spawn_server<I>(
    index: I,
    catalog: Vec<Object>,
    dict: Dictionary,
    config: ServerConfig,
    validator: Option<Validator<I>>,
) -> std::io::Result<ServerHandle>
where
    I: TemporalIrIndex + Clone + Send + Sync + 'static,
{
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

    let live = catalog.len() as u64;
    let store = Arc::new(EpochStore::new(
        index,
        live,
        EpochConfig {
            queue_depth: config.write_queue_depth,
            max_batch: config.max_write_batch,
            validator,
        },
    ));
    let dict = Arc::new(Mutex::new(ServeDict::volatile(dict)));
    finish_spawn(listener, addr, store, dict, None, catalog, config)
}

/// Builds the serving stack over a recovered (or freshly created)
/// durable state: writes go through the WAL-backed applier, so an `OK`
/// on the wire means the batch is fsynced. `dict` should carry the
/// recovered dictionary plus an open `terms.log`
/// ([`ServeDict::durable`]); `durability` owns the data directory and
/// already holds the catalog (its epoch is the serving epoch).
pub fn spawn_server_durable<I>(
    index: I,
    dict: ServeDict,
    durability: Durability,
    config: ServerConfig,
    validator: Option<Validator<I>>,
) -> std::io::Result<ServerHandle>
where
    I: TemporalIrIndex + Clone + Send + Sync + 'static,
{
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

    let catalog = durability.catalog_sorted();
    let persist = durability.stats();
    let dict = Arc::new(Mutex::new(dict));
    let store = Arc::new(EpochStore::new_durable(
        index,
        Arc::clone(&dict),
        durability,
        EpochConfig {
            queue_depth: config.write_queue_depth,
            max_batch: config.max_write_batch,
            validator,
        },
    ));
    finish_spawn(listener, addr, store, dict, Some(persist), catalog, config)
}

fn finish_spawn<I>(
    listener: TcpListener,
    addr: SocketAddr,
    store: Arc<EpochStore<I>>,
    dict: Arc<Mutex<ServeDict>>,
    persist: Option<Arc<PersistStats>>,
    catalog: Vec<Object>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle>
where
    I: TemporalIrIndex + Clone + Send + Sync + 'static,
{
    let pool = QueryPool::new(Arc::clone(&store), config.pool);

    let mut domain_min = u64::MAX;
    let mut domain_max = 0u64;
    let mut next_id = 0u32;
    let mut by_id = HashMap::with_capacity(catalog.len());
    for o in catalog {
        domain_min = domain_min.min(o.interval.st);
        domain_max = domain_max.max(o.interval.end);
        next_id = next_id.max(o.id + 1);
        by_id.insert(o.id, o);
    }
    if domain_min > domain_max {
        (domain_min, domain_max) = (0, 0);
    }

    let shutdown = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        store,
        pool,
        dict,
        persist,
        catalog: Mutex::new(by_id),
        next_id: AtomicU32::new(next_id),
        domain_min: AtomicU64::new(domain_min),
        domain_max: AtomicU64::new(domain_max),
        method: config.method,
        shutdown: Arc::clone(&shutdown),
        addr,
    });

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("tir-accept".into())
        .spawn(move || accept_loop(&listener, &accept_shared))?;

    Ok(ServerHandle {
        addr,
        accept: Some(accept),
        shutdown,
    })
}

fn accept_loop<I>(listener: &TcpListener, shared: &Arc<Shared<I>>)
where
    I: TemporalIrIndex + Clone + Send + Sync + 'static,
{
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(shared);
        // Connection threads are detached: they exit when the client
        // hangs up, and a stopping server only stops *accepting*.
        // analyze:allow(error-swallow): per-connection best effort — a failed spawn or a client that hung up mid-request must not take down the accept loop
        let _ = std::thread::Builder::new()
            .name("tir-conn".into())
            .spawn(move || {
                let _ = serve_connection(stream, &conn_shared);
            });
    }
}

fn serve_connection<I>(stream: TcpStream, shared: &Shared<I>) -> std::io::Result<()>
where
    I: TemporalIrIndex + Clone + Send + Sync + 'static,
{
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut buf = Vec::new();
    let mut reply = Vec::new();
    loop {
        buf.clear();
        // Bounded read: at most MAX_LINE_BYTES + 1 bytes are pulled, so
        // a newline-free flood cannot grow the buffer unboundedly.
        let n = std::io::Read::take(&mut reader, MAX_LINE_BYTES + 1).read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(()); // client hung up
        }
        let (response, hang_up) = if buf.len() as u64 > MAX_LINE_BYTES && !buf.ends_with(b"\n") {
            // The line is torn mid-stream; resyncing on the next newline
            // would misparse its tail, so answer once and hang up.
            let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes");
            (Response::Err(msg), true)
        } else if let Ok(text) = std::str::from_utf8(&buf) {
            let trimmed = text.trim_end_matches(['\n', '\r']);
            if trimmed.is_empty() {
                continue;
            }
            // Chaos hook: a seeded plan can hang up mid-conversation here,
            // exercising client-side reconnect + retry.
            if tir_fault::drop_conn(tir_fault::FaultSite::ConnDrop) {
                return Ok(());
            }
            match parse_request(trimmed) {
                Ok(req) => {
                    let is_shutdown = matches!(req, Request::Shutdown);
                    (handle(shared, req), is_shutdown)
                }
                Err(msg) => (Response::Err(msg), false),
            }
        } else {
            (Response::Err("request line is not UTF-8".into()), true)
        };
        write_reply(&mut writer, &mut reply, &response)?;
        if hang_up {
            return Ok(());
        }
    }
}

/// Sends one reply as one `write`: the line is built, newline included,
/// in the connection's reusable buffer first. A reply split over two
/// writes would wake a `TCP_NODELAY` client on a line it cannot finish.
fn write_reply(
    writer: &mut impl Write,
    line: &mut Vec<u8>,
    response: &Response,
) -> std::io::Result<()> {
    line.clear();
    write_response(response, line);
    line.push(b'\n');
    writer.write_all(line)
}

/// How a refused query, write or barrier reads on the wire.
impl From<Rejected> for Response {
    fn from(rejected: Rejected) -> Response {
        match rejected {
            Rejected::Overloaded => Response::Overloaded,
            Rejected::Degraded => Response::Degraded,
            Rejected::Closed => Response::Err("server shutting down".into()),
        }
    }
}

fn handle<I>(shared: &Shared<I>, req: Request) -> Response
where
    I: TemporalIrIndex + Clone + Send + Sync + 'static,
{
    match req {
        Request::Query {
            from,
            to,
            elems,
            deadline_ms,
        } => {
            // The deadline clock starts at dispatch: waiting at the gate
            // counts against the budget, which is what a client experiences.
            let deadline = deadline_ms
                .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
            let resolved: Option<Vec<u32>> = {
                let dict = lock(&shared.dict);
                elems.iter().map(|t| dict.dict().lookup(t)).collect()
            };
            match resolved {
                // An element nothing was ever tagged with ⇒ empty answer.
                None => Response::Hits(Vec::new()),
                Some(ids) => match shared
                    .pool
                    .execute_with_deadline(TimeTravelQuery::new(from, to, ids), deadline)
                {
                    Ok(QueryOutcome::Answered(reply)) => Response::Hits(reply.ids),
                    Ok(QueryOutcome::TimedOut) => Response::Timeout,
                    Err(rejected) => rejected.into(),
                },
            }
        }
        Request::Insert {
            id,
            from,
            to,
            elems,
        } => {
            // On a durable server, interning fsyncs new terms to
            // `terms.log` *before* the op can be enqueued, so no WAL
            // record can ever reference an unlogged term id.
            let desc: std::io::Result<Vec<u32>> = {
                let mut dict = lock(&shared.dict);
                elems.iter().map(|t| dict.intern(t)).collect()
            };
            let desc = match desc {
                Ok(desc) => desc,
                Err(e) => return Response::Err(format!("term log append failed: {e}")),
            };
            let object = Object::new(id, from, to, desc);
            // Admission control: the catalog lock spans the liveness
            // check and the enqueue so two racing INSERTs of one id
            // cannot both pass.
            let mut catalog = lock(&shared.catalog);
            if catalog.contains_key(&id) {
                return Response::Err(format!("id {id} already live"));
            }
            match shared.store.enqueue(WriteOp::Insert(object.clone())) {
                Ok(()) => {
                    catalog.insert(id, object);
                    drop(catalog);
                    // analyze:allow(atomic-ordering): advisory id hint for loadgen; uniqueness is enforced by the catalog lock
                    shared.next_id.fetch_max(id + 1, Ordering::Relaxed);
                    // analyze:allow(atomic-ordering): advisory domain bound for loadgen; staleness only skews generated queries
                    shared.domain_min.fetch_min(from, Ordering::Relaxed);
                    // analyze:allow(atomic-ordering): advisory domain bound for loadgen; staleness only skews generated queries
                    shared.domain_max.fetch_max(to, Ordering::Relaxed);
                    Response::Ok
                }
                Err(rejected) => rejected.into(),
            }
        }
        Request::Delete { id } => {
            let mut catalog = lock(&shared.catalog);
            let Some(object) = catalog.remove(&id) else {
                return Response::Missing;
            };
            match shared.store.enqueue(WriteOp::Delete(object.clone())) {
                Ok(()) => Response::Ok,
                Err(rejected) => {
                    catalog.insert(id, object); // not deleted after all
                    rejected.into()
                }
            }
        }
        Request::Flush => shared
            .store
            .flush()
            .map_or_else(Response::from, Response::Epoch),
        Request::Snapshot => shared
            .store
            .force_snapshot()
            .map_or_else(Response::from, Response::Epoch),
        Request::Health => Response::Health(if shared.shutdown.load(Ordering::SeqCst) {
            HealthStatus::Draining
        } else {
            shared.store.health()
        }),
        Request::Stats => {
            let snap = shared.store.snapshot();
            let estats = shared.store.stats();
            let pstats = shared.pool.stats();
            // analyze:allow(atomic-ordering): a stat read for a point-in-time report; torn cross-counter views are acceptable
            let count = |c: &AtomicU64| c.load(Ordering::Relaxed).to_string();
            // analyze:allow(atomic-ordering): advisory gauges read for the same report
            let mut pairs: Vec<(String, String)> = [
                ("method", shared.method.clone()),
                ("health", shared.store.health().as_str().to_string()),
                ("epoch", snap.epoch.to_string()),
                ("live", snap.live.to_string()),
                ("size_bytes", snap.index.size_bytes().to_string()),
                (
                    "next_id",
                    shared.next_id.load(Ordering::Relaxed).to_string(),
                ),
                (
                    "domain",
                    format!(
                        "{}:{}",
                        shared.domain_min.load(Ordering::Relaxed),
                        shared.domain_max.load(Ordering::Relaxed)
                    ),
                ),
                ("workers", shared.pool.workers().to_string()),
                ("served", pstats.served.to_string()),
                ("overloaded", pstats.overloaded.to_string()),
                ("timeouts", pstats.timeouts.to_string()),
                ("worker_panics", pstats.worker_panics.to_string()),
                ("inserts", count(&estats.inserts)),
                ("deletes", count(&estats.deletes)),
                ("missed_deletes", count(&estats.missed_deletes)),
                ("violations", count(&estats.violations)),
                ("flushes", count(&estats.flushes)),
                ("degraded_writes", count(&estats.degraded_writes)),
                ("publish_reused", count(&estats.publish_reused)),
                ("publish_cloned", count(&estats.publish_cloned)),
                ("max_batch", count(&estats.max_batch)),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
            // Durability block: all-SeqCst counters owned by tir-persist.
            pairs.push(("durable".into(), shared.persist.is_some().to_string()));
            if let Some(p) = &shared.persist {
                for (k, v) in [
                    ("snapshot_epoch", p.snapshot_epoch.load(Ordering::SeqCst)),
                    ("recovered_epoch", p.recovered_epoch.load(Ordering::SeqCst)),
                    ("wal_records", p.wal_records.load(Ordering::SeqCst)),
                    ("wal_bytes", p.wal_bytes.load(Ordering::SeqCst)),
                    ("wal_fsyncs", p.wal_fsyncs.load(Ordering::SeqCst)),
                    ("wal_segments", p.wal_segments.load(Ordering::SeqCst)),
                    ("snapshots", p.snapshots.load(Ordering::SeqCst)),
                ] {
                    pairs.push((k.to_string(), v.to_string()));
                }
            }
            // This server's conjunction-planner kernel mix: lets loadgen
            // and CI spot kernel-selection regressions.
            let plan = pstats.plan;
            for (k, v) in [
                ("kern_merge", plan.merge_steps),
                ("kern_gallop", plan.gallop_steps),
                ("kern_bitmap_probe", plan.bitmap_probe_steps),
                ("kern_word_and", plan.word_and_steps),
                ("blocks_decoded", plan.blocks_decoded),
                ("elems_scanned", plan.scanned),
            ] {
                pairs.push((k.to_string(), v.to_string()));
            }
            Response::Stats(pairs)
        }
        Request::Elems { n } => {
            let guard = lock(&shared.dict);
            let dict = guard.dict();
            let total = dict.len();
            if n == 0 || total == 0 {
                return Response::Elems(Vec::new());
            }
            // Even sample across the id space; skip terms the wire
            // format cannot carry (whitespace).
            let step = (total / n).max(1);
            let mut terms = Vec::with_capacity(n.min(total));
            let mut id = 0usize;
            while id < total && terms.len() < n {
                if let Some(t) = dict.term(id as u32) {
                    if !t.is_empty() && !t.chars().any(char::is_whitespace) {
                        terms.push(t.to_string());
                    }
                }
                id += step;
            }
            Response::Elems(terms)
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            // analyze:allow(error-swallow): the connect exists only to wake accept(); if it fails the loop is already unblocked or gone
            let _ = TcpStream::connect(shared.addr); // unblock accept()
            Response::Bye
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::tests::{
        example_index, panic_on_magic, parked_index, MAGIC_START, ONE_BY_ONE,
    };
    use crate::protocol::{format_response, parse_response};
    use tir_core::{Collection, Tif};

    /// A server over the running example (`a`, `b`, `c` interned) behind
    /// `index`, which must hold exactly that collection.
    fn serve_example<I>(index: I, pool: PoolConfig) -> ServerHandle
    where
        I: TemporalIrIndex + Clone + Send + Sync + 'static,
    {
        let mut dict = Dictionary::new();
        for name in ["a", "b", "c"] {
            dict.intern(name);
        }
        let config = ServerConfig {
            pool,
            method: "brute-force".into(),
            ..Default::default()
        };
        let catalog = Collection::running_example().objects().to_vec();
        spawn_server(index, catalog, dict, config, None).expect("server spawns")
    }

    fn example_server() -> ServerHandle {
        serve_example(example_index(), PoolConfig::default())
    }

    fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> String {
        stream
            .write_all(format!("{req}\n").as_bytes())
            .expect("write");
        stream.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        line.trim_end().to_string()
    }

    #[test]
    fn end_to_end_query_insert_delete_stats() {
        let server = example_server();
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));

        assert_eq!(
            roundtrip(&mut stream, &mut reader, "QUERY 5 9 a,c"),
            "HITS 3 1 3 6"
        );
        // Unknown element: empty answer, not an error.
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "QUERY 5 9 zebra"),
            "HITS 0"
        );
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "INSERT 8 5 6 a,c"),
            "OK"
        );
        // Duplicate id is rejected at admission.
        assert!(roundtrip(&mut stream, &mut reader, "INSERT 8 0 1 b").starts_with("ERR"));
        // The write becomes visible (poll; the applier is asynchronous).
        let mut seen = false;
        for _ in 0..200 {
            if roundtrip(&mut stream, &mut reader, "QUERY 5 9 a,c") == "HITS 4 1 3 6 8" {
                seen = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(seen, "inserted object never became visible");
        assert_eq!(roundtrip(&mut stream, &mut reader, "DELETE 8"), "OK");
        assert_eq!(roundtrip(&mut stream, &mut reader, "DELETE 8"), "MISSING");

        let stats = roundtrip(&mut stream, &mut reader, "STATS");
        assert!(stats.starts_with("STATS "), "{stats}");
        assert!(stats.contains("method=brute-force"), "{stats}");
        assert!(stats.contains("violations=0"), "{stats}");

        let elems = roundtrip(&mut stream, &mut reader, "ELEMS 8");
        assert!(elems.starts_with("ELEMS "), "{elems}");

        assert!(roundtrip(&mut stream, &mut reader, "BOGUS").starts_with("ERR"));
        server.stop();
    }

    #[test]
    fn each_server_counts_only_its_own_work() {
        fn scanned((stream, reader): &mut (TcpStream, BufReader<TcpStream>)) -> u64 {
            let stats = roundtrip(stream, reader, "STATS");
            let Ok(Response::Stats(pairs)) = parse_response(&stats) else {
                panic!("{stats}");
            };
            let value = pairs.iter().find(|(k, _)| k == "elems_scanned");
            value
                .and_then(|(_, v)| v.parse().ok())
                .expect("elems_scanned")
        }
        let coll = Collection::running_example();
        let servers = [(); 2].map(|()| serve_example(Tif::build(&coll), PoolConfig::default()));
        let [mut one, mut two] = servers.each_ref().map(|server| {
            let stream = TcpStream::connect(server.addr()).expect("connect");
            let reader = BufReader::new(stream.try_clone().expect("clone"));
            (stream, reader)
        });
        let before = scanned(&mut two);
        let hits = roundtrip(&mut one.0, &mut one.1, "QUERY 5 9 a,c");
        assert_eq!(hits, "HITS 3 1 3 6");
        assert!(scanned(&mut one) > 0, "the queried server counts its walk");
        let direct = Tif::build(&coll).query(&TimeTravelQuery::new(5, 9, vec![0, 2]));
        assert_eq!(direct, vec![1, 3, 6]);
        assert_eq!(
            scanned(&mut two),
            before,
            "another server's query, or a direct one"
        );
        drop((one, two));
        for server in servers {
            server.stop();
        }
    }

    #[test]
    fn flush_is_a_visibility_barrier_on_the_wire() {
        let server = example_server();
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "INSERT 8 5 6 a,c"),
            "OK"
        );
        // FLUSH waits for the applier: no polling needed afterwards.
        let flush = roundtrip(&mut stream, &mut reader, "FLUSH");
        assert!(flush.starts_with("EPOCH "), "{flush}");
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "QUERY 5 9 a,c"),
            "HITS 4 1 3 6 8"
        );
        // On an in-memory server SNAPSHOT degrades to a flush barrier.
        assert!(roundtrip(&mut stream, &mut reader, "SNAPSHOT").starts_with("EPOCH "));
        let stats = roundtrip(&mut stream, &mut reader, "STATS");
        assert!(stats.contains("durable=false"), "{stats}");
        server.stop();
    }

    #[test]
    fn durable_server_flushes_snapshots_and_recovers() {
        use tir_persist::{Durability, DurabilityOptions, Recovered, TermLog};

        let dir = std::env::temp_dir().join(format!("tir-serve-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let coll = Collection::running_example();
        let mut dict = Dictionary::new();
        for name in ["a", "b", "c"] {
            dict.intern(name);
        }
        let index = Tif::build(&coll);
        let durability = Durability::create(
            &dir,
            &index,
            &dict,
            coll.objects(),
            DurabilityOptions::default(),
        )
        .expect("create data dir");
        let log = TermLog::open(&dir).expect("term log");
        let server = spawn_server_durable(
            index,
            ServeDict::durable(dict, log),
            durability,
            ServerConfig {
                method: "tif".into(),
                ..Default::default()
            },
            None,
        )
        .expect("server spawns");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));

        // A fresh term rides along: it must hit terms.log before the op.
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "INSERT 8 5 6 a,zebra"),
            "OK"
        );
        assert_eq!(roundtrip(&mut stream, &mut reader, "FLUSH"), "EPOCH 1");
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "QUERY 5 9 zebra"),
            "HITS 1 8"
        );
        assert_eq!(roundtrip(&mut stream, &mut reader, "SNAPSHOT"), "EPOCH 1");
        let stats = roundtrip(&mut stream, &mut reader, "STATS");
        assert!(stats.contains("durable=true"), "{stats}");
        assert!(stats.contains("snapshot_epoch=1"), "{stats}");
        assert!(stats.contains("wal_records=1"), "{stats}");

        // Recover from a copy of the directory (the server still owns
        // the original): the acknowledged state must all be there.
        let copy =
            std::env::temp_dir().join(format!("tir-serve-durable-copy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&copy);
        std::fs::create_dir_all(&copy).expect("copy dir");
        for entry in std::fs::read_dir(&dir).expect("read dir") {
            let entry = entry.expect("entry");
            std::fs::copy(entry.path(), copy.join(entry.file_name())).expect("copy");
        }
        let r: Recovered<Tif> =
            Durability::recover(&copy, DurabilityOptions::default()).expect("recover");
        assert_eq!(r.epoch, 1);
        assert_eq!(r.replayed, 0, "the forced snapshot covers the write");
        assert_eq!(r.dict.lookup("zebra"), Some(3));
        assert_eq!(
            r.index
                .query(&tir_core::TimeTravelQuery::new(5, 9, vec![3])),
            vec![8]
        );

        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&copy);
    }

    #[test]
    fn delete_refused_by_a_closed_store_keeps_the_id_live() {
        let server = serve_example(panic_on_magic(example_index()), PoolConfig::default());
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        // The applier dies applying this insert; the barrier then returns.
        let poisoned = format!("INSERT 8 {MAGIC_START} {} a", MAGIC_START + 1);
        assert_eq!(roundtrip(&mut stream, &mut reader, &poisoned), "OK");
        let closed = "ERR server shutting down";
        assert_eq!(roundtrip(&mut stream, &mut reader, "FLUSH"), closed);
        // A refused DELETE deleted nothing: asking again is refused the
        // same way, not answered MISSING.
        assert_eq!(roundtrip(&mut stream, &mut reader, "DELETE 1"), closed);
        assert_eq!(roundtrip(&mut stream, &mut reader, "DELETE 1"), closed);
        server.stop();
    }

    #[test]
    fn query_panic_answers_closed_and_the_connection_lives_on() {
        let server = serve_example(panic_on_magic(example_index()), PoolConfig::default());
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let poisoned = format!("QUERY {MAGIC_START} {} a", MAGIC_START + 1);
        assert_eq!(
            roundtrip(&mut stream, &mut reader, &poisoned),
            "ERR server shutting down"
        );
        // The panic unwound on this connection's thread and stopped there.
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "QUERY 5 9 a"),
            "HITS 3 1 3 6"
        );
        let stats = roundtrip(&mut stream, &mut reader, "STATS");
        assert!(stats.contains("worker_panics=1"), "{stats}");
        server.stop();
    }

    #[test]
    fn more_callers_than_the_gate_holds_are_overloaded_on_the_wire() {
        let (index, entered, release) = parked_index();
        let server = serve_example(index, ONE_BY_ONE);
        let addr = server.addr();
        let (replies_tx, replies) = std::sync::mpsc::channel();
        let mut clients = Vec::new();
        for i in 0..3 {
            let replies_tx = replies_tx.clone();
            clients.push(std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let reply = roundtrip(&mut stream, &mut reader, "QUERY 5 9 a,c");
                replies_tx.send(reply).expect("test listens");
            }));
            if i == 0 {
                entered.recv().expect("first query holds the only permit");
            }
        }
        // Of the two latecomers one waits at the gate (whichever got
        // there first) and the other is refused at once — nothing else
        // can answer while the permit is parked.
        assert_eq!(replies.recv().expect("reply"), "OVERLOADED");
        for _ in 0..2 {
            release.send(()).expect("release");
        }
        for _ in 0..2 {
            assert_eq!(replies.recv().expect("reply"), "HITS 3 1 3 6");
        }
        for c in clients {
            c.join().expect("client thread");
        }
        server.stop();
    }

    /// Counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_reply_is_one_write_of_one_whole_line() {
        let mut line = Vec::new();
        for response in [
            Response::Hits(vec![0, 9, 10, u32::MAX]),
            Response::Hits(vec![]),
            Response::Ok,
            Response::Missing,
            Response::Overloaded,
            Response::Timeout,
            Response::Degraded,
            Response::Epoch(u64::MAX),
            Response::Stats(vec![("epoch".into(), "7".into())]),
            Response::Elems(vec!["e1".into(), "e2".into()]),
            Response::Health(HealthStatus::Draining),
            Response::Bye,
            Response::Err("two\nlines".into()),
        ] {
            let mut wire = CountingWriter::default();
            write_reply(&mut wire, &mut line, &response).expect("write");
            assert_eq!(wire.writes, 1, "{response:?}");
            let text = String::from_utf8(wire.bytes).expect("utf-8");
            let body = text.strip_suffix('\n').expect("newline-terminated");
            assert!(!body.contains('\n'), "{body:?}");
            assert_eq!(body, format_response(&response));
            match response {
                Response::Err(_) => assert_eq!(body, "ERR two lines"),
                other => assert_eq!(parse_response(body), Ok(other)),
            }
        }
    }

    #[test]
    fn health_deadlines_and_oversize_lines() {
        let server = example_server();
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));

        assert_eq!(roundtrip(&mut stream, &mut reader, "HEALTH"), "HEALTH ok");
        // An already-expired budget answers TIMEOUT deterministically.
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "QUERY 5 9 a,c DEADLINE 0"),
            "TIMEOUT"
        );
        // A generous budget answers normally.
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "QUERY 5 9 a,c DEADLINE 60000"),
            "HITS 3 1 3 6"
        );
        let stats = roundtrip(&mut stream, &mut reader, "STATS");
        assert!(stats.contains("health=ok"), "{stats}");
        assert!(stats.contains("timeouts=1"), "{stats}");
        assert!(stats.contains("worker_panics=0"), "{stats}");

        // An oversize line answers one ERR and closes the connection.
        let mut big = String::from("QUERY 5 9 ");
        big.push_str(&"a".repeat(MAX_LINE_BYTES as usize + 16));
        big.push('\n');
        stream.write_all(big.as_bytes()).expect("write oversize");
        stream.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert!(line.starts_with("ERR"), "{line}");
        line.clear();
        assert_eq!(
            reader.read_line(&mut line).expect("read"),
            0,
            "server must hang up after an oversize line"
        );
        server.stop();
    }

    #[test]
    fn shutdown_request_stops_accept_loop() {
        let server = example_server();
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        assert_eq!(roundtrip(&mut stream, &mut reader, "SHUTDOWN"), "BYE");
        server.join(); // returns because the accept loop exited
    }
}
