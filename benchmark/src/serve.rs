//! The three served workloads, end to end: the index is built and booted
//! in-process through `tir_serve::spawn_server{,_durable}` and driven
//! over TCP loopback by closed-loop client connections.
//!
//! Fixed configuration, the same on both sides of any comparison: closed
//! loop; one connection with one request in flight at a time, reading and
//! writing in alternating bursts — not the two the issue planned: pinned
//! to one CPU (`pin_to_one_cpu`), two request chains fall into scheduling
//! patterns that hold for seconds and move throughput ±20 % between runs,
//! one chain repeats within a few percent (NOISE.md);
//! `PoolConfig { workers: 2 }`,
//! every other `ServerConfig`/`EpochConfig` default, no validator, no
//! `DEADLINE`, `tir-fault` unarmed, `snapshot_every: 0` (snapshots only
//! where the workload sends `SNAPSHOT`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tir_check::Validate;
use tir_core::{Collection, IrHintPerf, Object, TemporalIrIndex, Tif, TimeTravelQuery};
use tir_datagen::WorkloadSpec;
use tir_invidx::Dictionary;
use tir_persist::{Durability, DurabilityOptions, Recovered, TermLog};
use tir_serve::{
    spawn_server, spawn_server_durable, PoolConfig, ServeDict, ServerConfig, ServerHandle,
};

use crate::client::{check_sample, read_loop, write_cycles, Client, ReadLog, WriteLog};
use crate::corpus::{dictionary, generate, mismatches, oracle, Corpus, Pool, WriteStream, GROUP};
use crate::stats::{median, quantile, sorted, Slices};
use crate::{Outcome, RunConfig};

/// Worker threads of the query pool.
pub const WORKERS: usize = 2;

pub fn durability_options() -> DurabilityOptions {
    DurabilityOptions {
        snapshot_every: 0,
        ..Default::default()
    }
}

/// One served workload.
pub struct ServeWorkload {
    pub name: String,
    pub corpus: Corpus,
    /// Query shapes; the pool is split evenly between them.
    pub specs: Vec<WorkloadSpec>,
    /// Share of the run spent in read bursts; the rest goes to write
    /// bursts.
    pub read_share: f64,
    /// Groups per write cycle (a cycle ends with `SNAPSHOT` when durable).
    pub groups_per_cycle: usize,
}

/// An index family the benchmark serves. `Tif` is the only one with
/// `Persist`, so it is the one served durably.
pub trait Served: TemporalIrIndex + Validate + Clone + Send + Sync + 'static {
    const METHOD: &'static str;
    const DURABLE: bool;
    fn build(coll: &Collection) -> Self;
    fn boot(self, coll: &Collection, dict: Dictionary, dir: &Path)
        -> std::io::Result<ServerHandle>;
    /// Copies the data directory, recovers the copy and checks it against
    /// the final catalog and the oracle; `None` for an in-memory server.
    fn recover_check(
        _data_dir: &Path,
        _copy: &Path,
        _live: &[Object],
        _queries: &[TimeTravelQuery],
        _expected: &[Vec<u32>],
    ) -> std::io::Result<Option<RecoveryCheck>> {
        Ok(None)
    }
}

pub struct RecoveryCheck {
    pub secs: f64,
    pub replayed: u64,
    pub wrong: u64,
}

pub fn server_config(method: &str) -> ServerConfig {
    ServerConfig {
        pool: PoolConfig {
            workers: WORKERS,
            ..Default::default()
        },
        method: method.into(),
        ..Default::default()
    }
}

impl Served for IrHintPerf {
    const METHOD: &'static str = "irhint-perf";
    const DURABLE: bool = false;
    fn build(coll: &Collection) -> Self {
        IrHintPerf::build(coll)
    }
    fn boot(
        self,
        coll: &Collection,
        dict: Dictionary,
        _dir: &Path,
    ) -> std::io::Result<ServerHandle> {
        spawn_server(
            self,
            coll.objects().to_vec(),
            dict,
            server_config(Self::METHOD),
            None,
        )
    }
}

impl Served for Tif {
    const METHOD: &'static str = "tif";
    const DURABLE: bool = true;
    fn build(coll: &Collection) -> Self {
        Tif::build(coll)
    }
    fn boot(
        self,
        coll: &Collection,
        dict: Dictionary,
        dir: &Path,
    ) -> std::io::Result<ServerHandle> {
        let durability =
            Durability::create(dir, &self, &dict, coll.objects(), durability_options())?;
        let log = TermLog::open(dir)?;
        spawn_server_durable(
            self,
            ServeDict::durable(dict, log),
            durability,
            server_config(Self::METHOD),
            None,
        )
    }
    fn recover_check(
        data_dir: &Path,
        copy: &Path,
        live: &[Object],
        queries: &[TimeTravelQuery],
        expected: &[Vec<u32>],
    ) -> std::io::Result<Option<RecoveryCheck>> {
        copy_dir(data_dir, copy)?;
        let t = Instant::now();
        let r: Recovered<Tif> = Durability::recover(copy, durability_options())?;
        let secs = t.elapsed().as_secs_f64();
        // Every acked write is present, and the rebuilt index agrees with
        // the oracle over the final catalog.
        let wrong = u64::from(r.durability.catalog_sorted() != live)
            + mismatches(&r.index, queries, expected);
        let replayed = r.replayed;
        drop(r);
        std::fs::remove_dir_all(copy)?;
        Ok(Some(RecoveryCheck {
            secs,
            replayed,
            wrong,
        }))
    }
}

/// Copies the flat data directory (snapshot, WAL segments, term log).
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Everything a served run needs before the first request.
pub struct Inputs {
    pub coll: Collection,
    pub dict: Dictionary,
    pub pool: Pool,
    pub generate_s: f64,
}

impl Inputs {
    pub fn new(wl: &ServeWorkload, cfg: &RunConfig) -> Inputs {
        let t = Instant::now();
        let coll = generate(wl.corpus, &cfg.scale, cfg.seed);
        let dict = dictionary(&coll);
        let generate_s = t.elapsed().as_secs_f64();
        let per_spec = cfg.scale.pool / wl.specs.len();
        let mut pool = Pool::new(&coll, &wl.specs[0], per_spec, cfg.seed);
        for (k, spec) in wl.specs.iter().enumerate().skip(1) {
            let more = Pool::new(&coll, spec, per_spec, cfg.seed.wrapping_add(k as u64));
            pool.queries.extend(more.queries);
            pool.lines.extend(more.lines);
            pool.expected.extend(more.expected);
            pool.workload_s += more.workload_s;
            pool.oracle_s += more.oracle_s;
        }
        if cfg.poison_oracle {
            // Shows the gate fires: one deliberately wrong expectation.
            pool.expected[0].push(0x7FFF_FFFF);
        }
        Inputs {
            coll,
            dict,
            pool,
            generate_s,
        }
    }
}

/// A booted server with its data directory.
pub struct Booted {
    pub server: Option<ServerHandle>,
    pub dir: PathBuf,
}

impl Booted {
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("server is up").addr()
    }
}

impl Drop for Booted {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
        // analyze:allow(error-swallow): best-effort scratch cleanup
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Builds, boots and answers a first request: one `setup_s` sample.
/// Returns the server, the seconds it took, `size_bytes()` of the index
/// and whether that first answer was right.
pub fn set_up<I: Served>(
    inputs: &Inputs,
    dir: PathBuf,
) -> std::io::Result<(Booted, f64, usize, bool)> {
    let t = Instant::now();
    let index = I::build(&inputs.coll);
    let bytes = index.size_bytes();
    let server = index.boot(&inputs.coll, inputs.dict.clone(), &dir)?;
    let booted = Booted {
        server: Some(server),
        dir,
    };
    let mut client = Client::connect(booted.addr())?;
    let first = client.call(&inputs.pool.lines[0]);
    let secs = t.elapsed().as_secs_f64();
    let right = crate::client::answer_is_right(&first, &inputs.pool.expected[0]);
    Ok((booted, secs, bytes, right))
}

/// Runs the read connection for as long as `body` takes; returns what
/// it logged and what `body` returned.
pub fn with_reader<T>(
    addr: std::net::SocketAddr,
    pool: &Pool,
    clock: Instant,
    traced: bool,
    body: impl FnOnce() -> T,
) -> (ReadLog, T) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let reader = s.spawn(|| read_loop(addr, pool, &stop, clock, traced));
        let out = body();
        stop.store(true, Ordering::Relaxed);
        (reader.join().expect("the reader thread panicked"), out)
    })
}

/// Median-over-cycles summary of the write side (warm-up cycles were
/// dropped by `WriteLog::absorb`).
pub struct WriteSummary {
    pub write_qps: f64,
    pub commit_p50_us: f64,
    pub commit_p99_us: f64,
    pub commits: usize,
    pub snapshot_ms: Option<f64>,
}

pub fn summarize_writes(log: &WriteLog) -> WriteSummary {
    let measured = &log.cycles;
    let pooled = sorted(measured.iter().flat_map(|c| c.commit_us.clone()).collect());
    let stalls: Vec<f64> = measured.iter().filter_map(|c| c.snapshot_ms).collect();
    WriteSummary {
        write_qps: median(measured.iter().map(|c| c.writes as f64 / c.secs).collect()),
        commit_p50_us: median(
            measured
                .iter()
                .map(|c| median(c.commit_us.clone()))
                .collect(),
        ),
        commit_p99_us: quantile(&pooled, 0.99),
        commits: pooled.len(),
        snapshot_ms: (!stalls.is_empty()).then(|| median(stalls)),
    }
}

/// Rounds of one read burst and one write burst. The two alternate so
/// that each metric samples the whole run: a burst of host noise a few
/// seconds long then covers a minority of either phase instead of all of
/// one. They alternate rather than overlap because the process runs on
/// one CPU, where a reader beside the applier measures the scheduler's
/// time slice (read p99 sat at 3.4 ms whatever the code did) and moved
/// commit latency ±20 % between runs (NOISE.md).
const ROUNDS: usize = 6;

/// Write groups per second of write burst the stream is sized for: five
/// times what the in-memory applier commits today and twenty times the
/// durable one (NOISE.md), so a much faster write path still finds
/// groups to send. A run whose stream runs dry all the same fails.
const MAX_GROUPS_PER_SEC: f64 = 2000.0;

/// Groups the write stream holds: two cycles per burst and the durable
/// half cycle before recovery run whatever the clock says; the rest
/// covers the write bursts' share of the run at [`MAX_GROUPS_PER_SEC`].
fn stream_groups(wl: &ServeWorkload, seconds: f64) -> usize {
    let by_count = ROUNDS * 2 * wl.groups_per_cycle + wl.groups_per_cycle / 2;
    let by_clock = seconds * (1.0 - wl.read_share) * MAX_GROUPS_PER_SEC;
    by_count + by_clock as usize
}

pub fn run<I: Served>(wl: &ServeWorkload, cfg: &RunConfig) -> std::io::Result<Outcome> {
    let mut inputs = Inputs::new(wl, cfg);
    let mut out = Outcome::default();

    // Set-up, several times over; the last server is the one measured.
    let mut setups = Vec::new();
    let mut booted = None;
    let mut bytes = 0;
    for k in 0..cfg.scale.setups {
        drop(booted.take());
        let (b, secs, size, right) = set_up::<I>(&inputs, cfg.run_dir.join(format!("data-{k}")))?;
        out.attempt(1, u64::from(!right));
        setups.push(secs);
        bytes = size;
        booted = Some(b);
    }
    let booted = booted.expect("at least one set-up");
    let addr = booted.addr();

    let mut stream = WriteStream::new(&inputs.coll, stream_groups(wl, cfg.seconds), cfg.seed);
    let mut writer = Client::connect(addr)?;
    let mut slices = Slices::default();
    let mut writes = WriteLog::default();

    let read_burst = cfg.seconds * wl.read_share / ROUNDS as f64;
    let write_burst = Duration::from_secs_f64(cfg.seconds * (1.0 - wl.read_share) / ROUNDS as f64);
    for _ in 0..ROUNDS {
        let clock = Instant::now();
        let (reads, ()) = with_reader(addr, &inputs.pool, clock, false, || {
            std::thread::sleep(Duration::from_secs_f64(read_burst));
        });
        out.attempt(reads.samples.len() as u64, reads.failed);
        slices.add_burst(&reads.samples, (read_burst * 1e9) as u64);
        writes.absorb(write_cycles(
            &mut writer,
            &mut stream,
            wl.groups_per_cycle,
            I::DURABLE,
            Instant::now() + write_burst,
        )?);
        inputs.pool.note_writes(&stream.take_sent());
    }
    if I::DURABLE {
        // Half a cycle more without a snapshot, so that recovery below
        // replays a known stretch of WAL on top of the last one.
        for _ in 0..wl.groups_per_cycle / 2 {
            let group = stream.next_group()?;
            crate::client::commit_group(&mut writer, &group, 0, &mut writes, None);
        }
        inputs.pool.note_writes(&stream.take_sent());
    }
    let pool = &inputs.pool;
    let reads = slices
        .summary()
        .ok_or_else(|| std::io::Error::other("the read connection answered nothing"))?;
    eprintln!(
        "[{}] reads: {} samples in {} slices, qps {:.0} (quartiles {:.0}..{:.0}), p50 {:.1} us, p99 {:.1} us",
        wl.name, reads.samples, reads.slices, reads.qps, reads.qps_quartiles.0, reads.qps_quartiles.1,
        reads.p50_us, reads.p99_us
    );
    out.attempt(writes.requests, writes.failed);
    let w = summarize_writes(&writes);
    eprintln!(
        "[{}] writes: {} measured cycles of {} groups x {GROUP}, {} commits, commit p50 {:.0} us, p99 {:.0} us, snapshot stall {:?} ms",
        wl.name,
        writes.cycles.len(),
        wl.groups_per_cycle,
        w.commits,
        w.commit_p50_us,
        w.commit_p99_us,
        w.snapshot_ms
    );

    // Quiesced: every write is acked and flushed, so the served answers
    // must equal the oracle over the client's model of the catalog.
    let live = stream.live();
    let n = cfg.scale.check_queries.min(pool.queries.len());
    let expected = oracle(&live, &pool.queries[..n]);
    out.attempt(n as u64, check_sample(&mut writer, pool, &expected));
    let copy = cfg.run_dir.join("recover-copy");
    if let Some(check) = I::recover_check(&booted.dir, &copy, &live, &pool.queries[..n], &expected)?
    {
        eprintln!(
            "[{}] recovery of a copy: {:.3} s, {} WAL batches replayed, {} mismatches",
            wl.name, check.secs, check.replayed, check.wrong
        );
        out.attempt(n as u64 + 1, check.wrong);
        // So that shutdown has no snapshot left to write.
        writer.call("SNAPSHOT\n");
    }
    drop(writer);
    drop(booted);

    out.metric("setup_s", median(setups));
    out.metric("read_qps", reads.qps);
    out.metric("read_p50_us", reads.p50_us);
    out.metric("write_qps", w.write_qps);
    out.metric("commit_p50_us", w.commit_p50_us);
    out.metric("index_bytes", bytes as f64);
    Ok(out)
}
