//! The traced run: one read segment and one stretch of write groups of
//! the workload's served stack with spans, plus a probe of every layer's
//! public functions over the workload's own corpus, queries and writes.
//! Every workload runs the same probes, so every layer has a number on
//! every corpus; `lib_methods`, which serves nothing end to end, boots
//! the irhint-perf stack over its corpus for them.
//!
//! Per request the TCP run records the real `client.rtt` (or
//! `client.commit`) span; the in-process replay then pushes the same
//! request through `parse_request` → `Dictionary::lookup` →
//! `QueryPool::execute` → `format_response` → `parse_response` (or
//! `ServeDict::intern` → `EpochStore::enqueue` → `EpochStore::flush`),
//! one span each, sharing the request id. `trace.coverage` is how much
//! of the real round trip the replayed layers plus the measured wire
//! ping account for.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tir_core::{IrHintPerf, QueryScratch, TemporalIrIndex, Tif, TimeTravelQuery};
use tir_hint::{Hint, HintConfig, IntervalRecord};
use tir_persist::wal::{Wal, DEFAULT_SEGMENT_BYTES};
use tir_persist::{Durability, Recovered, TermLog, WalOp, SNAPSHOT_NAME};
use tir_serve::protocol::{format_response, parse_request, parse_response, Request, Response};
use tir_serve::{EpochConfig, EpochStore, PoolConfig, QueryPool, ServeDict};

use crate::client::{check_sample, commit_group, Client, WriteLog};
use crate::corpus::{mismatches, oracle, Corpus, Pool, Write, WriteStream, GROUP};
use crate::methods::{self, TableInputs};
use crate::serve::{
    durability_options, set_up, with_reader, Inputs, ServeWorkload, Served, WORKERS,
};
use crate::stats::{median, quantile, sorted};
use crate::trace::{Tracer, NO_PARENT};
use crate::{Outcome, RunConfig};

type Store<I> = (Arc<EpochStore<I>>, Arc<Mutex<ServeDict>>);

/// The in-process twin of the served stack: the same epoch store (and,
/// for tif, the same WAL-backed applier) without the TCP front end.
pub trait Probed: Served {
    fn probe_store(self, inputs: &Inputs, dir: &std::path::Path) -> std::io::Result<Store<Self>>;
}

impl Probed for IrHintPerf {
    fn probe_store(self, inputs: &Inputs, _dir: &std::path::Path) -> std::io::Result<Store<Self>> {
        let store = EpochStore::new(self, inputs.coll.len() as u64, EpochConfig::default());
        let dict = ServeDict::volatile(inputs.dict.clone());
        Ok((Arc::new(store), Arc::new(Mutex::new(dict))))
    }
}

impl Probed for Tif {
    fn probe_store(self, inputs: &Inputs, dir: &std::path::Path) -> std::io::Result<Store<Self>> {
        durable_store(self, inputs, dir)
    }
}

fn durable_store(tif: Tif, inputs: &Inputs, dir: &std::path::Path) -> std::io::Result<Store<Tif>> {
    let durability = Durability::create(
        dir,
        &tif,
        &inputs.dict,
        inputs.coll.objects(),
        durability_options(),
    )?;
    let log = TermLog::open(dir)?;
    let dict = Arc::new(Mutex::new(ServeDict::durable(inputs.dict.clone(), log)));
    let store = EpochStore::new_durable(tif, Arc::clone(&dict), durability, EpochConfig::default());
    Ok((Arc::new(store), dict))
}

fn apply<I: TemporalIrIndex>(index: &mut I, group: &[Write]) {
    for w in group {
        match w {
            Write::Insert(o) => index.insert(o),
            Write::Delete(o) => {
                index.delete(o);
            }
        }
    }
}

/// Replays the pool through the read path's layers, one span per layer
/// boundary; returns the wrong answers.
fn replay_reads<I: Probed>(
    pool: &Pool,
    workers: &QueryPool<I>,
    store: &EpochStore<I>,
    dict: &Mutex<ServeDict>,
    tr: &mut Tracer,
) -> u64 {
    let mut scratch = QueryScratch::default();
    let mut ids = Vec::new();
    let mut wrong = 0u64;
    for (i, line) in pool.lines.iter().enumerate() {
        let req = i as u32;
        let root = tr.open("bench.replay_read", NO_PARENT, req);
        let parsed = tr.span("serve.protocol.parse", root, req, || {
            parse_request(line.trim_end())
        });
        let Ok(Request::Query {
            from, to, elems, ..
        }) = parsed
        else {
            wrong += 1;
            continue;
        };
        let resolved: Option<Vec<u32>> = tr.span("serve.dict.resolve", root, req, || {
            let dict = dict.lock().expect("probe dictionary lock");
            elems.iter().map(|t| dict.dict().lookup(t)).collect()
        });
        let query = TimeTravelQuery::new(from, to, resolved.unwrap_or_default());
        let execute = tr.open("serve.pool.execute", root, req);
        let reply = workers.execute(query.clone());
        tr.close(execute);
        let mut hits = reply.map(|r| r.ids).unwrap_or_default();
        let text = tr.span("serve.protocol.format", root, req, || {
            hits.sort_unstable();
            format_response(&Response::Hits(hits))
        });
        let got = tr.span("client.parse", root, req, || parse_response(&text));
        tr.close(root);
        wrong += u64::from(got != Ok(Response::Hits(pool.expected[i].clone())));
        // What `execute` did on the worker thread, re-measured here.
        let snap = tr.span("serve.epoch.snapshot", execute, req, || store.snapshot());
        tr.span("core.query_into", execute, req, || {
            ids.clear();
            snap.index.query_into(&query, &mut scratch, &mut ids);
        });
    }
    wrong
}

/// The served index answering the pool directly, with the planner's exact
/// counts (one warm pass, one measured), and the temporal side alone: a
/// stand-alone HINT over the corpus intervals probed with the pool's
/// windows.
fn probe_index<I: Probed>(index: &I, inputs: &Inputs, tr: &mut Tracer, out: &mut Outcome) {
    let pool = &inputs.pool;
    let mut scratch = QueryScratch::default();
    let mut ids = Vec::new();
    for q in &pool.queries {
        ids.clear();
        index.query_into(q, &mut scratch, &mut ids);
    }
    let (mut us, mut hits, mut wrong) = (Vec::new(), 0usize, 0u64);
    let (mut scanned, mut blocks, mut steps) = (0u64, 0u64, [0u64; 6]);
    for (q, want) in pool.queries.iter().zip(&pool.expected) {
        ids.clear();
        let id = tr.open("core.query_into", NO_PARENT, 0);
        index.query_into(black_box(q), &mut scratch, &mut ids);
        tr.close(id);
        us.push(tr.spans[id as usize].dur_us());
        let s = scratch.last_stats();
        scanned += s.scanned;
        blocks += s.blocks_decoded;
        for (total, n) in steps.iter_mut().zip([
            s.merge_steps,
            s.simd_merge_steps,
            s.gallop_steps,
            s.bitmap_probe_steps,
            s.word_and_steps,
            s.run_intersect_steps,
        ]) {
            *total += n;
        }
        ids.sort_unstable();
        wrong += u64::from(&ids != want);
        hits += ids.len();
    }
    out.attempt(pool.queries.len() as u64, wrong);
    let n = pool.queries.len() as f64;
    let total_us: f64 = us.iter().sum();
    let all_steps: u64 = steps.iter().sum();
    out.metric("core.query_us", median(us));
    out.metric("core.hits_per_query", hits as f64 / n);
    out.metric("invidx.elems_scanned_per_query", scanned as f64 / n);
    out.metric("invidx.steps_per_query", all_steps as f64 / n);
    out.metric("invidx.blocks_decoded_per_query", blocks as f64 / n);
    out.metric("invidx.scan_per_hit", scanned as f64 / hits.max(1) as f64);
    for (name, n) in [
        "invidx.share_merge",
        "invidx.share_simd_merge",
        "invidx.share_gallop",
        "invidx.share_bitmap_probe",
        "invidx.share_word_and",
        "invidx.share_run",
    ]
    .into_iter()
    .zip(steps)
    {
        out.metric(name, n as f64 / all_steps.max(1) as f64);
    }
    out.metric(
        "invidx.ns_per_scanned_elem",
        total_us * 1e3 / scanned.max(1) as f64,
    );

    let records: Vec<IntervalRecord> = inputs
        .coll
        .objects()
        .iter()
        .map(|o| IntervalRecord::new(o.id, o.interval.st, o.interval.end))
        .collect();
    let hint = Hint::build(&records, HintConfig::default());
    let (mut us, mut candidates) = (Vec::new(), 0usize);
    for q in &pool.queries {
        ids.clear();
        let id = tr.open("hint.range_query_into", NO_PARENT, 0);
        hint.range_query_into(q.interval.st, q.interval.end, &mut ids);
        tr.close(id);
        us.push(tr.spans[id as usize].dur_us());
        candidates += ids.len();
    }
    out.metric("hint.range_query_us", median(us));
    out.metric("hint.candidates_per_query", candidates as f64 / n);
    out.metric("hint.useful_ratio", hits as f64 / candidates.max(1) as f64);
}

/// Replays `groups` write groups through the write path's layers on the
/// in-process twin; returns the stream, whose model is the final catalog.
fn replay_commits<I: Probed>(
    index: &I,
    inputs: &Inputs,
    cfg: &RunConfig,
    groups: usize,
    (store, dict): &Store<I>,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> WriteStream {
    let mut stream = WriteStream::new(&inputs.coll, groups, cfg.seed);
    let mut private = index.clone();
    for g in 0..groups {
        let req = g as u32;
        let group = stream.next_group().expect("the stream holds every group");
        let lines: Vec<String> = group.iter().map(Write::line).collect();
        let root = tr.open("bench.replay_commit", NO_PARENT, req);
        let parsed: Vec<_> = tr.span("serve.protocol.parse_group", root, req, || {
            black_box(parse_request("FLUSH")).ok();
            lines.iter().map(|l| parse_request(l.trim_end())).collect()
        });
        tr.span("serve.dict.intern", root, req, || {
            let mut dict = dict.lock().expect("probe dictionary lock");
            for request in &parsed {
                if let Ok(Request::Insert { elems, .. }) = request {
                    for term in elems {
                        dict.intern(term).expect("term log append");
                    }
                }
            }
        });
        let refused = tr.span("serve.epoch.enqueue", root, req, || {
            group
                .iter()
                .filter(|w| store.enqueue(w.write_op()).is_err())
                .count()
        });
        let flush = tr.open("serve.epoch.flush", root, req);
        let flushed = store.flush();
        tr.close(flush);
        tr.close(root);
        out.attempt(
            group.len() as u64 + 1,
            refused as u64 + u64::from(flushed.is_err()),
        );
        // What the applier did meanwhile, re-measured on a private copy.
        tr.span("core.apply", flush, req, || apply(&mut private, &group));
        tr.span("serve.epoch.publish", flush, req, || {
            black_box(private.clone());
        });
    }
    stream
}

/// The durability layer alone, always on tif (the family that persists)
/// over this corpus, in side directories: snapshot writes, the same write
/// groups through `apply_batch` and a side WAL, recovery checked against
/// `expected`, and a `SNAPSHOT` barrier as the applier serves it.
fn probe_persistence(
    inputs: &Inputs,
    cfg: &RunConfig,
    groups: usize,
    expected: &[Vec<u32>],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let tif = Tif::build(&inputs.coll);
    let dir = cfg.run_dir.join("probe-engine");
    let wal_dir = cfg.run_dir.join("probe-wal");
    std::fs::create_dir_all(&wal_dir)?;
    let mut master = tif.clone();
    let mut engine = Durability::create(
        &dir,
        &master,
        &inputs.dict,
        inputs.coll.objects(),
        durability_options(),
    )?;
    for _ in 0..3 {
        tr.span("persist.snapshot.write", NO_PARENT, 0, || {
            engine.write_snapshot(&master, &inputs.dict)
        })?;
    }
    out.metric(
        "persist.snapshot.bytes",
        std::fs::metadata(dir.join(SNAPSHOT_NAME))?.len() as f64,
    );
    let mut wal = Wal::open(&wal_dir, 1, DEFAULT_SEGMENT_BYTES)?;
    let mut stream = WriteStream::new(&inputs.coll, groups, cfg.seed);
    for g in 0..groups {
        let req = g as u32;
        let group = stream.next_group().expect("the stream holds every group");
        let ops: Vec<WalOp> = group.iter().map(Write::wal_op).collect();
        let batch = tr.open("persist.engine.apply_batch", NO_PARENT, req);
        engine.apply_batch(&mut master, &ops)?;
        tr.close(batch);
        tr.span("persist.wal.append", batch, req, || {
            wal.append(g as u64 + 1, &ops)
        })?;
        tr.span("persist.wal.sync", batch, req, || wal.sync())?;
    }
    out.metric(
        "persist.wal.bytes_per_write",
        wal.stats().bytes as f64 / (groups * GROUP) as f64,
    );
    drop(engine);
    let recovered: Recovered<Tif> = tr.span("persist.engine.recover", NO_PARENT, 0, || {
        Durability::recover(&dir, durability_options())
    })?;
    out.metric("persist.engine.replayed_batches", recovered.replayed as f64);
    let wrong = mismatches(&recovered.index, &inputs.pool.queries, expected)
        + u64::from(recovered.durability.catalog_sorted() != stream.live());
    out.attempt(expected.len() as u64 + 1, wrong);

    // The barrier: apply the queued group, write the snapshot, prune, answer.
    let (store, _dict) = durable_store(tif, inputs, &cfg.run_dir.join("probe-stall"))?;
    let mut stream = WriteStream::new(&inputs.coll, 3, cfg.seed);
    for _ in 0..3 {
        let group = stream.next_group()?;
        let refused = group
            .iter()
            .filter(|w| store.enqueue(w.write_op()).is_err())
            .count();
        let epoch = tr.span("persist.snapshot.stall", NO_PARENT, 0, || {
            store.force_snapshot()
        });
        out.attempt(
            group.len() as u64 + 1,
            refused as u64 + u64::from(epoch.is_err()),
        );
    }
    Ok(())
}

/// Spans → per-layer numbers.
fn report(tr: &Tracer, out: &mut Outcome) {
    let med = |name: &str| median(tr.durations_us(name));
    let own = tr.self_times_us();
    let handoff = median(
        tr.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == "serve.pool.execute")
            .map(|(_, us)| *us)
            .collect(),
    );
    let rtts = sorted(tr.durations_us("client.rtt"));
    let rtt = quantile(&rtts, 0.5);
    out.metric("client.read_p99_us", quantile(&rtts, 0.99));
    let ping = med("serve.wire");
    let layers = med("serve.protocol.parse")
        + med("serve.dict.resolve")
        + med("serve.pool.execute")
        + med("serve.protocol.format")
        + med("client.parse");
    out.metric("client.rtt_us", rtt);
    out.metric("serve.pool.handoff_us", handoff);
    out.metric("serve.wire_ping_us", ping);
    out.metric("serve.wire_self_us", rtt - layers);
    let commits = sorted(tr.durations_us("client.commit"));
    out.metric("client.commit_us", quantile(&commits, 0.5));
    out.metric("client.commit_p99_us", quantile(&commits, 0.99));
    // (metric, span, µs per unit of the metric)
    for (metric, span, per_unit) in [
        ("client.parse_us", "client.parse", 1.0),
        ("serve.protocol.parse_us", "serve.protocol.parse", 1.0),
        ("serve.protocol.format_us", "serve.protocol.format", 1.0),
        ("serve.dict.resolve_us", "serve.dict.resolve", 1.0),
        ("serve.pool.execute_us", "serve.pool.execute", 1.0),
        ("serve.epoch.snapshot_ns", "serve.epoch.snapshot", 1e-3),
        ("serve.epoch.enqueue_us", "serve.epoch.enqueue", 1.0),
        ("serve.dict.intern_us", "serve.dict.intern", 1.0),
        ("serve.epoch.flush_us", "serve.epoch.flush", 1.0),
        ("serve.epoch.publish_ms", "serve.epoch.publish", 1e3),
        ("core.apply_us", "core.apply", 1.0),
        ("persist.wal.append_us", "persist.wal.append", 1.0),
        ("persist.wal.sync_us", "persist.wal.sync", 1.0),
        (
            "persist.engine.apply_batch_us",
            "persist.engine.apply_batch",
            1.0,
        ),
        ("persist.snapshot.write_ms", "persist.snapshot.write", 1e3),
        ("persist.snapshot.stall_ms", "persist.snapshot.stall", 1e3),
        ("persist.engine.recover_s", "persist.engine.recover", 1e6),
        ("check.validate_ms", "check.validate", 1e3),
    ] {
        out.metric(metric, med(span) / per_unit);
    }

    // Coverage, request by request: replayed layers + wire over the real
    // span with the same id (the first one, when the pool was cycled).
    let coverage = |real: &str, replay: &str, wires: f64| {
        let mut first: HashMap<u32, f64> = HashMap::new();
        for s in tr.spans.iter().filter(|s| s.name == real) {
            first.entry(s.req).or_insert_with(|| s.dur_us());
        }
        median(
            tr.spans
                .iter()
                .filter(|s| s.name == replay)
                .filter_map(|s| Some((s.dur_us() + wires * ping) / first.get(&s.req)?))
                .collect(),
        )
    };
    out.metric(
        "trace.coverage",
        coverage("client.rtt", "bench.replay_read", 1.0),
    );
    out.metric(
        "trace.coverage_commit",
        coverage("client.commit", "bench.replay_commit", GROUP as f64 + 1.0),
    );
    out.metric("trace.spans", tr.spans.len() as f64);
}

pub fn run<I: Probed>(wl: &ServeWorkload, cfg: &RunConfig) -> std::io::Result<Outcome> {
    let inputs = Inputs::new(wl, cfg);
    let pool = &inputs.pool;
    let mut out = Outcome::default();
    let clock = Instant::now();
    let mut tr = Tracer::new(clock);
    out.metric("datagen.generate_s", inputs.generate_s);
    out.metric("datagen.workload_s", pool.workload_s);
    out.metric("bench.oracle_s", pool.oracle_s);

    // The nine-method table on this workload's corpus: one round, short
    // slices (the dense corpus gets a quarter of the queries — its broad
    // set costs up to 2 ms a query).
    let table_queries = match wl.corpus {
        Corpus::Eclog => cfg.scale.table_queries,
        Corpus::Dense => cfg.scale.table_queries / 4,
    };
    let table_inputs = TableInputs::new(&inputs.coll, table_queries, cfg.seed);
    let slice = Duration::from_secs_f64(cfg.seconds / 240.0);
    let table = methods::run(&inputs.coll, &table_inputs, 1, slice);
    out.attempt(table.checked, table.wrong);
    out.metrics.extend(table.per_layer(&table_inputs));
    drop(table_inputs);

    let (booted, _, _, right) = set_up::<I>(&inputs, cfg.run_dir.join("data"))?;
    out.attempt(1, u64::from(!right));
    let addr = booted.addr();
    let index = I::build(&inputs.coll);
    probe_index(&index, &inputs, &mut tr, &mut out);

    // One read segment over TCP without spans, one with, and the wire
    // alone (HEALTH touches neither pool nor index).
    let segment = cfg.seconds / 8.0;
    let sleep = || std::thread::sleep(Duration::from_secs_f64(segment));
    let (plain, ()) = with_reader(addr, pool, clock, false, sleep);
    let (traced, ()) = with_reader(addr, pool, clock, true, sleep);
    out.attempt(
        (plain.samples.len() + traced.samples.len()) as u64,
        plain.failed + traced.failed,
    );
    out.metric(
        "trace.overhead_pct",
        100.0 * (1.0 - traced.samples.len() as f64 / plain.samples.len().max(1) as f64),
    );
    tr.merge(traced.tracer.expect("the traced segment kept its spans"));
    let mut writer = Client::connect(addr)?;
    for i in 0..(cfg.scale.pool / 2).max(64) {
        let reply = tr.span("serve.wire", NO_PARENT, i as u32, || {
            writer.call("HEALTH\n")
        });
        out.attempt(1, u64::from(!matches!(reply, Response::Health(_))));
    }

    // The same requests replayed through each layer of the read path.
    let twin = index
        .clone()
        .probe_store(&inputs, &cfg.run_dir.join("probe-store"))?;
    {
        let workers = QueryPool::new(
            Arc::clone(&twin.0),
            PoolConfig {
                workers: WORKERS,
                ..Default::default()
            },
        );
        let wrong = replay_reads(pool, &workers, &twin.0, &twin.1, &mut tr);
        out.attempt(pool.lines.len() as u64, wrong);
    }

    // Write groups: over TCP with a `client.commit` span each, then the
    // same groups replayed through the write path's layers.
    let groups = (cfg.scale.pool / 16).max(8);
    let mut tcp_writes = WriteStream::new(&inputs.coll, groups, cfg.seed);
    let mut wlog = WriteLog::default();
    for g in 0..groups {
        let group = tcp_writes.next_group()?;
        commit_group(&mut writer, &group, g as u32, &mut wlog, Some(&mut tr));
    }
    out.attempt(wlog.requests, wlog.failed);
    let replayed = replay_commits(&index, &inputs, cfg, groups, &twin, &mut tr, &mut out);

    // Both write targets must now equal the oracle over the final catalog.
    let n = cfg.scale.check_queries.min(pool.queries.len());
    let expected = oracle(&replayed.live(), &pool.queries[..n]);
    out.attempt(n as u64, check_sample(&mut writer, pool, &expected));
    out.attempt(
        n as u64,
        mismatches(&twin.0.snapshot().index, &pool.queries, &expected),
    );
    drop(twin);

    probe_persistence(&inputs, cfg, groups, &expected, &mut tr, &mut out)?;
    let violations = tr.span("check.validate", NO_PARENT, 0, || index.validate().len());
    out.attempt(1, u64::from(violations > 0));
    drop(writer);
    drop(booted);

    report(&tr, &mut out);
    std::fs::create_dir_all(&cfg.out_dir)?;
    tr.write(&cfg.out_dir.join(format!("trace_{}.json", wl.name)))?;
    Ok(out)
}
