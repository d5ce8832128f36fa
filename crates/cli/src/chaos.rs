//! `tir chaos` — deterministic fault-injection schedules against a live
//! in-process durable server, verified against a model + BruteForce
//! oracle.
//!
//! Each schedule boots a small durable server in this process — seed `s`
//! serves `Method::ALL[s % 9]`, so a failing seed reproduces on its own
//! and any nine consecutive seeds cover every method —
//! installs a [`tir_fault::SeededPlan`] (one seeded I/O fault on the
//! durable write path plus recurring worker stalls, applier delays, and
//! connection drops), and drives it over real TCP loopback with rounds
//! of writes, `FLUSH` barriers, and verified queries. The driver keeps a
//! client-side model of what the server acknowledged:
//!
//! * **confirmed** — ops covered by a `FLUSH` → `EPOCH` ack: durable,
//!   must be visible;
//! * **uncertain** — ops whose fate an injected fault hid (connection
//!   dropped mid-call, flush answered `DEGRADED`, read timed out): each
//!   may or may not have landed, and *stays* uncertain until recovery.
//!
//! Every `HITS` answer is checked id-wise sound against that model: it
//! must contain every id that **certainly** matches (confirmed, no
//! uncertain op on it) and nothing outside the **possibly**-matching set
//! (confirmed ∪ uncertain inserts). With no uncertainty in play this
//! collapses to exact BruteForce equality. Any violation, unexplained
//! `ERR`, unexpected `HEALTH`, or wall-budget overrun fails the run,
//! naming the seed that found it.
//!
//! Each schedule ends with a kill-then-recover step: the server is torn
//! down (for even seeds with snapshot writes denied, forcing WAL-replay
//! recovery), the directory is recovered cold, the recovered catalog is
//! reconciled against the model, and the recovered index must agree with
//! a BruteForce oracle over a [`tir_check::oracle_query_grid`].

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tir_core::prelude::*;
use tir_core::with_method;
use tir_datagen::SyntheticConfig;
use tir_fault::{FaultAction, FaultPlan, FaultSite, SeededPlan};
use tir_invidx::Dictionary;
use tir_persist::{Durability, DurabilityOptions, Recovered, TermLog};
use tir_serve::protocol::{HealthStatus, Response};
use tir_serve::{spawn_server_durable, Connection, PoolConfig, ServeDict, ServerConfig};

use crate::Opts;

/// Per-schedule wall budget: a schedule that runs longer is declared
/// hung (the real bound is a few seconds).
const WALL_BUDGET: Duration = Duration::from_secs(60);

/// Client-side read timeout: a stalled response past this is treated as
/// a dead transport (and the op becomes uncertain).
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Splitmix64 (same family the fault plans use, different streams).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Denies every snapshot write — installed before teardown on even
/// seeds so the shutdown snapshot fails and recovery must replay WAL.
struct DenySnapshots;

impl FaultPlan for DenySnapshots {
    fn action(&self, site: FaultSite, _visit: u64) -> FaultAction {
        if site == FaultSite::SnapshotWrite {
            FaultAction::Error
        } else {
            FaultAction::None
        }
    }
}

/// The fate-tracking model: objects the server durably acked, plus ops
/// whose fate a fault hid.
#[derive(Default)]
struct Model {
    /// Durably acked live objects (insert confirmed, no confirmed
    /// delete after it).
    confirmed: HashMap<u32, Object>,
    /// OK-acked ops not yet covered by a FLUSH barrier, in issue order.
    pending: Vec<Op>,
    /// Ops whose fate is unknown until recovery, keyed by object id.
    uncertain: HashMap<u32, Op>,
    /// Ids whose delete is durable: free for an `INSERT` to take again.
    retired: Vec<u32>,
}

#[derive(Clone)]
enum Op {
    Insert(Object),
    Delete(Object),
}

impl Op {
    fn id(&self) -> u32 {
        match self {
            Op::Insert(o) | Op::Delete(o) => o.id,
        }
    }
}

impl Model {
    /// A FLUSH answered `EPOCH`: everything pending is durable.
    fn confirm_pending(&mut self) {
        for op in self.pending.drain(..) {
            match op {
                Op::Insert(o) => {
                    self.confirmed.insert(o.id, o);
                }
                Op::Delete(o) => {
                    self.confirmed.remove(&o.id);
                    self.retired.push(o.id);
                }
            }
        }
    }

    /// The flush failed or the transport died: every pending op's fate
    /// is unknown (earlier batch-mates may have applied).
    fn pending_to_uncertain(&mut self) {
        for op in self.pending.drain(..) {
            self.uncertain.insert(op.id(), op);
        }
    }

    /// Ids no op is in flight or in limbo for.
    fn is_settled(&self, id: u32) -> bool {
        !self.uncertain.contains_key(&id) && self.pending.iter().all(|op| op.id() != id)
    }

    /// Objects that are certainly live (and unchanged).
    fn certain(&self) -> Vec<Object> {
        self.confirmed
            .values()
            .filter(|o| self.is_settled(o.id))
            .cloned()
            .collect()
    }

    /// Objects that are possibly live: confirmed ∪ in-flight/uncertain
    /// inserts (a doubtful delete leaves its confirmed object possible).
    fn possible(&self) -> Vec<Object> {
        let mut objs = self.confirmed.clone();
        for op in self.pending.iter().chain(self.uncertain.values()) {
            if let Op::Insert(o) = op {
                objs.entry(o.id).or_insert_with(|| o.clone());
            }
        }
        objs.into_values().collect()
    }
}

/// Verifies one HITS answer against the model: sound (no impossible
/// ids) and complete (every certain match present).
fn check_hits(model: &Model, q: &TimeTravelQuery, got: &[u32]) -> Result<(), String> {
    if !got.windows(2).all(|w| w[0] < w[1]) {
        return Err(format!("ids not strictly ascending in answer to {q:?}"));
    }
    let got_set: HashSet<u32> = got.iter().copied().collect();
    let possible: HashSet<u32> = BruteForce::build(&model.possible())
        .answer(q)
        .into_iter()
        .collect();
    if let Some(id) = got_set.iter().find(|id| !possible.contains(id)) {
        return Err(format!("impossible id {id} in answer to {q:?}"));
    }
    for id in BruteForce::build(&model.certain()).answer(q) {
        if !got_set.contains(&id) {
            return Err(format!("certainly-matching id {id} missing from {q:?}"));
        }
    }
    Ok(())
}

/// Tallies of what one schedule observed.
#[derive(Default)]
struct Tally {
    requests: u64,
    timeouts: u64,
    drops: u64,
    degraded: bool,
    injected_errs: u64,
    reused_ids: u64,
}

/// `tir chaos`: run `--schedules` seeded fault schedules; any oracle
/// divergence, hang, or protocol surprise exits nonzero.
pub fn cmd_chaos(opts: &Opts) -> Result<(), String> {
    let schedules: u64 = opts.parse_or("schedules", 24)?;
    let base_seed: u64 = opts.parse_or("seed", 1)?;
    let rounds: u64 = opts.parse_or("rounds", 8)?;
    let scale: f64 = opts.parse_or("scale", 0.0005)?;
    if schedules == 0 {
        return Err("--schedules must be at least 1".into());
    }
    let t0 = Instant::now();
    for seed in base_seed..base_seed + schedules {
        let method = Method::ALL[(seed % Method::ALL.len() as u64) as usize];
        let tally = with_method!(method, |I, build| run_schedule::<I>(
            seed, rounds, scale, method, build
        ))
        .map_err(|e| {
            tir_fault::clear();
            format!("schedule seed {seed} ({method}): {e}")
        })?;
        println!(
            "seed {seed:3}: {:<11} | {} requests | reused ids {} | timeouts {} | drops {} | injected-errs {} | degraded {} | recovery verified",
            method.name(),
            tally.requests,
            tally.reused_ids,
            tally.timeouts,
            tally.drops,
            tally.injected_errs,
            if tally.degraded { "yes" } else { "no " },
        );
    }
    println!(
        "chaos: {schedules} schedules clean in {:.1}s (zero divergences, zero hangs)",
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

fn run_schedule<I>(
    seed: u64,
    rounds: u64,
    scale: f64,
    method: Method,
    build: impl FnOnce(&Collection) -> I,
) -> Result<Tally, String>
where
    I: TemporalIrIndex + Clone + Send + Sync + 'static,
{
    let start = Instant::now();
    let overrun = |what: &str| format!("wall budget exceeded during {what} (possible hang)");
    let dir: PathBuf =
        std::env::temp_dir().join(format!("tir-chaos-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Small corpus, deterministic per seed.
    let mut cfg = SyntheticConfig::default().scaled(scale);
    cfg.seed = seed;
    cfg.desc_size = 4;
    let coll = tir_datagen::generate(&cfg);
    let dict_size = coll.dict_size() as u32;
    let mut dictionary = Dictionary::new();
    for e in 0..dict_size {
        dictionary.intern(&format!("e{e}"));
    }

    let index = build(&coll);
    let d_opts = DurabilityOptions {
        segment_bytes: 4 << 10, // small segments: faults hit rotations too
        snapshot_every: 3,
    };
    let durability = Durability::create(&dir, &index, &dictionary, coll.objects(), d_opts)
        .map_err(|e| format!("init {}: {e}", dir.display()))?;
    let log = TermLog::open(&dir).map_err(|e| format!("terms.log: {e}"))?;
    let server = spawn_server_durable(
        index,
        ServeDict::durable(dictionary, log),
        durability,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            pool: PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            },
            method: method.to_string(),
            ..ServerConfig::default()
        },
        None,
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();

    let mut model = Model::default();
    for o in coll.objects() {
        model.confirmed.insert(o.id, o.clone());
    }
    let domain = coll.domain();
    let span = (domain.end - domain.st).max(1);
    let mut next_id = coll.objects().iter().map(|o| o.id).max().unwrap_or(0) + 1_000;
    let mut fresh_terms = 0u64;
    let mut tally = Tally::default();

    let mut client = Connection::open_with_timeout(&addr.to_string(), Some(READ_TIMEOUT))?;
    // Pre-fault sanity: a healthy server says so.
    match client.call("HEALTH")? {
        Response::Health(HealthStatus::Ok) => {}
        other => return Err(format!("expected HEALTH ok before faults, got {other:?}")),
    }

    // Arm the seeded plan only once the stack is up: boot I/O is clean,
    // everything after this line is hostile territory.
    tir_fault::install(Arc::new(SeededPlan::new(seed)));

    let result = drive(
        &mut client,
        &addr,
        seed,
        rounds,
        &mut model,
        &mut tally,
        span,
        domain.st,
        dict_size,
        &mut next_id,
        &mut fresh_terms,
        start,
        &overrun,
    );
    // Always unhook the plan before teardown so cleanup I/O is clean —
    // except the deliberate snapshot denial below. `install` zeroes the
    // injected counter, so read this schedule's count first.
    tally.injected_errs = tir_fault::injected_count();
    tir_fault::clear();
    result?;
    drop(client);

    // Kill-then-recover. Even seeds tear down with snapshot writes
    // denied: the shutdown snapshot fails and recovery must replay the
    // WAL; odd seeds exercise the snapshot-at-shutdown path instead.
    let deny_snapshots = seed.is_multiple_of(2);
    if deny_snapshots {
        tir_fault::install(Arc::new(DenySnapshots));
    }
    server.stop();
    // Detached connection threads (and the applier behind them) drain
    // after stop(); give them a beat before reopening the directory.
    std::thread::sleep(Duration::from_millis(200));
    tir_fault::clear();
    if start.elapsed() > WALL_BUDGET {
        return Err(overrun("teardown"));
    }

    let r: Recovered<I> = Durability::recover(&dir, d_opts).map_err(|e| format!("recover: {e}"))?;

    // Reconcile the recovered catalog with the model, id-wise.
    let recovered = r.durability.catalog_sorted();
    let recovered_ids: HashSet<u32> = recovered.iter().map(|o| o.id).collect();
    for o in &recovered {
        let known = match model.confirmed.get(&o.id) {
            Some(c) => c.interval == o.interval,
            None => {
                // Not confirmed: only a limbo insert explains it.
                let limbo = model
                    .uncertain
                    .get(&o.id)
                    .or_else(|| model.pending.iter().find(|op| op.id() == o.id));
                matches!(limbo, Some(Op::Insert(u)) if u.interval == o.interval)
            }
        };
        if !known {
            return Err(format!(
                "recovery resurrected id {} which was never acknowledged",
                o.id
            ));
        }
    }
    for o in model.certain() {
        if !recovered_ids.contains(&o.id) {
            return Err(format!("recovery lost durably acked id {}", o.id));
        }
    }

    // Oracle agreement: the recovered index must answer exactly like a
    // linear scan of the recovered catalog.
    let grid = tir_check::oracle_query_grid(&recovered, 32, seed);
    let diverging = tir_check::diff_against_oracle(&r.index, &recovered, &grid);
    if let Some(v) = diverging.first() {
        return Err(format!("recovered index diverges from the oracle: {v}"));
    }

    let _ = std::fs::remove_dir_all(&dir);
    Ok(tally)
}

/// The live phase: rounds of writes → FLUSH → verified queries, under
/// the installed fault plan.
#[allow(clippy::too_many_arguments)]
fn drive(
    client: &mut Connection,
    addr: &std::net::SocketAddr,
    seed: u64,
    rounds: u64,
    model: &mut Model,
    tally: &mut Tally,
    span: u64,
    domain_st: u64,
    dict_size: u32,
    next_id: &mut u32,
    fresh_terms: &mut u64,
    start: Instant,
    overrun: &dyn Fn(&str) -> String,
) -> Result<(), String> {
    // One call with drop/timeout recovery. Returns Ok(None) when the
    // transport died (caller decides what that means for the op).
    let call = |client: &mut Connection,
                req: &str,
                tally: &mut Tally|
     -> Result<Option<Response>, String> {
        tally.requests += 1;
        match client.call(req) {
            Ok(resp) => Ok(Some(resp)),
            Err(_) => {
                tally.drops += 1;
                // Reconnect with a short grace: the server never stops
                // accepting mid-schedule.
                for _ in 0..50 {
                    if let Ok(fresh) =
                        Connection::open_with_timeout(&addr.to_string(), Some(READ_TIMEOUT))
                    {
                        *client = fresh;
                        return Ok(None);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err("could not reconnect after a dropped connection".into())
            }
        }
    };

    let mut degraded_seen = false;
    for round in 0..rounds {
        if start.elapsed() > WALL_BUDGET {
            return Err(overrun(&format!("round {round}")));
        }
        let r0 = mix(seed ^ mix(round));

        // --- Writes: 3 per round — inserts (fresh ids, or the id of a
        // deleted object) and deletes; one in three rounds mints a fresh
        // term to exercise the term-log fault site. ---
        for w in 0..3u64 {
            let r = mix(r0 ^ w);
            let is_delete = w == 2 && r.is_multiple_of(3);
            let (req, op) = if is_delete {
                // Only settled confirmed ids: DELETE must never answer
                // MISSING for the model to stay exact.
                let mut settled: Vec<&Object> = model
                    .confirmed
                    .values()
                    .filter(|o| model.is_settled(o.id))
                    .collect();
                settled.sort_by_key(|o| o.id);
                if settled.is_empty() {
                    continue;
                }
                let victim = settled[(r >> 8) as usize % settled.len()].clone();
                (format!("DELETE {}", victim.id), Op::Delete(victim))
            } else {
                // The second write of a round re-uses the id of a durably
                // deleted object, if there is one; the rest mint fresh ids.
                let id = if w == 1 && !model.retired.is_empty() {
                    tally.reused_ids += 1;
                    model
                        .retired
                        .swap_remove((r >> 8) as usize % model.retired.len())
                } else {
                    *next_id += 1;
                    *next_id - 1
                };
                let st = domain_st + r % span;
                let end = (st + (r >> 16) % (span / 16).max(1)).min(domain_st + span);
                let mut elems = vec![
                    format!("e{}", (r >> 32) as u32 % dict_size),
                    format!("e{}", (r >> 40) as u32 % dict_size),
                ];
                let mut desc = vec![(r >> 32) as u32 % dict_size, (r >> 40) as u32 % dict_size];
                if round.is_multiple_of(3) && w == 0 {
                    // Fresh term: exercises TermLogAppend. Never used in
                    // queries, so local desc ids need not match the
                    // server's for it.
                    elems.push(format!("z{seed}x{fresh_terms}"));
                    desc.push(dict_size + *fresh_terms as u32);
                    *fresh_terms += 1;
                }
                elems.sort();
                elems.dedup();
                desc.sort_unstable();
                desc.dedup();
                let o = Object::new(id, st, end.max(st), desc);
                (
                    format!(
                        "INSERT {} {} {} {}",
                        id,
                        o.interval.st,
                        o.interval.end,
                        elems.join(",")
                    ),
                    Op::Insert(o),
                )
            };
            match call(client, &req, tally)? {
                Some(Response::Ok) => model.pending.push(op),
                Some(Response::Overloaded) => {} // definitely rejected
                Some(Response::Degraded) => {
                    degraded_seen = true; // refused at admission: a definite no
                }
                Some(Response::Missing) => {
                    return Err(format!("unexpected MISSING for {req}"));
                }
                Some(Response::Err(msg)) => {
                    if !tir_fault::message_is_injected(&msg) {
                        return Err(format!("unexplained ERR for {req}: {msg}"));
                    }
                    // Injected term-log failure: the op was refused
                    // before admission — a definite no.
                }
                Some(other) => return Err(format!("unexpected {other:?} for {req}")),
                None => {
                    // Connection dropped mid-call: fate unknown.
                    model.uncertain.insert(op.id(), op);
                }
            }
        }

        // --- FLUSH barrier: settles (or dooms) the pending ops. ---
        match call(client, "FLUSH", tally)? {
            Some(Response::Epoch(_)) => model.confirm_pending(),
            Some(Response::Degraded) => {
                degraded_seen = true;
                model.pending_to_uncertain();
            }
            Some(Response::Overloaded) => model.pending_to_uncertain(),
            Some(Response::Err(msg)) if tir_fault::message_is_injected(&msg) => {
                model.pending_to_uncertain();
            }
            Some(other) => return Err(format!("unexpected {other:?} for FLUSH")),
            None => model.pending_to_uncertain(),
        }

        // --- Verified queries: 4 per round, one carrying a deadline. ---
        for qn in 0..4u64 {
            let r = mix(r0 ^ (qn.wrapping_add(100)));
            let len = match qn % 4 {
                0 => 0,
                1 => span / 64,
                2 => span / 8,
                _ => span,
            };
            let st = domain_st + r % span.saturating_sub(len).max(1);
            let e1 = (r >> 32) as u32 % dict_size;
            let e2 = (r >> 44) as u32 % dict_size;
            let q = TimeTravelQuery::new(st, (st + len).min(domain_st + span), vec![e1, e2]);
            let mut terms = vec![format!("e{e1}"), format!("e{e2}")];
            terms.sort();
            terms.dedup();
            let mut req = format!(
                "QUERY {} {} {}",
                q.interval.st,
                q.interval.end,
                terms.join(",")
            );
            if qn == 3 {
                req.push_str(" DEADLINE 250");
            }
            match call(client, &req, tally)? {
                Some(Response::Hits(ids)) => {
                    check_hits(model, &q, &ids).map_err(|e| format!("{e} (round {round})"))?
                }
                Some(Response::Timeout) if qn == 3 => tally.timeouts += 1,
                Some(Response::Overloaded) => {}
                Some(other) => return Err(format!("unexpected {other:?} for {req}")),
                None => {} // query answers carry no state to track
            }
        }

        // --- Degraded-mode contract, once tripped. ---
        if degraded_seen && !tally.degraded {
            tally.degraded = true;
            match call(client, "HEALTH", tally)? {
                Some(Response::Health(HealthStatus::Degraded)) | None => {}
                Some(other) => {
                    return Err(format!("DEGRADED answered but HEALTH says {other:?}"));
                }
            }
            let probe = format!("INSERT {} 0 1 e0", *next_id);
            *next_id += 1;
            match call(client, &probe, tally)? {
                Some(Response::Degraded) | None => {}
                Some(other) => {
                    return Err(format!("degraded store accepted a write: {other:?}"));
                }
            }
        }
    }
    Ok(())
}
