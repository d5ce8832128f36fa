//! The differential harness: one seeded op script, one model of what the
//! index must hold, and five tiers that must each answer like
//! [`BruteForce`] over that model, for every method.
//!
//! A script is drawn against the model and resolved against it again as it
//! runs, so every sub-list of a script is a script: an insert of an id that
//! is live by then is dropped, a delete of one that is not is a delete of a
//! missing id. The writes between two barriers form a group, which a
//! served tier commits as exactly two batches (see [`Gate`]), so the model
//! knows the `(epoch, live)` every barrier acks.
//!
//! Two axes run beside a script. [`Beside::Readers`] races reader threads
//! against it on the store and wire tiers, and checks each answer exactly
//! against the model at the epoch the reader read. [`Op::Arm`] arms one
//! fault at a chosen point of the script; the tier stays gated, so the
//! model knows which batch the fault killed and stays exact.
//!
//! Under a seeded fault plan a served tier runs ungated, and a write's
//! [`Fate`] can be hidden. Its id is then doubtful: the script's later ops
//! on it are not sent, an answer must hold every certain match and nothing
//! that could not match, and the next kill-recover settles it.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::panic::{catch_unwind, set_hook, take_hook, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tir_check::{diff_against_oracle, oracle_query_grid, Validate};
use tir_core::prelude::*;
use tir_core::{with_method, DivisionStore, IrHint, PerTerm, TermPartition};
use tir_fault::{FaultAction, FaultSite, OneShot, SeededPlan};
use tir_invidx::{Dictionary, QueryScratch, ORDER_SPAN_WORDS_PER_ID};
use tir_persist::{Durability, DurabilityOptions, Recovered, TermLog};
use tir_serve::epoch::{Snapshot, Validator};
use tir_serve::protocol::{HealthStatus, Response};
use tir_serve::{spawn_server, spawn_server_durable, Connection, EpochConfig, EpochStore};
use tir_serve::{ServeDict, ServerConfig, ServerHandle};

#[derive(Clone, Debug)]
pub enum Op {
    Insert(Object),
    Delete(u32),
    /// `insert_batch` on the direct tier, one `INSERT` per object elsewhere.
    Batch(Vec<Object>),
    Query(TimeTravelQuery),
    /// A query whose deadline has passed before it starts.
    Expired(TimeTravelQuery),
    Flush,
    Snapshot,
    /// Copy the data directory as `kill -9` leaves it, recover the copy
    /// and serve from it (a flush on every other tier).
    KillRecover,
    DropBitmaps,
    /// Hold the published snapshot across the next barrier (the store
    /// tier; nothing elsewhere).
    Pin,
    /// Install `OneShot { site, visit: 0, action }`: the fault fires at the
    /// site's next visit (a served tier; nothing elsewhere).
    Arm(FaultSite, FaultAction),
}

/// What runs beside the script.
#[derive(Clone, Copy, Debug)]
pub enum Beside {
    Nothing,
    /// [`READERS`] threads query the published state while the script
    /// writes (the store and wire tiers).
    Readers,
    /// A seeded fault plan, armed once the server is healthy; the applier
    /// runs ungated.
    Plan(SeededPlan),
}

/// What one run of a script saw.
#[derive(Debug, Default)]
pub struct Report {
    /// The applier's counters, if one applier served the whole script, in
    /// the order of [`Model::counters`].
    pub counters: Option<[u64; 6]>,
    /// Distinct reader answers checked while the script ran.
    pub reads: usize,
    /// Unordered raw answers on the direct tier, `[within, past]` the
    /// bitmap pass's span rule (see [`ordering_path`]).
    pub ordering: [usize; 2],
    /// Kill-recovers the recovered tier made.
    pub recoveries: usize,
}

/// Direct: two leapfrogging copies. Store: `EpochStore::new`, read from its
/// published snapshot and sent the deletes of missing ids the server
/// refuses. Wire, Durable: `spawn_server`, `spawn_server_durable`.
/// Recovered: durable, restarted from a recovered copy at `KillRecover`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TierKind {
    Direct,
    Store,
    Wire,
    Durable,
    Recovered,
}

/// The nine methods' two index types, with the dense-term bitmaps
/// reachable: an accelerator only, so dropping them changes no answer.
trait Index: TemporalIrIndex + Validate + Clone + Send + Sync + 'static {
    fn strip_bitmaps(&mut self);
}

impl<D: DivisionStore + 'static> Index for IrHint<D>
where
    Self: Validate + Send + Sync,
{
    fn strip_bitmaps(&mut self) {
        self.drop_bitmaps();
    }
}

impl<P: TermPartition + 'static> Index for PerTerm<P>
where
    Self: Validate + Send + Sync,
{
    fn strip_bitmaps(&mut self) {
        self.drop_bitmaps();
    }
}

/// Runs `script` through every method on `tier` with `beside`, and returns
/// each method's report.
pub fn check(
    label: &str,
    coll: &Collection,
    script: &[Op],
    tier: TierKind,
    beside: Beside,
) -> Vec<(Method, Report)> {
    let report = |m| (m, check_method(label, coll, script, tier, m, beside));
    Method::ALL.into_iter().map(report).collect()
}

/// Runs `script` through `method` on `tier` with `beside`. A failure is
/// shrunk; the panic names the script (`label`), method and tier, and the
/// ops of the script that still fail.
pub fn check_method(
    label: &str,
    coll: &Collection,
    script: &[Op],
    tier: TierKind,
    method: Method,
    beside: Beside,
) -> Report {
    let ops = |keep: &[usize]| -> Vec<Op> { keep.iter().map(|&i| script[i].clone()).collect() };
    let first = match replay(coll, method, tier, script, beside) {
        Ok(report) => return report,
        Err(first) => first,
    };
    let fails = |keep: &[usize]| replay(coll, method, tier, &ops(keep), beside).is_err();
    let keep = shrink((0..script.len()).collect(), fails);
    let last =
        replay(coll, method, tier, &ops(&keep), beside).map_or_else(|e| e, |_| "a pass".into());
    let listed: String = ops(&keep)
        .iter()
        .map(|op| format!("\n    {op:?}"))
        .collect();
    panic!(
        "{label}, {method}, {tier:?}: {first}\n\
         shrunk to ops {keep:?} of the script, which fail at {last}{listed}"
    );
}

thread_local!(static CAUGHT: Cell<Option<String>> = const { Cell::new(None) });

/// One script through one method on one tier. A failed check panics; the
/// panic is caught here, unprinted, and returned with the op it failed at.
pub fn replay(
    coll: &Collection,
    method: Method,
    tier: TierKind,
    ops: &[Op],
    beside: Beside,
) -> Result<Report, String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let print = take_hook();
        set_hook(Box::new(move |p| match CAUGHT.take() {
            Some(_) => CAUGHT.set(Some(p.to_string())),
            None => print(p),
        }));
    });
    let rendezvous = matches!(beside, Beside::Readers).then(|| Arc::new(Rendezvous::new(READERS)));
    let plan = match beside {
        Beside::Plan(plan) => Some(plan),
        _ => None,
    };
    let open = || {
        let rendezvous = rendezvous.clone();
        with_method!(method, |I, b| open::<I>(
            b(coll),
            tier,
            method,
            coll,
            plan,
            rendezvous
        ))
    };
    let at = Cell::new(0);
    CAUGHT.set(Some(String::new()));
    let ran = catch_unwind(AssertUnwindSafe(|| {
        drive(
            open(),
            tier,
            coll,
            ops,
            &at,
            plan.is_none(),
            rendezvous.clone(),
        )
    }));
    let caught = CAUGHT.take().unwrap_or_default();
    let op = ops
        .get(at.get())
        .map_or("the closing flush".into(), |op| format!("{op:?}"));
    ran.map_err(|_| format!("op {} of {}, {op}: {caught}", at.get(), ops.len()))
}

/// Drops chunks of `items` (halves, then quarters, down to single items)
/// while what is left still fails.
fn shrink<T: Clone>(mut items: Vec<T>, fails: impl Fn(&[T]) -> bool) -> Vec<T> {
    let mut chunk = items.len() / 2;
    while chunk > 0 {
        let mut start = 0;
        while start < items.len() {
            let end = items.len().min(start + chunk);
            let candidate = [&items[..start], &items[end..]].concat();
            if fails(&candidate) {
                items = candidate;
            } else {
                start = end;
            }
        }
        chunk /= 2;
    }
    items
}

/// A seeded script of `len` ops over `coll`. Deletes favour the newest id
/// and re-used-id inserts the last id deleted, so an id often dies and
/// comes back in the partitions it has just left.
pub fn generate(coll: &Collection, seed: u64, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Model::new(coll);
    let mut fresh = coll.objects().iter().map(|o| o.id).max().unwrap_or(0);
    let (mut last_deleted, mut script) = (0, Vec::with_capacity(len));
    while script.len() < len {
        let recent = model.dead.contains_key(&last_deleted) && rng.gen_bool(0.8);
        let any = rng.gen_range(0..model.dead.len().max(1));
        let dead = recent.then_some(last_deleted);
        let dead = dead.or(model.dead.keys().nth(any).copied());
        let op = match (rng.gen_range(0..100), dead) {
            (0..=11, _) | (16..=33, None) => {
                fresh += 1;
                Op::Insert(model.object(&mut rng, fresh))
            }
            (12..=15, _) => {
                fresh += [300, 300, 300, 5_000, 5_000, 4_000_000][rng.gen_range(0..6)];
                Op::Insert(model.object(&mut rng, fresh))
            }
            (16..=33, Some(id)) => Op::Insert(model.revive(&mut rng, id)),
            (34..=51, _) if !model.live.is_empty() => {
                let newest = model.live.keys().next_back();
                let any = model.live.keys().nth(rng.gen_range(0..model.live.len()));
                last_deleted = *if rng.gen_bool(0.7) { newest } else { any }.unwrap_or(&0);
                if rng.gen_bool(0.5) {
                    // The id comes straight back.
                    script.push(Op::Delete(last_deleted));
                    model.admit(&Op::Delete(last_deleted));
                    Op::Insert(model.revive(&mut rng, last_deleted))
                } else {
                    Op::Delete(last_deleted)
                }
            }
            (34..=57, _) if rng.gen_bool(0.5) => Op::Delete(last_deleted),
            (34..=57, _) => Op::Delete(fresh + rng.gen_range(1..1_000)),
            (58..=63, _) => {
                // Half the batches commit behind a pinned reader.
                if rng.gen_bool(0.5) {
                    script.push(Op::Pin);
                }
                let mut batch = Vec::new();
                for _ in 0..rng.gen_range(2..=6) {
                    batch.push(match dead {
                        Some(id) if rng.gen_bool(0.3) => model.revive(&mut rng, id),
                        _ => {
                            fresh += 1;
                            model.object(&mut rng, fresh)
                        }
                    });
                }
                Op::Batch(batch)
            }
            // Reads come in runs, so that one barrier serves several.
            (64..=81, _) => {
                for _ in 1..rng.gen_range(1..=4) {
                    script.push(Op::Query(model.query(&mut rng)));
                }
                Op::Query(model.query(&mut rng))
            }
            (82..=85, _) => Op::Expired(model.query(&mut rng)),
            (86..=90, _) => Op::Flush,
            (91..=93, _) => Op::Snapshot,
            (94..=97, _) => Op::KillRecover,
            _ => Op::DropBitmaps,
        };
        model.admit(&op);
        script.push(op);
    }
    script.truncate(len);
    script
}

/// A crash-point script for the recovered tier: writes, `Arm(site,
/// action)`, more writes (the first insert naming a fresh term), a
/// `SNAPSHOT` barrier, reads of what the fault left, writes a degraded
/// server must refuse, a kill-recover, more writes and reads, and a second
/// kill-recover. The armed group's first write is committed before the
/// fault is armed, so a fault on the write path kills the group's second
/// batch.
pub fn armed(coll: &Collection, seed: u64, site: FaultSite, action: FaultAction) -> Vec<Op> {
    let drawn = generate(coll, seed, 160);
    let mut writes = drawn.iter().filter(|op| is_write(op)).cloned();
    let mut queries = drawn
        .iter()
        .filter(|op| matches!(op, Op::Query(_)))
        .cloned();
    let mut script: Vec<Op> = writes.by_ref().take(10).collect();
    script.push(Op::Arm(site, action));
    let fresh = |o: &Object| {
        let desc = o
            .desc
            .iter()
            .copied()
            .chain([coll.dict_size() as u32 + 1_000]);
        Object::new(o.id, o.interval.st, o.interval.end, desc.collect())
    };
    let mut named = false;
    for op in writes.by_ref().take(8) {
        script.push(match op {
            Op::Insert(o) if !std::mem::replace(&mut named, true) => Op::Insert(fresh(&o)),
            Op::Batch(mut os) if !std::mem::replace(&mut named, true) => {
                os[0] = fresh(&os[0]);
                Op::Batch(os)
            }
            op => op,
        });
    }
    script.push(Op::Snapshot);
    script.extend(queries.by_ref().take(4));
    script.extend(writes.by_ref().take(4));
    script.push(Op::KillRecover);
    script.extend(writes.take(10));
    script.extend(queries.take(4));
    script.push(Op::KillRecover);
    script
}

/// A write as the model resolved it: one store-level op, flagged whether
/// the server admits it (a delete of a missing id answers `MISSING` and is
/// never enqueued), or a batch.
#[derive(Clone)]
enum Write {
    Op(WriteOp, bool),
    Batch(Vec<Object>),
}

impl Write {
    /// The store-level ops, each flagged admitted or not.
    fn requests(&self) -> Vec<(WriteOp, bool)> {
        match self {
            Write::Op(op, admitted) => vec![(op.clone(), *admitted)],
            Write::Batch(os) => os
                .iter()
                .map(|o| (WriteOp::Insert(o.clone()), true))
                .collect(),
        }
    }
}

/// What became of one write request.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fate {
    /// `OK`, or `MISSING` for a delete of a missing id.
    Admitted,
    /// `OVERLOADED`, `DEGRADED`, or an `ERR` the fault plan injected.
    Refused,
    /// No reply: the connection dropped.
    Hidden,
}

/// What a barrier reported.
#[derive(Default)]
struct Ack {
    /// The barrier answered: every write admitted since the last one is in.
    settled: bool,
    /// The `(epoch, live)` acked, if the tier has epochs; if a gated
    /// barrier answered `DEGRADED`, the `(epoch, live)` still published.
    epoch: Option<(u64, u64)>,
    /// After a kill-recover, the recovered epoch and catalog.
    recovered: Option<(u64, Vec<Object>)>,
    /// The writes a degraded server has discarded since it started.
    discarded: u64,
}

impl Ack {
    fn of(settled: bool, epoch: Option<(u64, u64)>) -> Ack {
        Ack {
            settled,
            epoch,
            ..Ack::default()
        }
    }
}

/// The one model: the live catalog and the dead ids, the ids whose state a
/// fault hid, and what the applier must have done to reach them.
#[derive(Default)]
struct Model {
    /// Each certainly live object.
    live: BTreeMap<u32, Object>,
    /// Each dead id's last object.
    dead: BTreeMap<u32, Object>,
    /// Each doubtful id's possible states (`None`: not live).
    doubt: BTreeMap<u32, Vec<Option<Object>>>,
    /// Each id written since the last ack, with the states it has passed
    /// through since: what it may be if the barrier does not answer.
    unacked: BTreeMap<u32, Vec<Option<Object>>>,
    /// The admitted writes since the last barrier.
    group: Vec<(WriteOp, bool)>,
    /// The live catalog at the last barrier.
    base: BTreeMap<u32, Object>,
    /// After a fault killed a batch that reached the WAL (its append did
    /// not fail), its epoch and the catalog it would have published: a
    /// recovery that replays it lands there.
    attempted: Option<(u64, BTreeMap<u32, Object>)>,
    /// The fault an [`Op::Arm`] installed.
    armed: Option<FaultSite>,
    /// With readers beside the script, the oracle at each epoch published.
    epochs: Option<BTreeMap<u64, BruteForce>>,
    oracle: BruteForce,
    domain: (u64, u64),
    /// Element ids known: the corpus's dictionary, then each fresh term.
    terms: u32,
    epoch: u64,
    /// Whether a group commits as exactly two batches (see [`Gate`]); an
    /// ungated one commits as one batch or as up to one per write.
    gated: bool,
    /// Whether the tier enqueues a delete of a missing id, as only the
    /// store tier does: the server answers `MISSING` instead.
    sends_missing: bool,
    /// Whether a reader holds the published snapshot until the barrier.
    pinned: bool,
    /// Whether the applier holds a copy a pin kept it from reclaiming.
    reclaim: bool,
    /// `[inserts, deletes, missed_deletes, publish_reused, publish_cloned,
    /// max_batch]`.
    counters: [u64; 6],
}

impl Model {
    fn new(coll: &Collection) -> Model {
        let d = coll.domain();
        let live: BTreeMap<u32, Object> =
            coll.objects().iter().map(|o| (o.id, o.clone())).collect();
        Model {
            base: live.clone(),
            live,
            oracle: BruteForce::build(coll.objects()),
            domain: (d.st, d.end.max(d.st + 1)),
            terms: coll.dict_size() as u32,
            gated: true,
            ..Model::default()
        }
    }

    /// `op` as the tier is sent it, if at all. Ops on a doubtful id are not
    /// sent, nor an insert of a live id.
    fn resolve(&self, op: &Op) -> Option<Write> {
        let free = |id| !self.live.contains_key(&id) && !self.doubt.contains_key(&id);
        match op {
            Op::Insert(o) => free(o.id).then(|| Write::Op(WriteOp::Insert(o.clone()), true)),
            Op::Delete(id) if self.doubt.contains_key(id) => None,
            Op::Delete(id) => Some(match self.live.get(id) {
                Some(o) => Write::Op(WriteOp::Delete(o.clone()), true),
                None => {
                    let ghost = Object::new(*id, 0, 1, vec![0]);
                    let o = self.dead.get(id).cloned().unwrap_or(ghost);
                    Write::Op(WriteOp::Delete(o), false)
                }
            }),
            Op::Batch(os) => {
                let mut taken = BTreeSet::new();
                let admitted = os.iter().filter(|o| free(o.id) && taken.insert(o.id));
                let admitted: Vec<Object> = admitted.cloned().collect();
                (!admitted.is_empty()).then_some(Write::Batch(admitted))
            }
            _ => None,
        }
    }

    /// Takes `op` as admitted, as the generator does.
    fn admit(&mut self, op: &Op) {
        for (op, ok) in self.resolve(op).iter().flat_map(Write::requests) {
            self.settle(op, ok, Fate::Admitted);
        }
    }

    /// Sends `op` to `tier` and settles each request by its fate.
    fn write(&mut self, tier: &mut dyn Tier, op: &Op) {
        let Some(write) = self.resolve(op) else {
            return;
        };
        let fates = tier.write(&write);
        for ((op, ok), fate) in write.requests().into_iter().zip(fates) {
            if fate == Fate::Admitted {
                self.group.push((op.clone(), ok));
            }
            self.settle(op, ok, fate);
        }
    }

    /// An admitted write changes the model; a hidden one makes its id
    /// doubtful; a refused one, or a delete of a missing id, changes nothing.
    fn settle(&mut self, op: WriteOp, ok: bool, fate: Fate) {
        if fate == Fate::Refused || !ok {
            return;
        }
        let (id, after) = match op {
            WriteOp::Insert(o) => (o.id, Some(o)),
            WriteOp::Delete(o) => (o.id, None),
        };
        let before = self.live.get(&id).cloned();
        let states = self.unacked.entry(id).or_insert_with(|| vec![before]);
        states.push(after.clone());
        if fate == Fate::Hidden {
            let states = self.unacked.remove(&id).unwrap_or_default();
            self.doubt(id, states);
        } else if let Some(o) = after {
            self.dead.remove(&id);
            self.live.insert(id, o);
        } else if let Some(o) = self.live.remove(&id) {
            self.dead.insert(id, o);
        }
    }

    fn doubt(&mut self, id: u32, states: Vec<Option<Object>>) {
        self.live.remove(&id);
        self.doubt.insert(id, states);
    }

    /// Takes the live catalog back to `catalog`: the writes a fault killed
    /// were never applied.
    fn rewind(&mut self, catalog: BTreeMap<u32, Object>) {
        for (id, o) in std::mem::replace(&mut self.live, catalog) {
            if !self.live.contains_key(&id) {
                self.dead.insert(id, o);
            }
        }
        self.dead.retain(|id, _| !self.live.contains_key(id));
    }

    /// A reader pins the published snapshot, which holds the model's live
    /// catalog, if the tier has one.
    fn pin(&mut self, tier: &mut dyn Tier) {
        let catalog: Vec<Object> = self.live.values().cloned().collect();
        self.pinned |= tier.pin(&catalog);
    }

    /// Closes the group with `barrier`. A barrier that answers settles the
    /// group, and one that does not leaves every write in it doubtful; a
    /// recovery settles all doubt. While the model is exact, a tier with
    /// epochs must ack its `(epoch, live)`: one epoch per batch, and a
    /// gated group forms at most two batches, the first of one op (see
    /// [`Gate`]).
    ///
    /// A gated barrier that answers `DEGRADED` leaves no doubt: an armed
    /// fault killed one of the group's two batches, or the snapshot after
    /// them, and the epoch still published says which. The killed batch and
    /// every write after it are discarded. The model goes back to that
    /// epoch's catalog, and remembers the killed batch's for the recovery,
    /// which may replay it.
    fn barrier(&mut self, tier: &mut dyn Tier, barrier: &Op) {
        let (mut sent, mut inserts, mut missed) = (0, 0, 0);
        // The catalog the gate's first batch, the group's first op, publishes.
        let mut first = self.base.clone();
        for (op, ok) in self.group.drain(..) {
            let sends = ok || self.sends_missing;
            if sent == 0 && ok {
                match &op {
                    WriteOp::Insert(o) => first.insert(o.id, o.clone()),
                    WriteOp::Delete(o) => first.remove(&o.id),
                };
            }
            sent += u64::from(sends);
            inserts += u64::from(sends && matches!(op, WriteOp::Insert(_)));
            missed += u64::from(sends && !ok);
        }
        self.count(sent, inserts, missed);
        let batches = sent.min(2);
        // The catalog at each epoch from the last barrier's, if gated.
        let base = self.base.clone();
        let states = match batches {
            0 => vec![base],
            1 => vec![base, self.live.clone()],
            _ => vec![base, first, self.live.clone()],
        };
        if let (Some(epochs), true) = (&mut self.epochs, self.gated) {
            for (k, state) in states.iter().enumerate().skip(1) {
                let objects: Vec<Object> = state.values().cloned().collect();
                epochs.insert(self.epoch + k as u64, BruteForce::build(&objects));
            }
        }
        let catalog: Vec<Object> = self.live.values().cloned().collect();
        let mut ack = tier.commit(barrier, &catalog);
        let exact = ack.settled && self.doubt.is_empty();
        let unacked = std::mem::take(&mut self.unacked);
        if !ack.settled && !self.gated {
            for (id, states) in unacked {
                self.doubt(id, states);
            }
        }
        if let Some((epoch, live)) = ack.epoch {
            if self.gated && !ack.settled {
                let k = epoch.wrapping_sub(self.epoch);
                // A fault on the write path kills a batch before it
                // publishes; one on the snapshot path, after both did.
                let kills_batch = self.armed.is_some_and(|site| {
                    matches!(
                        site,
                        FaultSite::WalAppend | FaultSite::WalSync | FaultSite::Apply
                    )
                });
                let fits = if kills_batch {
                    k < batches || k == 0
                } else {
                    k == batches
                };
                assert!(
                    fits,
                    "epoch {epoch} after {} at {batches} batches, {:?} armed",
                    self.epoch, self.armed
                );
                if let Some(killed) = states.get(k as usize + 1) {
                    let discarded = sent - k;
                    assert_eq!(ack.discarded, discarded, "writes discarded");
                    let appended = self.armed != Some(FaultSite::WalAppend);
                    self.attempted = appended.then(|| (epoch + 1, killed.clone()));
                }
                self.rewind(states[k as usize].clone());
            } else {
                let (least, most) = if self.gated {
                    (batches, batches)
                } else {
                    (sent.min(1), sent)
                };
                let grew = exact.then(|| epoch.wrapping_sub(self.epoch));
                assert!(
                    grew.is_none_or(|n| (least..=most).contains(&n)),
                    "epoch {epoch} after {} at {sent} writes",
                    self.epoch
                );
            }
            let want = self.doubt.is_empty().then_some(self.live.len() as u64);
            assert!(want.is_none_or(|n| n == live), "live {live}, not {want:?}");
            self.epoch = epoch;
        }
        if let Some((epoch, recovered)) = ack.recovered.take() {
            self.recover(epoch, recovered, exact);
        }
        self.base = self.live.clone();
        let catalog: Vec<Object> = self.live.values().cloned().collect();
        self.oracle = BruteForce::build(&catalog);
    }

    /// The applier's counters after a gated group of `sent` ops. Each batch
    /// publishes and then reclaims the copy it retired, unless the pin holds
    /// it: then the next batch reclaims it, or clones the published copy
    /// while the pin still holds it.
    fn count(&mut self, sent: u64, inserts: u64, missed: u64) {
        let held = std::mem::take(&mut self.pinned);
        for batch in 0..sent.min(2) {
            if std::mem::take(&mut self.reclaim) {
                self.counters[if held && batch == 1 { 4 } else { 3 }] += 1;
            }
            if held && batch == 0 {
                self.reclaim = true;
            } else {
                self.counters[3] += 1;
            }
        }
        self.counters[0] += inserts;
        self.counters[1] += sent - inserts - missed;
        self.counters[2] += missed;
        // The gate's two batches: the first op alone, then the rest.
        let largest = sent.min(1).max(sent.saturating_sub(1));
        self.counters[5] = self.counters[5].max(largest);
    }

    /// Settles doubt by the catalog a recovery found at `epoch`: it holds
    /// every certain object, each doubtful id in one of its possible states,
    /// and nothing that was never acked. Recovery never loses an acked
    /// epoch. A gated run, or an `exact` barrier, pins it: the epoch last
    /// published, or a killed batch's that reached the WAL, replayed. The
    /// model is exact again.
    fn recover(&mut self, epoch: u64, recovered: Vec<Object>, exact: bool) {
        assert!(
            epoch >= self.epoch,
            "recovered epoch {epoch}, acked {}",
            self.epoch
        );
        match self.attempted.take() {
            Some((killed, state)) if epoch == killed => {
                self.rewind(state);
                self.epoch = killed;
            }
            _ => {}
        }
        let acked = self.epoch;
        let pinned = exact || self.gated;
        assert!(
            !pinned || epoch == acked,
            "recovered epoch {epoch}, not {acked}"
        );
        self.epoch = epoch;
        let mut found: BTreeMap<u32, Object> = recovered.into_iter().map(|o| (o.id, o)).collect();
        for (id, o) in &self.live {
            let kept = found.remove(id);
            assert_eq!(kept.as_ref(), Some(o), "recovered id {id}");
        }
        for (id, states) in std::mem::take(&mut self.doubt) {
            let state = found.remove(&id);
            assert!(
                states.contains(&state),
                "doubtful id {id} recovered as {state:?}, not one of {states:?}"
            );
            if let Some(o) = state {
                self.live.insert(id, o);
            }
        }
        assert!(
            found.is_empty(),
            "recovered ids never acked: {:?}",
            found.keys()
        );
    }

    /// Checks what the readers read since the last call: each answer is
    /// strictly ascending and, at some epoch in the range its reader read,
    /// exactly that epoch's oracle answer. Returns how many it checked.
    fn check_reads(&self, readers: &Readers, queries: &[TimeTravelQuery]) -> usize {
        let reads = std::mem::take(&mut *lock(&readers.shared.reads));
        if let Some(failed) = lock(&readers.shared.failed).take() {
            panic!("{failed}");
        }
        let epochs = self.epochs.as_ref().expect("epochs");
        for ((lo, hi, n, ids), reader) in &reads {
            let q = &queries[*n];
            let ascending = ids.windows(2).all(|w| w[0] < w[1]);
            assert!(
                ascending,
                "reader {reader}: {q:?} not strictly ascending: {ids:?}"
            );
            let right = |e: &u64| epochs.get(e).is_some_and(|o| o.answer(q) == *ids);
            assert!(
                (*lo..=*hi).any(|e| right(&e)),
                "reader {reader} at epochs {lo}..={hi}: {q:?} answered {ids:?}, epoch {lo} {:?}",
                epochs.get(lo).map(|o| o.answer(q))
            );
        }
        reads.len()
    }

    /// An answer holds every certain match and nothing that could not
    /// match: while no id is doubtful, exactly the oracle's answer.
    fn check(&self, q: &TimeTravelQuery, got: &[u32]) {
        let want = self.oracle.answer(q);
        if self.doubt.is_empty() {
            assert_eq!(got, want);
            return;
        }
        let missing = want.iter().filter(|id| got.binary_search(id).is_err());
        let missing: Vec<&u32> = missing.collect();
        let possible = |id: &u32| {
            let mut states = self.doubt.get(id).into_iter().flatten().flatten();
            want.binary_search(id).is_ok() || states.any(|o| q.matches(o))
        };
        let impossible: Vec<&u32> = got.iter().filter(|id| !possible(id)).collect();
        let sound = missing.is_empty() && impossible.is_empty();
        assert!(
            sound,
            "{q:?}: missing {missing:?}, impossible {impossible:?}"
        );
    }

    /// An object over the corpus's domain and the terms known so far, or
    /// now and then a fresh one.
    fn object(&mut self, rng: &mut StdRng, id: u32) -> Object {
        let (st, end) = self.interval(rng);
        let mut desc = Vec::new();
        for _ in 0..rng.gen_range(1..=4) {
            desc.push(if rng.gen_bool(0.05) {
                self.terms += 1;
                self.terms - 1
            } else {
                self.term(rng)
            });
        }
        Object::new(id, st, end, desc)
    }

    /// Dead `id` back as the object it was, as its interval with another
    /// description, or as another object.
    fn revive(&mut self, rng: &mut StdRng, id: u32) -> Object {
        let other = self.object(rng, id);
        match (self.dead.get(&id), rng.gen_range(0..4)) {
            (Some(was), 0) => was.clone(),
            (Some(was), 1 | 2) => Object {
                interval: was.interval,
                ..other
            },
            _ => other,
        }
    }

    /// A query whose last term comes from a live object, so that answers
    /// are rarely empty.
    fn query(&self, rng: &mut StdRng) -> TimeTravelQuery {
        let (st, end) = self.interval(rng);
        let nth = rng.gen_range(0..self.live.len().max(1));
        let mut elems: Vec<u32> = (0..rng.gen_range(0..=2)).map(|_| self.term(rng)).collect();
        let seed = self.live.values().nth(nth);
        elems.push(seed.map_or(0, |o| o.desc[rng.gen_range(0..o.desc.len())]));
        TimeTravelQuery::new(st, end, elems)
    }

    /// Stabbing, 0.1 %, 5 % or all of the domain.
    fn interval(&self, rng: &mut StdRng) -> (u64, u64) {
        let (lo, hi) = self.domain;
        let len = [0, (hi - lo) / 1000, (hi - lo) / 20, hi - lo][rng.gen_range(0..4)];
        let st = rng.gen_range(lo..=hi - len);
        (st, st + len)
    }

    /// Low element ids, like the corpus's frequent terms, come most often.
    fn term(&self, rng: &mut StdRng) -> u32 {
        rng.gen_range(0..self.terms)
            .min(rng.gen_range(0..self.terms))
    }
}

fn open<I: Index>(
    index: I,
    tier: TierKind,
    method: Method,
    coll: &Collection,
    plan: Option<SeededPlan>,
    readers: Option<Arc<Rendezvous>>,
) -> Box<dyn Tier> {
    match tier {
        TierKind::Direct => Box::new(Direct(index.clone(), index, Vec::new(), [0; 2])),
        TierKind::Store => Box::new(Store::new(index, coll.len() as u64, readers)),
        _ => Box::new(Served::<I>::open(tier, method, coll, index, plan, readers)),
    }
}

fn is_write(op: &Op) -> bool {
    matches!(op, Op::Insert(_) | Op::Delete(_) | Op::Batch(_))
}

/// Runs `ops` through `tier` against the model: every answer, every
/// barrier, every reader's answer and, at the end, the applier's counters.
/// `at` tracks the op.
fn drive(
    mut tier: Box<dyn Tier>,
    kind: TierKind,
    coll: &Collection,
    ops: &[Op],
    at: &Cell<usize>,
    gated: bool,
    rendezvous: Option<Arc<Rendezvous>>,
) -> Report {
    let (mut model, tier) = (Model::new(coll), tier.as_mut());
    (model.gated, model.sends_missing) = (gated, kind == TierKind::Store);
    let mut report = Report::default();
    let queries = reader_queries(&model);
    let mut readers = rendezvous.and_then(|r| Readers::start(tier, r, &queries));
    let raced = readers.is_some();
    if raced {
        model.epochs = Some(BTreeMap::from([(0, model.oracle.clone())]));
    }
    // The readers stop before the last group commits, so that none holds
    // the copy its publish retires and the applier's counters come out as
    // the model's, but for the split between reused and cloned masters.
    let last = ops.iter().rposition(is_write).map_or(0, |i| i + 1);
    for (i, op) in ops.iter().enumerate() {
        at.set(i);
        if i == last {
            report.reads += stop_readers(&mut readers, &model, &queries);
        }
        // A read follows a barrier: which unflushed writes it would see is
        // up to the applier.
        let reads = matches!(
            op,
            Op::Query(_) | Op::Expired(_) | Op::DropBitmaps | Op::Pin
        );
        if reads && !model.group.is_empty() {
            model.barrier(tier, &Op::Flush);
        }
        match op {
            Op::Insert(_) | Op::Delete(_) | Op::Batch(_) => model.write(tier, op),
            Op::Flush | Op::Snapshot | Op::KillRecover => model.barrier(tier, op),
            Op::DropBitmaps => tier.drop_bitmaps(),
            Op::Pin => model.pin(tier),
            Op::Arm(site, action) => {
                model.armed = Some(*site);
                tier.arm(*site, *action);
            }
            Op::Query(q) => model.check(q, &tier.query(q, false).expect("an answer")),
            Op::Expired(q) => {
                if let Some(got) = tier.query(q, true) {
                    model.check(q, &got);
                }
            }
        }
        report.recoveries +=
            usize::from(matches!(op, Op::KillRecover) && kind == TierKind::Recovered);
        if let Some(readers) = &readers {
            report.reads += model.check_reads(readers, &queries);
        }
    }
    at.set(ops.len());
    report.reads += stop_readers(&mut readers, &model, &queries);
    model.barrier(tier, &Op::Flush);
    report.ordering = tier.ordering();
    report.counters = tier.counters();
    if let Some(counters) = report.counters {
        let names = "[inserts, deletes, missed_deletes, publish_reused, publish_cloned, max_batch]";
        // A reader's pin decides whether the next master is reclaimed or
        // cloned, so with readers only the sum is the model's.
        let split = |[i, d, m, r, c, b]: [u64; 6]| {
            if raced {
                [i, d, m, r + c, 0, b]
            } else {
                [i, d, m, r, c, b]
            }
        };
        assert_eq!(split(counters), split(model.counters), "{names}");
    }
    report
}

/// Stops the readers, if they run, and checks what they read last.
fn stop_readers(
    readers: &mut Option<Readers>,
    model: &Model,
    queries: &[TimeTravelQuery],
) -> usize {
    readers.take().map_or(0, |mut readers| {
        readers.stop();
        model.check_reads(&readers, queries)
    })
}

/// What the readers ask: each of the four most frequent terms over the
/// whole domain, and eight queries drawn as the script's are.
fn reader_queries(model: &Model) -> Vec<TimeTravelQuery> {
    let (lo, hi) = model.domain;
    let whole = (0..4.min(model.terms)).map(|t| TimeTravelQuery::new(lo, hi, vec![t]));
    let mut rng = StdRng::seed_from_u64(7);
    let drawn: Vec<TimeTravelQuery> = (0..8).map(|_| model.query(&mut rng)).collect();
    whole.chain(drawn).collect()
}

/// Reader threads beside a script.
const READERS: usize = 2;

/// How long a reader waits between reads that no rendezvous asked for.
const PAUSE: Duration = Duration::from_millis(5);

/// A reader on its own handle to a tier's published state.
trait Reader: Send {
    /// The answer to `q` as the tier gave it, and the range of epochs it
    /// was read at.
    fn read(&mut self, q: &TimeTravelQuery) -> Result<((u64, u64), Vec<u32>), String>;
}

/// Lets the driver wait until every reader has read the published state as
/// it stands: the gate asks at each park of the applier, so readers read
/// mid-script whatever the scheduler does, and read each state a batch
/// publishes before the next batch starts.
struct Rendezvous {
    /// The last round asked, and the last round each reader answered.
    rounds: Mutex<(u64, Vec<u64>)>,
    turned: Condvar,
}

impl Rendezvous {
    fn new(readers: usize) -> Self {
        Rendezvous {
            rounds: Mutex::new((0, vec![0; readers])),
            turned: Condvar::new(),
        }
    }

    /// Returns once every reader has made a read that began after the call.
    fn sync(&self) {
        let mut rounds = lock(&self.rounds);
        rounds.0 += 1;
        let round = rounds.0;
        self.turned.notify_all();
        let deadline = Instant::now() + HANG;
        while rounds.1.iter().any(|&r| r < round) {
            let left = deadline.checked_duration_since(Instant::now());
            let left = left.expect("the readers answer a rendezvous");
            rounds = self.turned.wait_timeout(rounds, left).expect("rounds").0;
        }
    }

    /// The round reader `r`'s next read answers: the one asked, after a
    /// wait of up to [`PAUSE`] if the reader has answered it already.
    fn next(&self, r: usize) -> u64 {
        let mut rounds = lock(&self.rounds);
        if rounds.1[r] == rounds.0 {
            rounds = self.turned.wait_timeout(rounds, PAUSE).expect("rounds").0;
        }
        rounds.0
    }

    fn answered(&self, r: usize, round: u64) {
        let mut rounds = lock(&self.rounds);
        rounds.1[r] = rounds.1[r].max(round);
        self.turned.notify_all();
    }
}

/// What the reader threads share with the driver.
struct Shared {
    stop: AtomicBool,
    rendezvous: Arc<Rendezvous>,
    /// Each distinct answer read since the driver last looked, as `(first
    /// epoch, last epoch, query, ids)`, and the reader that read it.
    reads: Mutex<BTreeMap<(u64, u64, usize, Vec<u32>), usize>>,
    failed: Mutex<Option<String>>,
}

/// [`READERS`] threads, each reading round the queries on its own handle
/// until stopped.
struct Readers {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Readers {
    /// The readers, if `tier` has a published state to race.
    fn start(
        tier: &mut dyn Tier,
        rendezvous: Arc<Rendezvous>,
        queries: &[TimeTravelQuery],
    ) -> Option<Readers> {
        let handles: Option<Vec<Box<dyn Reader>>> = (0..READERS).map(|_| tier.reader()).collect();
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            rendezvous,
            reads: Mutex::default(),
            failed: Mutex::default(),
        });
        let spawn = |(r, mut reader): (usize, Box<dyn Reader>)| {
            let (shared, queries) = (Arc::clone(&shared), queries.to_vec());
            std::thread::spawn(move || {
                let mut n = r;
                while !shared.stop.load(SeqCst) {
                    let round = shared.rendezvous.next(r);
                    n = (n + 1) % queries.len();
                    match reader.read(&queries[n]) {
                        Ok(((lo, hi), ids)) => {
                            lock(&shared.reads).entry((lo, hi, n, ids)).or_insert(r);
                            shared.rendezvous.answered(r, round);
                        }
                        Err(e) => {
                            *lock(&shared.failed) = Some(format!("reader {r}: {e}"));
                            break;
                        }
                    }
                }
                // A reader that has gone answers every rendezvous.
                shared.rendezvous.answered(r, u64::MAX);
            })
        };
        let threads = handles?.into_iter().enumerate().map(spawn).collect();
        Some(Readers { shared, threads })
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, SeqCst);
        for thread in self.threads.drain(..) {
            if thread.join().is_err() {
                *lock(&self.shared.failed) = Some("a reader panicked".into());
            }
        }
    }
}

impl Drop for Readers {
    fn drop(&mut self) {
        self.stop();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One way of holding an index and serving it.
trait Tier {
    /// Sends `write` and returns the fate of each of its requests.
    fn write(&mut self, write: &Write) -> Vec<Fate>;
    /// Closes the writes since the last barrier with `barrier`. `catalog`
    /// is the model's.
    fn commit(&mut self, barrier: &Op, catalog: &[Object]) -> Ack;
    /// The answer in ascending order, or `None` if it timed out.
    fn query(&mut self, q: &TimeTravelQuery, expired: bool) -> Option<Vec<u32>>;
    fn drop_bitmaps(&mut self) {}
    /// Holds the published snapshot, which answers like `catalog`, until
    /// the next barrier has committed; says whether it did.
    fn pin(&mut self, _catalog: &[Object]) -> bool {
        false
    }
    /// Installs a one-shot fault at `site`'s next visit.
    fn arm(&mut self, _site: FaultSite, _action: FaultAction) {}
    /// A reader of the published state on a handle of its own.
    fn reader(&mut self) -> Option<Box<dyn Reader>> {
        None
    }
    /// See [`Report::ordering`].
    fn ordering(&self) -> [usize; 2] {
        [0; 2]
    }
    /// The applier's counters, if one applier served the whole script, in
    /// the order of [`Model::counters`].
    fn counters(&mut self) -> Option<[u64; 6]> {
        None
    }
}

/// The epoch store's two-copy publish without the store, as `(master,
/// published, group, ordering)`: a group commits to the master, the copies
/// trade places, and the retired one replays the group. An index is a pure
/// function of its build and the ops since, so the copies never diverge.
struct Direct<I>(I, I, Vec<Write>, [usize; 2]);

/// `apply_ops` on one copy, with a `Batch` through `insert_batch`; returns
/// how many deletes found their object alive.
fn apply<I: TemporalIrIndex>(index: &mut I, group: &[Write]) -> u64 {
    let mut deleted = 0;
    for w in group {
        match w {
            Write::Op(op, _) => deleted += apply_ops(index, std::slice::from_ref(op)),
            Write::Batch(os) => index.insert_batch(os),
        }
    }
    deleted
}

impl<I: Index> Tier for Direct<I> {
    fn write(&mut self, write: &Write) -> Vec<Fate> {
        self.2.push(write.clone());
        vec![Fate::Admitted; write.requests().len()]
    }

    fn commit(&mut self, _: &Op, catalog: &[Object]) -> Ack {
        let group = std::mem::take(&mut self.2);
        let settled = Ack::of(true, None);
        if group.is_empty() {
            return settled;
        }
        let deletes = group.iter().flat_map(Write::requests);
        let want = deletes.filter(|r| r.1 && matches!(r.0, WriteOp::Delete(_)));
        let want = want.count() as u64;
        let first = apply(&mut self.0, &group);
        std::mem::swap(&mut self.0, &mut self.1);
        let second = apply(&mut self.0, &group);
        assert_eq!(
            (first, second),
            (want, want),
            "deletes that found their object"
        );
        for violations in [self.0.validate(), self.1.validate()] {
            assert!(violations.is_empty(), "{violations:?}");
        }
        let grid = oracle_query_grid(catalog, 8, want);
        let diverged = diff_against_oracle(&self.1, catalog, &grid);
        assert!(diverged.is_empty(), "{diverged:?}");
        settled
    }

    /// Counts which way the server's ordering step would take the raw
    /// answer.
    fn query(&mut self, q: &TimeTravelQuery, expired: bool) -> Option<Vec<u32>> {
        let raw = answer(&self.1, q, expired)?;
        if let Some(within) = ordering_path(&raw) {
            self.3[usize::from(!within)] += 1;
        }
        Some(ascending_set(raw))
    }

    fn drop_bitmaps(&mut self) {
        self.0.strip_bitmaps();
        self.1.strip_bitmaps();
    }

    fn ordering(&self) -> [usize; 2] {
        self.3
    }
}

/// Which way the pool's ordering step takes an answer as the index reports
/// it: `None` if it already ascends, else whether its span is within the
/// bitmap pass's rule (`ORDER_SPAN_WORDS_PER_ID`).
fn ordering_path(raw: &[u32]) -> Option<bool> {
    if raw.is_sorted() {
        return None;
    }
    let (lo, hi) = (raw.iter().min()?, raw.iter().max()?);
    let span_words = ((hi - lo) / 64) as usize + 1;
    Some(span_words <= raw.len() * ORDER_SPAN_WORDS_PER_ID)
}

/// The raw answer, unordered, unless an expired deadline stopped the plan
/// (the plan may also end before its first probe; an answer that ends must
/// be whole).
fn answer<I: TemporalIrIndex>(index: &I, q: &TimeTravelQuery, expired: bool) -> Option<Vec<u32>> {
    let (mut scratch, mut got) = (QueryScratch::default(), Vec::new());
    scratch.set_deadline(expired.then(Instant::now));
    index.query_into(q, &mut scratch, &mut got);
    (!scratch.timed_out()).then_some(got)
}

/// A raw answer in order, with no id twice.
fn ascending_set(mut got: Vec<u32>) -> Vec<u32> {
    let n = got.len();
    got.sort_unstable();
    got.dedup();
    assert_eq!(got.len(), n, "duplicate ids");
    got
}

/// The driver's end of the validator hook that parks the applier inside
/// every epoch swap. A group it gates commits as exactly two batches: once
/// its first op is enqueued the applier is parked with that alone, and
/// everything enqueued meanwhile forms the second.
struct Gate {
    parked: Receiver<()>,
    release: SyncSender<()>,
    /// Ops of the group enqueued so far.
    sent: u32,
    /// Whether the applier is parked with the group's first op.
    holding: bool,
    /// An armed fault that, once fired, degrades the store, and a
    /// connection to ask `HEALTH` on: a degraded applier discards every
    /// batch before it reaches the validator.
    watch: Option<(FaultSite, Connection)>,
    /// Readers to let read at each park.
    readers: Option<Arc<Rendezvous>>,
}

/// How long the driver waits on a server or the applier before it calls
/// the run hung; generous, so it never fires on a slow machine.
const HANG: Duration = Duration::from_secs(60);

/// A validator that, if `park`, parks the applier at the gate it returns,
/// then, if `checks`, runs the structural checks whose count `STATS
/// violations` reports.
fn gated<I: Validate>(
    checks: bool,
    park: bool,
    readers: Option<Arc<Rendezvous>>,
) -> (Validator<I>, Option<Gate>) {
    let (entered, parked) = sync_channel(1);
    let (release, released) = sync_channel(1);
    let validator: Validator<I> = Box::new(move |index: &I| {
        // A driver that has gone must not leave the applier parked.
        if park && entered.send(()).is_ok() {
            let _ = released.recv();
        }
        if checks {
            index.validate().len()
        } else {
            0
        }
    });
    let gate = Gate {
        parked,
        release,
        sent: 0,
        holding: false,
        watch: None,
        readers,
    };
    (validator, park.then_some(gate))
}

impl Gate {
    /// One op of the group was enqueued.
    fn enqueued(&mut self) {
        self.sent += 1;
        if self.sent == 1 {
            self.holding = self.parked();
        }
    }

    /// Lets the group's batches through, before its barrier is sent.
    fn release(&mut self) {
        let sent = std::mem::take(&mut self.sent);
        if std::mem::take(&mut self.holding) {
            self.go();
        }
        if sent > 1 && self.parked() {
            self.go();
        }
    }

    /// Waits for the applier to park, then lets the readers read; `false`
    /// if the watched fault has degraded the store, so the batch never
    /// parks.
    fn parked(&mut self) -> bool {
        let deadline = Instant::now() + HANG;
        loop {
            match self.parked.recv_timeout(Duration::from_millis(1)) {
                Ok(()) => break,
                Err(RecvTimeoutError::Timeout) if self.killed() => return false,
                Err(RecvTimeoutError::Timeout) if Instant::now() < deadline => {}
                Err(e) => panic!("the applier parks: {e}"),
            }
        }
        if let Some(readers) = &self.readers {
            readers.sync();
        }
        true
    }

    fn killed(&mut self) -> bool {
        let Some((site, health)) = &mut self.watch else {
            return false;
        };
        let degraded = Ok(Response::Health(HealthStatus::Degraded));
        tir_fault::visits(*site) > 0 && health.call("HEALTH") == degraded
    }

    fn go(&self) {
        self.release.send(()).expect("the applier waits");
    }
}

/// `EpochStore::new`, read through its published snapshot.
struct Store<I> {
    // Dropped first: a parked applier must wake before the store joins it.
    gate: Gate,
    /// A reader's snapshot, and the catalog it was published at.
    pinned: Option<(Arc<Snapshot<I>>, Vec<Object>)>,
    store: Arc<EpochStore<I>>,
}

impl<I: Index> Store<I> {
    fn new(index: I, live: u64, readers: Option<Arc<Rendezvous>>) -> Self {
        // The direct tier validates every state this store reaches.
        let (validator, gate) = gated(false, true, readers);
        let config = EpochConfig {
            validator: Some(validator),
            ..Default::default()
        };
        let store = Arc::new(EpochStore::new(index, live, config));
        let gate = gate.expect("a gate");
        Store {
            gate,
            pinned: None,
            store,
        }
    }
}

/// A reader of the store's published snapshot, at the epoch it carries.
struct StoreReader<I>(Arc<EpochStore<I>>);

impl<I: Index> Reader for StoreReader<I> {
    fn read(&mut self, q: &TimeTravelQuery) -> Result<((u64, u64), Vec<u32>), String> {
        let snap = self.0.snapshot();
        let mut ids = snap.index.query(q);
        ids.sort_unstable();
        Ok(((snap.epoch, snap.epoch), ids))
    }
}

impl<I: Index> Tier for Store<I> {
    /// Unlike the server, the store is sent a delete of a missing id too:
    /// the applier must count it as missed and change nothing.
    fn write(&mut self, write: &Write) -> Vec<Fate> {
        let mut fates = Vec::new();
        for (op, _) in write.requests() {
            self.store.enqueue(op).expect("enqueue");
            self.gate.enqueued();
            fates.push(Fate::Admitted);
        }
        fates
    }

    fn commit(&mut self, barrier: &Op, _: &[Object]) -> Ack {
        self.gate.release();
        let store = &self.store;
        let acked = match barrier {
            Op::Snapshot => store.force_snapshot(),
            _ => store.flush(),
        };
        let (acked, snap) = (acked.expect("barrier"), store.snapshot());
        assert_eq!(snap.epoch, acked, "a barrier acks the published epoch");
        // The ack goes out after the applier tried to reclaim each copy it
        // retired, so the pin can go now.
        if let Some((pinned, catalog)) = self.pinned.take() {
            let grid = oracle_query_grid(&catalog, 8, pinned.epoch);
            let diverged = diff_against_oracle(&pinned.index, &catalog, &grid);
            let live = catalog.len() as u64;
            assert!(
                pinned.live == live && diverged.is_empty(),
                "the pinned copy: {diverged:?}"
            );
        }
        Ack::of(true, Some((acked, snap.live)))
    }

    fn query(&mut self, q: &TimeTravelQuery, expired: bool) -> Option<Vec<u32>> {
        answer(&self.store.snapshot().index, q, expired).map(ascending_set)
    }

    fn pin(&mut self, catalog: &[Object]) -> bool {
        self.pinned = Some((self.store.snapshot(), catalog.to_vec()));
        true
    }

    fn reader(&mut self) -> Option<Box<dyn Reader>> {
        Some(Box::new(StoreReader(Arc::clone(&self.store))))
    }

    /// The counters `STATS` reports, read off the store.
    fn counters(&mut self) -> Option<[u64; 6]> {
        // The last ack goes out before the applier catches its retired copy
        // up; an empty flush queues behind that step.
        self.store.flush().expect("flush");
        let s = self.store.stats();
        let (i, d, m) = (&s.inserts, &s.deletes, &s.missed_deletes);
        let c = [i, d, m, &s.publish_reused, &s.publish_cloned, &s.max_batch];
        Some(c.map(|c| c.load(SeqCst)))
    }
}

/// What a gate must watch on `server` for the `armed` fault: one yet to
/// fire that degrades the store (a failed `terms.log` append refuses one
/// `INSERT`).
fn watch(
    armed: Option<(FaultSite, FaultAction)>,
    server: &ServerHandle,
) -> Option<(FaultSite, Connection)> {
    let site = armed?.0;
    let degrades = site != FaultSite::TermLogAppend;
    (degrades && tir_fault::visits(site) == 0).then(|| {
        let health = Connection::open_with_timeout(&server.addr().to_string(), Some(HANG));
        (site, health.expect("a connection"))
    })
}

fn ascending(ids: Vec<u32>) -> Vec<u32> {
    let ascending = ids.windows(2).all(|w| w[0] < w[1]);
    assert!(ascending, "not strictly ascending: {ids:?}");
    ids
}

const DURABILITY: DurabilityOptions = DurabilityOptions {
    segment_bytes: 4 << 10,
    snapshot_every: 3, // some batches reach a snapshot, some only the WAL
};

/// A server over TCP; a durable one keeps one data directory per restart
/// under `root`.
struct Served<I> {
    tier: TierKind,
    method: Method,
    root: PathBuf,
    restarts: u32,
    /// Armed once the first server says it is healthy; the applier then
    /// runs ungated and the connection may drop.
    plan: Option<SeededPlan>,
    /// The fault an [`Op::Arm`] installed; the applier stays gated.
    armed: Option<(FaultSite, FaultAction)>,
    /// Whether the server has answered `DEGRADED` since it started.
    degraded: bool,
    /// The epoch the server started at.
    since: u64,
    readers: Option<Arc<Rendezvous>>,
    live: Option<(Option<Gate>, Connection, ServerHandle)>,
    index: PhantomData<I>,
}

impl<I: Index> Served<I> {
    fn open(
        tier: TierKind,
        method: Method,
        coll: &Collection,
        index: I,
        plan: Option<SeededPlan>,
        readers: Option<Arc<Rendezvous>>,
    ) -> Self {
        static DIRS: AtomicU64 = AtomicU64::new(0);
        let (pid, n) = (std::process::id(), DIRS.fetch_add(1, SeqCst));
        let root = std::env::temp_dir().join(format!("tir-differential-{pid}-{n}"));
        let mut served = Served {
            tier,
            method,
            root,
            restarts: 0,
            plan,
            armed: None,
            degraded: false,
            since: 0,
            readers,
            live: None,
            index: PhantomData,
        };
        let mut dict = Dictionary::new();
        for e in 0..coll.dict_size() {
            dict.intern(&format!("e{e}"));
        }
        let catalog = coll.objects();
        if tier == TierKind::Wire {
            served.start(|config, v| spawn_server(index, catalog.to_vec(), dict, config, Some(v)));
        } else {
            let _ = std::fs::remove_dir_all(&served.root);
            let durability = Durability::create(&served.dir(), &index, &dict, catalog, DURABILITY);
            served.start_durable(index, dict, durability.expect("a data directory"));
        }
        if let Some(plan) = plan {
            // Boot I/O is clean: the plan is armed on a healthy server.
            let health = served.ask("HEALTH");
            assert_eq!(
                health,
                Response::Health(HealthStatus::Ok),
                "HEALTH before faults"
            );
            tir_fault::install(Arc::new(plan));
        }
        served
    }

    fn dir(&self) -> PathBuf {
        self.root.join(self.restarts.to_string())
    }

    fn start(
        &mut self,
        spawn: impl FnOnce(ServerConfig, Validator<I>) -> std::io::Result<ServerHandle>,
    ) {
        // A durable server, and one that readers race, reach the states of
        // the in-memory one the same script runs without readers; a
        // recovered index is rebuilt, so its states are new.
        let checks = self.tier != TierKind::Durable && self.readers.is_none();
        let (validator, mut gate) = gated(checks, self.plan.is_none(), self.readers.clone());
        let config = ServerConfig {
            method: self.method.to_string(),
            ..Default::default()
        };
        let server = spawn(config, validator).expect("a server");
        if let Some(gate) = &mut gate {
            gate.watch = watch(self.armed, &server);
        }
        let client = Connection::open_with_timeout(&server.addr().to_string(), Some(HANG));
        self.live = Some((gate, client.expect("a connection"), server));
        self.degraded = false;
    }

    fn start_durable(&mut self, index: I, dict: Dictionary, durability: Durability) {
        let dict = ServeDict::durable(dict, TermLog::open(&self.dir()).expect("terms.log"));
        self.start(|config, v| spawn_server_durable(index, dict, durability, config, Some(v)));
    }

    /// Whether a fault may refuse a request.
    fn faulty(&self) -> bool {
        self.plan.is_some() || self.armed.is_some()
    }

    /// One round trip. Under a fault plan a dropped connection is opened
    /// again and answers `None`; a reply slower than [`HANG`] is a hang.
    fn call(&mut self, request: &str) -> Option<Response> {
        let (_, client, server) = self.live.as_mut().expect("a server");
        let sent = Instant::now();
        match client.call(request) {
            Ok(response) => Some(response),
            Err(e) if self.plan.is_none() || sent.elapsed() >= HANG => panic!("{request}: {e}"),
            Err(_) => {
                let addr = server.addr().to_string();
                for _ in 0..50 {
                    if let Ok(fresh) = Connection::open_with_timeout(&addr, Some(HANG)) {
                        *client = fresh;
                        return None;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                panic!("{request}: no connection after a drop");
            }
        }
    }

    /// A request that changes nothing, sent again until it is answered.
    fn ask(&mut self, request: &str) -> Response {
        loop {
            if let Some(response) = self.call(request) {
                return response;
            }
        }
    }

    fn stats<const N: usize>(&mut self, keys: [&str; N]) -> [u64; N] {
        let Response::Stats(pairs) = self.ask("STATS") else {
            panic!("STATS");
        };
        stats(&pairs, keys).unwrap_or_else(|k| panic!("STATS {k}"))
    }

    /// What became of a write the model expects to answer `want`.
    fn fate(&mut self, request: &str, want: Response) -> Fate {
        let fate = match self.call(request) {
            None => Fate::Hidden,
            Some(Response::Ok) if self.degraded => panic!("{request}: a degraded server took it"),
            Some(response) if response == want => Fate::Admitted,
            Some(Response::Degraded) => {
                self.degrade();
                Fate::Refused
            }
            Some(Response::Overloaded) => Fate::Refused,
            Some(Response::Err(msg)) if tir_fault::message_is_injected(&msg) => Fate::Refused,
            // A degraded server's admission catalog still holds the ids
            // its discarded inserts named, and says so before it says it
            // is degraded.
            Some(Response::Err(msg)) if self.degraded && msg.ends_with("already live") => {
                Fate::Refused
            }
            Some(other) => panic!("{request}: {other:?}, not {want:?}"),
        };
        assert!(
            self.faulty() || fate == Fate::Admitted,
            "{request}: {fate:?}"
        );
        fate
    }

    /// Once the server answers `DEGRADED`, `HEALTH` says so, and it refuses
    /// every write and barrier until it restarts.
    fn degrade(&mut self) {
        if !std::mem::replace(&mut self.degraded, true) {
            let health = self.ask("HEALTH");
            assert_eq!(
                health,
                Response::Health(HealthStatus::Degraded),
                "HEALTH after DEGRADED"
            );
        }
    }

    /// A barrier, sent again if the connection drops: acked, with the
    /// `(epoch, live)` it acked, where `STATS` must show that epoch and no
    /// violations. A gated server that answers `DEGRADED` reports the
    /// `(epoch, live)` it still serves, and the writes it discarded.
    fn barrier(&mut self, request: &str) -> Ack {
        match self.ask(request) {
            Response::Degraded if self.faulty() => {
                self.degrade();
                let [epoch, live, discarded] = self.stats(["epoch", "live", "degraded_writes"]);
                let epoch = self.plan.is_none().then_some((epoch, live));
                Ack {
                    discarded,
                    ..Ack::of(false, epoch)
                }
            }
            Response::Epoch(acked) if !self.degraded => {
                let [epoch, live, violations] = self.stats(["epoch", "live", "violations"]);
                assert_eq!((acked, violations), (epoch, 0), "{request}");
                Ack::of(true, Some((epoch, live)))
            }
            other => panic!("{request}: {other:?}"),
        }
    }

    /// After the flush, whatever it answers, nothing is in flight, so a
    /// copy of the live directory is what `kill -9` would leave. Recovery
    /// opens the snapshot the server last completed (or, if an armed fault
    /// stopped it before it pruned the WAL, the one it had just renamed
    /// into place), ignores the temporary file a failed rename leaves, and
    /// truncates the torn tail a short write leaves. The recovered catalog
    /// goes back to the model, which names an element `e{n}` for its id
    /// `n`.
    fn kill_recover(&mut self) -> Ack {
        let acked = self.barrier("FLUSH");
        let keys = [
            "epoch",
            "snapshot_epoch",
            "publish_reused",
            "publish_cloned",
        ];
        let [published, snapshot, reused, cloned] = self.stats(keys);
        // No reader pins a copy here, and gated, the flush queued behind
        // each catch-up: every epoch's retired copy was reclaimed, and a
        // batch a fault killed took none.
        let masters = (reused, cloned);
        let want = (published - self.since, 0);
        assert!(
            self.plan.is_some() || masters == want,
            "masters reused, cloned {masters:?}"
        );
        // What the armed fault left, if it degraded this server.
        let fault = self.armed.filter(|_| self.degraded);
        let from = self.dir();
        self.restarts += 1;
        let to = self.dir();
        std::fs::create_dir_all(&to).expect("a directory");
        for entry in std::fs::read_dir(&from).expect("the live directory") {
            let path = entry.expect("a file").path();
            std::fs::copy(&path, to.join(path.file_name().expect("a name"))).expect("a copy");
        }
        if let Some((FaultSite::SnapshotRename, _)) = fault {
            assert!(
                to.join("snapshot.tir.tmp").is_file(),
                "no temporary snapshot left"
            );
        }
        let r: Recovered<I> = Durability::recover(&to, DURABILITY).expect("recovery");
        let torn = fault == Some((FaultSite::WalAppend, FaultAction::ShortWrite));
        assert!(
            r.truncated_tail || !torn,
            "the torn WAL tail was not truncated"
        );
        let pruning = matches!(fault, Some((FaultSite::WalPrune, _)));
        let opened = if pruning { published } else { snapshot };
        assert_eq!(
            r.durability.snapshot_epoch(),
            opened,
            "the snapshot recovery opened"
        );
        let catalog = r.durability.catalog_sorted();
        let violations = r.index.validate();
        let diverged = diff_against_oracle(&r.index, &catalog, &oracle_query_grid(&catalog, 24, 0));
        let clean = violations.is_empty() && diverged.is_empty();
        assert!(clean, "{violations:?} {diverged:?}");
        let name = |e: u32| -> Option<u32> { r.dict.term(e)?.strip_prefix('e')?.parse().ok() };
        let element = |e: u32| name(e).unwrap_or_else(|| panic!("element {e}"));
        let recovered: Vec<Object> = catalog
            .iter()
            .map(|o| {
                let desc = o.desc.iter().map(|&e| element(e)).collect();
                Object::new(o.id, o.interval.st, o.interval.end, desc)
            })
            .collect();
        let want = [r.epoch, recovered.len() as u64];
        self.stop(false);
        self.start_durable(r.index, r.dict, r.durability);
        assert_eq!(self.stats(["epoch", "live"]), want, "the restarted server");
        self.since = want[0];
        Ack {
            recovered: Some((want[0], recovered)),
            ..acked
        }
    }
}

/// The values of `keys` in a `STATS` reply, or the first key missing.
fn stats<'k, const N: usize>(
    pairs: &[(String, String)],
    keys: [&'k str; N],
) -> Result<[u64; N], &'k str> {
    let stat = |k| pairs.iter().find(|p| p.0 == k)?.1.parse().ok();
    let mut values = [0; N];
    for (value, k) in values.iter_mut().zip(keys) {
        *value = stat(k).ok_or(k)?;
    }
    Ok(values)
}

/// A reader on its own connection: the `STATS` epochs before and after a
/// `QUERY` bound the epoch that answered it.
struct WireReader(Connection);

impl WireReader {
    fn epoch(&mut self) -> Result<u64, String> {
        match self.0.call("STATS")? {
            Response::Stats(pairs) => Ok(stats(&pairs, ["epoch"])?[0]),
            other => Err(format!("STATS: {other:?}")),
        }
    }
}

impl Reader for WireReader {
    /// The reply as it came, never sorted.
    fn read(&mut self, q: &TimeTravelQuery) -> Result<((u64, u64), Vec<u32>), String> {
        let before = self.epoch()?;
        let request = query(q, false);
        loop {
            match self.0.call(&request)? {
                Response::Hits(ids) => return Ok(((before, self.epoch()?), ids)),
                // The pool's back pressure: ask again.
                Response::Overloaded => {}
                other => return Err(format!("{request}: {other:?}")),
            }
        }
    }
}

impl<I: Index> Tier for Served<I> {
    fn write(&mut self, write: &Write) -> Vec<Fate> {
        let mut fates = Vec::new();
        for (op, ok) in write.requests() {
            let (request, want) = match op {
                WriteOp::Insert(o) => {
                    let (id, st, end) = (o.id, o.interval.st, o.interval.end);
                    let request = format!("INSERT {id} {st} {end} {}", terms(&o.desc));
                    (request, Response::Ok)
                }
                WriteOp::Delete(o) if ok => (format!("DELETE {}", o.id), Response::Ok),
                WriteOp::Delete(o) => (format!("DELETE {}", o.id), Response::Missing),
            };
            let fate = self.fate(&request, want);
            // An admitted insert or delete of a live id is enqueued.
            if let (Some((Some(gate), ..)), true) = (&mut self.live, ok && fate == Fate::Admitted) {
                gate.enqueued();
            }
            fates.push(fate);
        }
        fates
    }

    fn commit(&mut self, barrier: &Op, _: &[Object]) -> Ack {
        if let Some((Some(gate), ..)) = &mut self.live {
            gate.release();
        }
        match barrier {
            Op::KillRecover if self.tier == TierKind::Recovered => self.kill_recover(),
            Op::Snapshot => self.barrier("SNAPSHOT"),
            _ => self.barrier("FLUSH"),
        }
    }

    /// Replies are checked as they come, never sorted first.
    fn query(&mut self, q: &TimeTravelQuery, expired: bool) -> Option<Vec<u32>> {
        let request = query(q, expired);
        match self.ask(&request) {
            Response::Timeout if expired => None,
            Response::Hits(ids) if !expired => Some(ascending(ids)),
            other => panic!("{request}: {other:?}"),
        }
    }

    fn arm(&mut self, site: FaultSite, action: FaultAction) {
        tir_fault::install(Arc::new(OneShot {
            site,
            visit: 0,
            action,
        }));
        self.armed = Some((site, action));
        if let Some((Some(gate), _, server)) = &mut self.live {
            gate.watch = watch(self.armed, server);
        }
    }

    fn reader(&mut self) -> Option<Box<dyn Reader>> {
        let addr = self.live.as_ref()?.2.addr().to_string();
        let client = Connection::open_with_timeout(&addr, Some(HANG));
        Some(Box::new(WireReader(client.expect("a connection"))))
    }

    fn counters(&mut self) -> Option<[u64; 6]> {
        self.barrier("FLUSH");
        let keys = [
            "inserts",
            "deletes",
            "missed_deletes",
            "publish_reused",
            "publish_cloned",
            "max_batch",
        ];
        (self.tier != TierKind::Recovered).then(|| self.stats(keys))
    }
}

impl<I> Served<I> {
    /// Lets a parked applier go, hangs up, and stops the server. The last
    /// server snapshots first, with any fault gone, so that no shutdown
    /// snapshot of a store dropped late lands after the directory is
    /// removed.
    fn stop(&mut self, last: bool) {
        if let Some((gate, mut client, server)) = self.live.take() {
            drop(gate);
            if last {
                if self.plan.is_some() || self.armed.is_some() {
                    tir_fault::clear();
                }
                let _ = client.call("SNAPSHOT");
            }
            drop(client);
            server.stop();
        }
    }
}

impl<I> Drop for Served<I> {
    fn drop(&mut self) {
        self.stop(true);
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The `QUERY` request for `q`, with a deadline already spent if `expired`.
fn query(q: &TimeTravelQuery, expired: bool) -> String {
    let (st, end, terms) = (q.interval.st, q.interval.end, terms(&q.elems));
    let deadline = if expired { " DEADLINE 0" } else { "" };
    format!("QUERY {st} {end} {terms}{deadline}")
}

fn terms(elems: &[u32]) -> String {
    let names: Vec<String> = elems.iter().map(|e| format!("e{e}")).collect();
    names.join(",")
}
