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
//! Under a fault plan a served tier runs ungated, and a write's [`Fate`]
//! can be hidden. Its id is then doubtful: the script's later ops on it are
//! not sent, an answer must hold every certain match and nothing that could
//! not match, and the next kill-recover settles it.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::panic::{catch_unwind, set_hook, take_hook, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tir_check::{diff_against_oracle, oracle_query_grid, Validate};
use tir_core::prelude::*;
use tir_core::{with_method, DivisionStore, IrHint, PerTerm, TermPartition};
use tir_fault::SeededPlan;
use tir_invidx::{Dictionary, QueryScratch};
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

/// Runs `script` through every method on `tier`, and returns the applier's
/// counters of each method whose tier reports them.
pub fn check(
    label: &str,
    coll: &Collection,
    script: &[Op],
    tier: TierKind,
) -> Vec<(Method, [u64; 6])> {
    let counters = |m| check_method(label, coll, script, tier, m, None).map(|c| (m, c));
    Method::ALL.into_iter().filter_map(counters).collect()
}

/// Runs `script` through `method` on `tier`, under `plan` if there is one.
/// A failure is shrunk; the panic names the script (`label`), method and
/// tier, and the ops of the script that still fail.
pub fn check_method(
    label: &str,
    coll: &Collection,
    script: &[Op],
    tier: TierKind,
    method: Method,
    plan: Option<SeededPlan>,
) -> Option<[u64; 6]> {
    let ops = |keep: &[usize]| -> Vec<Op> { keep.iter().map(|&i| script[i].clone()).collect() };
    let first = match replay(coll, method, tier, script, plan) {
        Ok(counters) => return counters,
        Err(first) => first,
    };
    let fails = |keep: &[usize]| replay(coll, method, tier, &ops(keep), plan).is_err();
    let keep = shrink((0..script.len()).collect(), fails);
    let last =
        replay(coll, method, tier, &ops(&keep), plan).map_or_else(|e| e, |_| "a pass".into());
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
    plan: Option<SeededPlan>,
) -> Result<Option<[u64; 6]>, String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let print = take_hook();
        set_hook(Box::new(move |p| match CAUGHT.take() {
            Some(_) => CAUGHT.set(Some(p.to_string())),
            None => print(p),
        }));
    });
    let open = || with_method!(method, |I, b| open::<I>(b(coll), tier, method, coll, plan));
    let at = Cell::new(0);
    CAUGHT.set(Some(String::new()));
    let ran = catch_unwind(AssertUnwindSafe(|| {
        drive(open(), tier, coll, ops, &at, plan.is_none())
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
    /// The `(epoch, live)` acked, if the tier has epochs; after a restart,
    /// the restarted server's.
    epoch: Option<(u64, u64)>,
    /// After a kill-recover, the recovered catalog.
    recovered: Option<Vec<Object>>,
}

impl Ack {
    fn of(epoch: Option<(u64, u64)>) -> Ack {
        let settled = epoch.is_some();
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
        Model {
            live: coll.objects().iter().map(|o| (o.id, o.clone())).collect(),
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
    fn barrier(&mut self, tier: &mut dyn Tier, barrier: &Op) {
        let (mut sent, mut inserts, mut missed) = (0, 0, 0);
        for (op, ok) in self.group.drain(..) {
            let sends = ok || self.sends_missing;
            sent += u64::from(sends);
            inserts += u64::from(sends && matches!(op, WriteOp::Insert(_)));
            missed += u64::from(sends && !ok);
        }
        self.count(sent, inserts, missed);
        let catalog: Vec<Object> = self.live.values().cloned().collect();
        let mut ack = tier.commit(barrier, &catalog);
        let exact = ack.settled && self.doubt.is_empty();
        let unacked = std::mem::take(&mut self.unacked);
        if !ack.settled {
            for (id, states) in unacked {
                self.doubt(id, states);
            }
        }
        if let Some(recovered) = ack.recovered.take() {
            self.recover(recovered);
        }
        if let Some((epoch, live)) = ack.epoch {
            let (least, most) = if self.gated {
                (sent.min(2), sent.min(2))
            } else {
                (sent.min(1), sent)
            };
            let grew = exact.then(|| epoch.wrapping_sub(self.epoch));
            assert!(
                grew.is_none_or(|n| (least..=most).contains(&n)),
                "epoch {epoch} after {} at {sent} writes",
                self.epoch
            );
            let want = self.doubt.is_empty().then_some(self.live.len() as u64);
            assert!(want.is_none_or(|n| n == live), "live {live}, not {want:?}");
            self.epoch = epoch;
        }
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

    /// Settles doubt by the catalog a recovery found: it holds every certain
    /// object, each doubtful id in one of its possible states, and nothing
    /// that was never acked. The model is exact again.
    fn recover(&mut self, recovered: Vec<Object>) {
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
) -> Box<dyn Tier> {
    match tier {
        TierKind::Direct => Box::new(Direct(index.clone(), index, Vec::new())),
        TierKind::Store => Box::new(Store::new(index, coll.len() as u64)),
        _ => Box::new(Served::<I>::open(tier, method, coll, index, plan)),
    }
}

/// Runs `ops` through `tier` against the model: every answer, every
/// barrier and, at the end, the applier's counters, which it returns. `at`
/// tracks the op.
fn drive(
    mut tier: Box<dyn Tier>,
    kind: TierKind,
    coll: &Collection,
    ops: &[Op],
    at: &Cell<usize>,
    gated: bool,
) -> Option<[u64; 6]> {
    let (mut model, tier) = (Model::new(coll), tier.as_mut());
    (model.gated, model.sends_missing) = (gated, kind == TierKind::Store);
    for (i, op) in ops.iter().enumerate() {
        at.set(i);
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
            Op::Query(q) => model.check(q, &tier.query(q, false).expect("an answer")),
            Op::Expired(q) => {
                if let Some(got) = tier.query(q, true) {
                    model.check(q, &got);
                }
            }
        }
    }
    at.set(ops.len());
    model.barrier(tier, &Op::Flush);
    let counters = tier.counters()?;
    let names = "[inserts, deletes, missed_deletes, publish_reused, publish_cloned, max_batch]";
    assert_eq!(counters, model.counters, "{names}");
    Some(counters)
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
    /// The applier's counters, if one applier served the whole script, in
    /// the order of [`Model::counters`].
    fn counters(&mut self) -> Option<[u64; 6]> {
        None
    }
}

/// The epoch store's two-copy publish without the store, as `(master,
/// published, group)`: a group commits to the master, the copies trade
/// places, and the retired one replays the group. An index is a pure
/// function of its build and the ops since, so the copies never diverge.
struct Direct<I>(I, I, Vec<Write>);

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
        let settled = Ack {
            settled: true,
            ..Ack::default()
        };
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

    fn query(&mut self, q: &TimeTravelQuery, expired: bool) -> Option<Vec<u32>> {
        answer(&self.1, q, expired)
    }

    fn drop_bitmaps(&mut self) {
        self.0.strip_bitmaps();
        self.1.strip_bitmaps();
    }
}

/// An expired deadline may stop the plan, or the plan may end before its
/// first probe; an answer that ends must be whole.
fn answer<I: TemporalIrIndex>(index: &I, q: &TimeTravelQuery, expired: bool) -> Option<Vec<u32>> {
    let (mut scratch, mut got) = (QueryScratch::default(), Vec::new());
    scratch.set_deadline(expired.then(Instant::now));
    index.query_into(q, &mut scratch, &mut got);
    if scratch.timed_out() {
        return None;
    }
    let n = got.len();
    got.sort_unstable();
    got.dedup();
    assert_eq!(got.len(), n, "duplicate ids");
    Some(got)
}

/// The driver's end of the validator hook that parks the applier inside
/// every epoch swap: `(parked, release, sent)`. A group it gates commits
/// as exactly two batches: once its first op is enqueued the applier is
/// parked with that alone, and everything enqueued meanwhile forms the
/// second.
struct Gate(Receiver<()>, SyncSender<()>, u32);

/// How long the driver waits on a server or the applier before it calls
/// the run hung; generous, so it never fires on a slow machine.
const HANG: Duration = Duration::from_secs(60);

/// A validator that, if `park`, parks the applier at the gate it returns,
/// then, if `checks`, runs the structural checks whose count `STATS
/// violations` reports.
fn gated<I: Validate>(checks: bool, park: bool) -> (Validator<I>, Option<Gate>) {
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
    (validator, park.then(|| Gate(parked, release, 0)))
}

impl Gate {
    /// One op of the group was enqueued.
    fn enqueued(&mut self) {
        self.2 += 1;
        if self.2 == 1 {
            self.parked();
        }
    }

    /// Lets the group's batches through, before its barrier is sent.
    fn release(&mut self) {
        let sent = std::mem::take(&mut self.2);
        if sent > 0 {
            self.go();
        }
        if sent > 1 {
            self.parked();
            self.go();
        }
    }

    fn parked(&self) {
        self.0.recv_timeout(HANG).expect("the applier parks");
    }

    fn go(&self) {
        self.1.send(()).expect("the applier waits");
    }
}

/// `EpochStore::new`, read through its published snapshot.
struct Store<I> {
    // Dropped first: a parked applier must wake before the store joins it.
    gate: Gate,
    /// A reader's snapshot, and the catalog it was published at.
    pinned: Option<(Arc<Snapshot<I>>, Vec<Object>)>,
    store: EpochStore<I>,
}

impl<I: Index> Store<I> {
    fn new(index: I, live: u64) -> Self {
        // The direct tier validates every state this store reaches.
        let (validator, gate) = gated(false, true);
        let config = EpochConfig {
            validator: Some(validator),
            ..Default::default()
        };
        let store = EpochStore::new(index, live, config);
        let gate = gate.expect("a gate");
        Store {
            gate,
            pinned: None,
            store,
        }
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
        Ack::of(Some((acked, snap.live)))
    }

    fn query(&mut self, q: &TimeTravelQuery, expired: bool) -> Option<Vec<u32>> {
        answer(&self.store.snapshot().index, q, expired)
    }

    fn pin(&mut self, catalog: &[Object]) -> bool {
        self.pinned = Some((self.store.snapshot(), catalog.to_vec()));
        true
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
    /// Whether the server has answered `DEGRADED` since it started.
    degraded: bool,
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
            degraded: false,
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
        // A durable server reaches the in-memory one's states; a recovered
        // index is rebuilt, so its states are new.
        let (validator, gate) = gated(self.tier != TierKind::Durable, self.plan.is_none());
        let config = ServerConfig {
            method: self.method.to_string(),
            ..Default::default()
        };
        let server = spawn(config, validator).expect("a server");
        let client = Connection::open_with_timeout(&server.addr().to_string(), Some(HANG));
        self.live = Some((gate, client.expect("a connection"), server));
        self.degraded = false;
    }

    fn start_durable(&mut self, index: I, dict: Dictionary, durability: Durability) {
        let dict = ServeDict::durable(dict, TermLog::open(&self.dir()).expect("terms.log"));
        self.start(|config, v| spawn_server_durable(index, dict, durability, config, Some(v)));
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
        let stat = |k| pairs.iter().find(|p| p.0 == k)?.1.parse().ok();
        keys.map(|k| stat(k).expect(k))
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
            Some(other) => panic!("{request}: {other:?}, not {want:?}"),
        };
        assert!(
            self.plan.is_some() || fate == Fate::Admitted,
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

    /// A barrier, sent again if the connection drops: `None` if it answers
    /// `DEGRADED`, else the `(epoch, live)` it acked, where `STATS` must
    /// show that epoch and no violations.
    fn barrier(&mut self, request: &str) -> Option<(u64, u64)> {
        match self.ask(request) {
            Response::Degraded if self.plan.is_some() => {
                self.degrade();
                None
            }
            Response::Epoch(acked) if !self.degraded => {
                let [epoch, live, violations] = self.stats(["epoch", "live", "violations"]);
                assert_eq!((acked, violations), (epoch, 0), "{request}");
                Some((epoch, live))
            }
            other => panic!("{request}: {other:?}"),
        }
    }

    /// After the flush, whatever it answers, nothing is in flight, so a
    /// copy of the live directory is what `kill -9` would leave. The
    /// recovered catalog goes back to the model, which names an element
    /// `e{n}` for its id `n`.
    fn kill_recover(&mut self) -> Ack {
        let acked = self.barrier("FLUSH");
        let from = self.dir();
        self.restarts += 1;
        let to = self.dir();
        std::fs::create_dir_all(&to).expect("a directory");
        for entry in std::fs::read_dir(&from).expect("the live directory") {
            let path = entry.expect("a file").path();
            std::fs::copy(&path, to.join(path.file_name().expect("a name"))).expect("a copy");
        }
        let r: Recovered<I> = Durability::recover(&to, DURABILITY).expect("recovery");
        let catalog = r.durability.catalog_sorted();
        let violations = r.index.validate();
        let diverged = diff_against_oracle(&r.index, &catalog, &oracle_query_grid(&catalog, 24, 0));
        let clean = violations.is_empty() && diverged.is_empty();
        assert!(clean, "{violations:?} {diverged:?}");
        let name = |e: u32| -> Option<u32> { r.dict.term(e)?.strip_prefix('e')?.parse().ok() };
        let element = |e: u32| name(e).unwrap_or_else(|| panic!("element {e}"));
        let recovered = catalog.iter().map(|o| {
            let desc = o.desc.iter().map(|&e| element(e)).collect();
            Object::new(o.id, o.interval.st, o.interval.end, desc)
        });
        let recovered = Some(recovered.collect());
        self.stop(false);
        self.start_durable(r.index, r.dict, r.durability);
        let [epoch, live] = self.stats(["epoch", "live"]);
        let epoch = Some((epoch, live));
        Ack {
            settled: acked.is_some(),
            epoch,
            recovered,
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
            fates.push(self.fate(&request, want));
            // A gate means no fault plan, so the write was admitted: an
            // insert or a delete of a live id is enqueued.
            if let (Some((Some(gate), ..)), true) = (&mut self.live, ok) {
                gate.enqueued();
            }
        }
        fates
    }

    fn commit(&mut self, barrier: &Op, _: &[Object]) -> Ack {
        if let Some((Some(gate), ..)) = &mut self.live {
            gate.release();
        }
        match barrier {
            Op::KillRecover if self.tier == TierKind::Recovered => self.kill_recover(),
            Op::Snapshot => Ack::of(self.barrier("SNAPSHOT")),
            _ => Ack::of(self.barrier("FLUSH")),
        }
    }

    /// Replies are checked as they come, never sorted first.
    fn query(&mut self, q: &TimeTravelQuery, expired: bool) -> Option<Vec<u32>> {
        let (st, end, terms) = (q.interval.st, q.interval.end, terms(&q.elems));
        let deadline = if expired { " DEADLINE 0" } else { "" };
        let request = format!("QUERY {st} {end} {terms}{deadline}");
        match self.ask(&request) {
            Response::Timeout if expired => None,
            Response::Hits(ids) if !expired => Some(ascending(ids)),
            other => panic!("{request}: {other:?}"),
        }
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
    /// server snapshots first, with the fault plan gone, so that no
    /// shutdown snapshot of a store dropped late lands after the directory
    /// is removed.
    fn stop(&mut self, last: bool) {
        if let Some((gate, mut client, server)) = self.live.take() {
            drop(gate);
            if last {
                if self.plan.is_some() {
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

fn terms(elems: &[u32]) -> String {
    let names: Vec<String> = elems.iter().map(|e| format!("e{e}")).collect();
    names.join(",")
}
