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

use std::cell::Cell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::panic::{catch_unwind, set_hook, take_hook, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Once;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tir_check::{diff_against_oracle, oracle_query_grid, Validate};
use tir_core::prelude::*;
use tir_core::{with_method, DivisionStore, IrHint, PerTerm, TermPartition};
use tir_invidx::{Dictionary, QueryScratch};
use tir_persist::{Durability, DurabilityOptions, Recovered, TermLog};
use tir_serve::epoch::Validator;
use tir_serve::protocol::Response;
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

/// Runs `script` through every method on `tier`. A failure is shrunk; the
/// panic names the script (`label`), method and tier, and the ops of the
/// script that still fail.
pub fn check(label: &str, coll: &Collection, script: &[Op], tier: TierKind) {
    let ops = |keep: &[usize]| -> Vec<Op> { keep.iter().map(|&i| script[i].clone()).collect() };
    for method in Method::ALL {
        let Err(first) = replay(coll, method, tier, script) else {
            continue;
        };
        let fails = |keep: &[usize]| replay(coll, method, tier, &ops(keep)).is_err();
        let keep = shrink((0..script.len()).collect(), fails);
        let last = replay(coll, method, tier, &ops(&keep)).unwrap_err();
        let listed: String = ops(&keep)
            .iter()
            .map(|op| format!("\n    {op:?}"))
            .collect();
        panic!(
            "{label}, {method}, {tier:?}: {first}\n\
             shrunk to ops {keep:?} of the script, which fail at {last}{listed}"
        );
    }
}

thread_local!(static CAUGHT: Cell<Option<String>> = const { Cell::new(None) });

/// One script through one method on one tier. A failed check panics; the
/// panic is caught here, unprinted, and returned with the op it failed at.
pub fn replay(coll: &Collection, method: Method, tier: TierKind, ops: &[Op]) -> Result<(), String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let print = take_hook();
        set_hook(Box::new(move |p| match CAUGHT.take() {
            Some(_) => CAUGHT.set(Some(p.to_string())),
            None => print(p),
        }));
    });
    let open = || with_method!(method, |I, b| open::<I>(b(coll), tier, method, coll));
    let at = Cell::new(0);
    CAUGHT.set(Some(String::new()));
    let ran = catch_unwind(AssertUnwindSafe(|| drive(open(), tier, coll, ops, &at)));
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
                    model.resolve(&Op::Delete(last_deleted));
                    Op::Insert(model.revive(&mut rng, last_deleted))
                } else {
                    Op::Delete(last_deleted)
                }
            }
            (34..=57, _) if rng.gen_bool(0.5) => Op::Delete(last_deleted),
            (34..=57, _) => Op::Delete(fresh + rng.gen_range(1..1_000)),
            (58..=63, _) => {
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
        model.resolve(&op);
        script.push(op);
    }
    script.truncate(len);
    script
}

/// A write as the model resolved it: one store-level op, flagged whether
/// the server admits it (a delete of a missing id answers `MISSING` and is
/// never enqueued), or a batch.
enum Write {
    Op(WriteOp, bool),
    Batch(Vec<Object>),
}

/// A group's store-level ops, each flagged admitted or not.
fn requests(group: &[Write]) -> Vec<(WriteOp, bool)> {
    let mut out = Vec::new();
    for w in group {
        match w {
            Write::Op(op, admitted) => out.push((op.clone(), *admitted)),
            Write::Batch(os) => out.extend(os.iter().map(|o| (WriteOp::Insert(o.clone()), true))),
        }
    }
    out
}

/// The one model: the live catalog and the dead ids, and what the applier
/// must have done to reach them.
#[derive(Default)]
struct Model {
    live: BTreeMap<u32, Object>,
    /// Each dead id's last object.
    dead: BTreeMap<u32, Object>,
    oracle: BruteForce,
    domain: (u64, u64),
    dict: u32,
    epoch: u64,
    /// Whether the tier enqueues a delete of a missing id, as only the
    /// store tier does: the server answers `MISSING` instead.
    sends_missing: bool,
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
            dict: coll.dict_size() as u32,
            ..Model::default()
        }
    }

    fn resolve(&mut self, op: &Op) -> Option<Write> {
        match op {
            Op::Insert(o) => self
                .admit(o)
                .then(|| Write::Op(WriteOp::Insert(o.clone()), true)),
            Op::Delete(id) => Some(match self.live.remove(id) {
                Some(o) => {
                    self.dead.insert(*id, o.clone());
                    Write::Op(WriteOp::Delete(o), true)
                }
                None => {
                    let ghost = Object::new(*id, 0, 1, vec![0]);
                    let o = self.dead.get(id).cloned().unwrap_or(ghost);
                    Write::Op(WriteOp::Delete(o), false)
                }
            }),
            Op::Batch(os) => {
                let admitted: Vec<Object> = os.iter().filter(|o| self.admit(o)).cloned().collect();
                (!admitted.is_empty()).then_some(Write::Batch(admitted))
            }
            _ => None,
        }
    }

    /// Takes `o` live, unless its id already is.
    fn admit(&mut self, o: &Object) -> bool {
        let free = !self.live.contains_key(&o.id);
        if free {
            self.dead.remove(&o.id);
            self.live.insert(o.id, o.clone());
        }
        free
    }

    /// Closes `group` with `barrier`. A tier with epochs must ack the
    /// model's `(epoch, live)`: one epoch per batch, and the ops sent form
    /// at most two batches, the first of one op (see [`Gate`]).
    fn barrier(&mut self, tier: &mut dyn Tier, group: &mut Vec<Write>, barrier: &Op) {
        let (mut sent, mut inserts, mut missed) = (0, 0, 0);
        for (op, ok) in requests(group) {
            let sends = ok || self.sends_missing;
            sent += u64::from(sends);
            inserts += u64::from(sends && matches!(op, WriteOp::Insert(_)));
            missed += u64::from(sends && !ok);
        }
        self.epoch += sent.min(2);
        self.counters[0] += inserts;
        self.counters[1] += sent - inserts - missed;
        self.counters[2] += missed;
        self.counters[3] = self.epoch;
        // The gate's two batches: the first op alone, then the rest.
        let largest = sent.min(1).max(sent.saturating_sub(1));
        self.counters[5] = self.counters[5].max(largest);
        let catalog: Vec<Object> = self.live.values().cloned().collect();
        self.oracle = BruteForce::build(&catalog);
        if let Some(acked) = tier.commit(&std::mem::take(group), barrier, &catalog) {
            assert_eq!(acked, (self.epoch, catalog.len() as u64), "(epoch, live)");
        }
    }

    /// An object over the corpus's domain and dictionary.
    fn object(&self, rng: &mut StdRng, id: u32) -> Object {
        let (st, end) = self.interval(rng);
        let desc = (0..rng.gen_range(1..=4)).map(|_| self.term(rng)).collect();
        Object::new(id, st, end, desc)
    }

    /// Dead `id` back as the object it was, as its interval with another
    /// description, or as another object.
    fn revive(&self, rng: &mut StdRng, id: u32) -> Object {
        let other = self.object(rng, id);
        match (self.dead.get(&id), rng.gen_range(0..4)) {
            (Some(was), 0) => was.clone(),
            (Some(was), 1 | 2) => Object::new(id, was.interval.st, was.interval.end, other.desc),
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
        rng.gen_range(0..self.dict).min(rng.gen_range(0..self.dict))
    }
}

fn open<I: Index>(index: I, tier: TierKind, method: Method, coll: &Collection) -> Box<dyn Tier> {
    match tier {
        TierKind::Direct => Box::new(Direct(index.clone(), index)),
        TierKind::Store => Box::new(Store::new(index, coll.len() as u64)),
        _ => Box::new(Served::<I>::open(tier, method, coll, index)),
    }
}

/// Runs `ops` through `tier` against the model: every answer, every
/// barrier and, at the end, the applier's counters. `at` tracks the op.
fn drive(mut tier: Box<dyn Tier>, kind: TierKind, coll: &Collection, ops: &[Op], at: &Cell<usize>) {
    let (mut model, mut group, tier) = (Model::new(coll), Vec::new(), tier.as_mut());
    model.sends_missing = kind == TierKind::Store;
    for (i, op) in ops.iter().enumerate() {
        at.set(i);
        // A read follows a barrier: which unflushed writes it would see is
        // up to the applier.
        if matches!(op, Op::Query(_) | Op::Expired(_) | Op::DropBitmaps) && !group.is_empty() {
            model.barrier(tier, &mut group, &Op::Flush);
        }
        match op {
            Op::Insert(_) | Op::Delete(_) | Op::Batch(_) => group.extend(model.resolve(op)),
            Op::Flush | Op::Snapshot | Op::KillRecover => model.barrier(tier, &mut group, op),
            Op::DropBitmaps => tier.drop_bitmaps(),
            Op::Query(q) => assert_eq!(tier.query(q, false), Some(model.oracle.answer(q))),
            Op::Expired(q) => {
                let got = tier.query(q, true);
                assert!(got.is_none_or(|got| got == model.oracle.answer(q)));
            }
        }
    }
    at.set(ops.len());
    model.barrier(tier, &mut group, &Op::Flush);
    if let Some(counters) = tier.counters() {
        let names = "[inserts, deletes, missed_deletes, publish_reused, publish_cloned, max_batch]";
        assert_eq!(counters, model.counters, "{names}");
    }
}

/// One way of holding an index and serving it.
trait Tier {
    /// Commits `group` and then `barrier`, and returns the `(epoch, live)`
    /// acked if the tier has epochs. `catalog` is the model's.
    fn commit(&mut self, group: &[Write], barrier: &Op, catalog: &[Object]) -> Option<(u64, u64)>;
    /// The answer in ascending order, or `None` if it timed out.
    fn query(&mut self, q: &TimeTravelQuery, expired: bool) -> Option<Vec<u32>>;
    fn drop_bitmaps(&mut self) {}
    /// The applier's counters, if one applier served the whole script, in
    /// the order of [`Model::counters`].
    fn counters(&mut self) -> Option<[u64; 6]> {
        None
    }
}

/// The epoch store's two-copy publish without the store, as `(master,
/// published)`: a group commits to the master, the copies trade places,
/// and the retired one replays the group. An index is a pure function of
/// its build and the ops since, so the copies never diverge.
struct Direct<I>(I, I);

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
    fn commit(&mut self, group: &[Write], _: &Op, catalog: &[Object]) -> Option<(u64, u64)> {
        if group.is_empty() {
            return None;
        }
        let deletes = requests(group)
            .into_iter()
            .filter(|r| r.1 && matches!(r.0, WriteOp::Delete(_)));
        let want = deletes.count() as u64;
        let first = apply(&mut self.0, group);
        std::mem::swap(&mut self.0, &mut self.1);
        let second = apply(&mut self.0, group);
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
        None
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
/// every epoch swap: `(parked, release)`.
struct Gate(Receiver<()>, SyncSender<()>);

/// How long the driver waits on a server or the applier before it calls
/// the run hung; generous, so it never fires on a slow machine.
const HANG: Duration = Duration::from_secs(60);

/// A validator that parks the applier at the gate, then, if `checks`, runs
/// the structural checks whose count `STATS violations` reports.
fn gated<I: Validate>(checks: bool) -> (Validator<I>, Gate) {
    let (entered, parked) = sync_channel(1);
    let (release, released) = sync_channel(1);
    let validator: Validator<I> = Box::new(move |index: &I| {
        // A driver that has gone must not leave the applier parked.
        if entered.send(()).is_ok() {
            let _ = released.recv();
        }
        if checks {
            index.validate().len()
        } else {
            0
        }
    });
    (validator, Gate(parked, release))
}

impl Gate {
    /// Sends `group` so that it commits as exactly two batches: once its
    /// first op is enqueued the applier is parked with that alone, and
    /// everything enqueued meanwhile forms the second. `send` sends one op,
    /// flagged admitted or not, and says whether it was enqueued.
    fn send(&self, group: &[Write], mut send: impl FnMut(WriteOp, bool) -> bool) {
        let mut sent = 0;
        for (op, ok) in requests(group) {
            let enqueued = send(op, ok);
            sent += u32::from(enqueued);
            if enqueued && sent == 1 {
                self.parked();
            }
        }
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
    store: EpochStore<I>,
}

impl<I: Index> Store<I> {
    fn new(index: I, live: u64) -> Self {
        // The direct tier validates every state this store reaches.
        let (validator, gate) = gated(false);
        let config = EpochConfig {
            validator: Some(validator),
            ..Default::default()
        };
        let store = EpochStore::new(index, live, config);
        Store { gate, store }
    }
}

impl<I: Index> Tier for Store<I> {
    fn commit(&mut self, group: &[Write], barrier: &Op, _: &[Object]) -> Option<(u64, u64)> {
        let store = &self.store;
        // Unlike the server, the store is sent a delete of a missing id too:
        // the applier must count it as missed and change nothing.
        self.gate.send(group, |op, _| {
            store.enqueue(op).expect("enqueue");
            true
        });
        let acked = match barrier {
            Op::Snapshot => store.force_snapshot(),
            _ => store.flush(),
        };
        let (acked, snap) = (acked.expect("barrier"), store.snapshot());
        assert_eq!(snap.epoch, acked, "a barrier acks the published epoch");
        Some((acked, snap.live))
    }

    fn query(&mut self, q: &TimeTravelQuery, expired: bool) -> Option<Vec<u32>> {
        answer(&self.store.snapshot().index, q, expired)
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
    live: Option<(Gate, Connection, ServerHandle)>,
    index: PhantomData<I>,
}

impl<I: Index> Served<I> {
    fn open(tier: TierKind, method: Method, coll: &Collection, index: I) -> Self {
        static DIRS: AtomicU64 = AtomicU64::new(0);
        let (pid, n) = (std::process::id(), DIRS.fetch_add(1, SeqCst));
        let root = std::env::temp_dir().join(format!("tir-differential-{pid}-{n}"));
        let mut served = Served {
            tier,
            method,
            root,
            restarts: 0,
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
        let (validator, gate) = gated(self.tier != TierKind::Durable);
        let config = ServerConfig {
            method: self.method.to_string(),
            ..Default::default()
        };
        let server = spawn(config, validator).expect("a server");
        let client = Connection::open_with_timeout(&server.addr().to_string(), Some(HANG));
        self.live = Some((gate, client.expect("a connection"), server));
    }

    fn start_durable(&mut self, index: I, dict: Dictionary, durability: Durability) {
        let dict = ServeDict::durable(dict, TermLog::open(&self.dir()).expect("terms.log"));
        self.start(|config, v| spawn_server_durable(index, dict, durability, config, Some(v)));
    }

    fn call(&mut self, request: &str) -> Response {
        let (_, client, _) = self.live.as_mut().expect("a server");
        let response = client.call(request);
        response.unwrap_or_else(|e| panic!("{request}: {e}"))
    }

    fn stats<const N: usize>(&mut self, keys: [&str; N]) -> [u64; N] {
        let Response::Stats(pairs) = self.call("STATS") else {
            panic!("STATS");
        };
        let stat = |k| pairs.iter().find(|p| p.0 == k)?.1.parse().ok();
        keys.map(|k| stat(k).expect(k))
    }

    /// A barrier: `STATS` must show the epoch it acked, and no violations.
    fn barrier(&mut self, request: &str) -> (u64, u64) {
        let acked = self.call(request);
        let [epoch, live, violations] = self.stats(["epoch", "live", "violations"]);
        let want = (Response::Epoch(epoch), 0);
        assert_eq!((acked, violations), want, "{request}");
        (epoch, live)
    }

    /// After the flush everything acked is on disk, so a copy of the live
    /// directory is what `kill -9` would leave.
    fn kill_recover(&mut self, catalog: &[Object]) -> (u64, u64) {
        self.barrier("FLUSH");
        let from = self.dir();
        self.restarts += 1;
        let to = self.dir();
        std::fs::create_dir_all(&to).expect("a directory");
        for entry in std::fs::read_dir(&from).expect("the live directory") {
            let path = entry.expect("a file").path();
            std::fs::copy(&path, to.join(path.file_name().expect("a name"))).expect("a copy");
        }
        let r: Recovered<I> = Durability::recover(&to, DURABILITY).expect("recovery");
        let recovered = r.durability.catalog_sorted() == catalog;
        assert!(recovered, "the recovered catalog");
        let violations = r.index.validate();
        let diverged = diff_against_oracle(&r.index, catalog, &oracle_query_grid(catalog, 24, 0));
        let clean = violations.is_empty() && diverged.is_empty();
        assert!(clean, "{violations:?} {diverged:?}");
        self.stop(false);
        self.start_durable(r.index, r.dict, r.durability);
        let [epoch, live] = self.stats(["epoch", "live"]);
        (epoch, live)
    }
}

impl<I: Index> Tier for Served<I> {
    fn commit(&mut self, group: &[Write], barrier: &Op, catalog: &[Object]) -> Option<(u64, u64)> {
        let (gate, client, _) = self.live.as_mut().expect("a server");
        gate.send(group, |op, ok| {
            let (request, want) = match op {
                WriteOp::Insert(o) => {
                    let (id, st, end) = (o.id, o.interval.st, o.interval.end);
                    let request = format!("INSERT {id} {st} {end} {}", terms(&o.desc));
                    (request, Response::Ok)
                }
                WriteOp::Delete(o) if ok => (format!("DELETE {}", o.id), Response::Ok),
                WriteOp::Delete(o) => (format!("DELETE {}", o.id), Response::Missing),
            };
            assert_eq!(client.call(&request), Ok(want), "{request}");
            ok
        });
        Some(match barrier {
            Op::KillRecover if self.tier == TierKind::Recovered => self.kill_recover(catalog),
            Op::Snapshot => self.barrier("SNAPSHOT"),
            _ => self.barrier("FLUSH"),
        })
    }

    /// Replies are checked as they come, never sorted first.
    fn query(&mut self, q: &TimeTravelQuery, expired: bool) -> Option<Vec<u32>> {
        let (st, end, terms) = (q.interval.st, q.interval.end, terms(&q.elems));
        let deadline = if expired { " DEADLINE 0" } else { "" };
        let request = format!("QUERY {st} {end} {terms}{deadline}");
        match self.call(&request) {
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
    /// server snapshots first, so that no shutdown snapshot of a store
    /// dropped late lands after the directory is removed.
    fn stop(&mut self, last: bool) {
        if let Some((gate, mut client, server)) = self.live.take() {
            drop(gate);
            if last {
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
