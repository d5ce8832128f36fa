//! Seeded inputs: corpora, query pools with their brute-force answers,
//! and the write stream with the client-side model of the live catalog.
//! The same `--seed` gives the same inputs; the system under test only
//! ever sees the generated requests.

use std::collections::HashMap;
use std::time::Instant;

use tir_core::{BruteForce, Collection, Object, QueryScratch, TemporalIrIndex, TimeTravelQuery};
use tir_datagen::{
    eclog_like, mixed_stream, workload, ElemSource, Extent, MixedSpec, Op, SyntheticConfig,
    WorkloadSpec,
};
use tir_invidx::Dictionary;
use tir_persist::WalOp;
use tir_serve::WriteOp;

/// Sizes of one run. `FULL` is what `BENCHMARK.json` measures; `SMOKE`
/// exists so the schema test can run every workload in seconds.
#[derive(Clone, Copy)]
pub struct Scale {
    pub dense_card: usize,
    pub eclog_scale: f64,
    /// Queries in a serve workload's pool (cycled by the clients).
    pub pool: usize,
    /// Queries per set in the nine-method table.
    pub table_queries: usize,
    /// Set-ups per served run (`setup_s` is their median).
    pub setups: usize,
    /// Rounds of the nine-method table in `lib_methods` (each builds all
    /// nine, so `setup_s` is the median over rounds there).
    pub rounds: usize,
    /// Queries of the quiesced and recovered oracle checks.
    pub check_queries: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        dense_card: 100_000,
        eclog_scale: 0.1,
        pool: 4096,
        table_queries: 1000,
        setups: 9,
        rounds: 3,
        check_queries: 256,
    };
    pub const SMOKE: Scale = Scale {
        dense_card: 5_000,
        eclog_scale: 0.0167,
        pool: 256,
        table_queries: 100,
        setups: 1,
        rounds: 1,
        check_queries: 64,
    };
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// `dense100k`: EXPERIMENTS.md's dense corpus — 100K objects over a
    /// 2K-term dictionary, long postings, kernel-heavy.
    Dense,
    /// `eclog30k`: the scale EXPERIMENTS.md's paper-shape tables use.
    Eclog,
}

pub fn generate(corpus: Corpus, scale: &Scale, seed: u64) -> Collection {
    match corpus {
        Corpus::Dense => {
            let mut cfg = SyntheticConfig::default().scaled(0.1);
            cfg.cardinality = scale.dense_card;
            cfg.dict_size = 2_000;
            cfg.seed = seed;
            tir_datagen::generate(&cfg)
        }
        Corpus::Eclog => eclog_like(scale.eclog_scale, seed),
    }
}

/// Element terms `e<id>`, as `tir serve`'s synthetic corpus names them.
pub fn dictionary(coll: &Collection) -> Dictionary {
    let mut dict = Dictionary::new();
    for e in 0..coll.dict_size() as u32 {
        dict.intern(&format!("e{e}"));
    }
    dict
}

fn elems_field(elems: &[u32]) -> String {
    let terms: Vec<String> = elems.iter().map(|e| format!("e{e}")).collect();
    terms.join(",")
}

/// The four query shapes the workloads use.
pub fn point_spec() -> WorkloadSpec {
    WorkloadSpec {
        extent: Extent::Stabbing,
        num_elems: 2,
        source: ElemSource::FreqBin {
            lo_pct: 0.0,
            hi_pct: 1.0,
        },
    }
}

pub fn extent_spec(fraction: f64) -> WorkloadSpec {
    WorkloadSpec {
        extent: Extent::Fraction(fraction),
        num_elems: 3,
        source: ElemSource::SeedObject,
    }
}

/// Brute-force answers.
pub fn oracle(objects: &[Object], queries: &[TimeTravelQuery]) -> Vec<Vec<u32>> {
    let bf = BruteForce::build(objects);
    queries.iter().map(|q| bf.answer(q)).collect()
}

/// How many of `queries` the index answers (through `query_into`)
/// differently from `expected`; stops at the shorter of the two.
pub fn mismatches(
    index: &dyn TemporalIrIndex,
    queries: &[TimeTravelQuery],
    expected: &[Vec<u32>],
) -> u64 {
    let mut scratch = QueryScratch::default();
    let mut got = Vec::new();
    let mut wrong = 0;
    for (q, want) in queries.iter().zip(expected) {
        got.clear();
        index.query_into(q, &mut scratch, &mut got);
        got.sort_unstable();
        wrong += u64::from(&got != want);
    }
    wrong
}

/// A query pool with its wire lines and expected answers.
pub struct Pool {
    pub queries: Vec<TimeTravelQuery>,
    /// `QUERY <from> <to> <elems>\n`, ready to send.
    pub lines: Vec<String>,
    pub expected: Vec<Vec<u32>>,
    pub workload_s: f64,
    pub oracle_s: f64,
}

impl Pool {
    pub fn new(coll: &Collection, spec: &WorkloadSpec, n: usize, seed: u64) -> Pool {
        let t = Instant::now();
        let queries = workload(coll, spec, n, seed ^ 0x9E37_79B9);
        let lines = queries
            .iter()
            .map(|q| {
                format!(
                    "QUERY {} {} {}\n",
                    q.interval.st,
                    q.interval.end,
                    elems_field(&q.elems)
                )
            })
            .collect();
        let workload_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let expected = oracle(coll.objects(), &queries);
        Pool {
            queries,
            lines,
            expected,
            workload_s,
            oracle_s: t.elapsed().as_secs_f64(),
        }
    }

    /// Keeps `expected` equal to the brute-force answer after `writes`
    /// are acked: the oracle's own predicate applied to each delta, so
    /// reads stay exactly checkable between write bursts without
    /// re-scanning the catalog per query.
    pub fn note_writes(&mut self, writes: &[Write]) {
        for w in writes {
            let (Write::Insert(o) | Write::Delete(o)) = w;
            for (q, ids) in self.queries.iter().zip(&mut self.expected) {
                if !q.matches(o) {
                    continue;
                }
                match (w, ids.binary_search(&o.id)) {
                    (Write::Insert(_), Err(at)) => ids.insert(at, o.id),
                    (Write::Delete(_), Ok(at)) => {
                        ids.remove(at);
                    }
                    _ => {}
                }
            }
        }
    }
}

/// One write with the whole object in hand (a delete needs it to find
/// the postings).
#[derive(Clone)]
pub enum Write {
    Insert(Object),
    Delete(Object),
}

impl Write {
    pub fn line(&self) -> String {
        match self {
            Write::Insert(o) => format!(
                "INSERT {} {} {} {}\n",
                o.id,
                o.interval.st,
                o.interval.end,
                elems_field(&o.desc)
            ),
            Write::Delete(o) => format!("DELETE {}\n", o.id),
        }
    }

    pub fn write_op(&self) -> WriteOp {
        match self {
            Write::Insert(o) => WriteOp::Insert(o.clone()),
            Write::Delete(o) => WriteOp::Delete(o.clone()),
        }
    }

    pub fn wal_op(&self) -> WalOp {
        match self {
            Write::Insert(o) => WalOp::Insert(o.clone()),
            Write::Delete(o) => WalOp::Delete(o.clone()),
        }
    }
}

/// Writes per group: every group is closed by one `FLUSH`.
pub const GROUP: usize = 8;

/// The seeded 70/30 insert/delete stream, handed out in groups, plus the
/// model of which objects are live once every handed-out group is acked.
pub struct WriteStream {
    ops: Vec<Op>,
    next: usize,
    pub model: HashMap<u32, Object>,
    /// Writes handed out since the last [`WriteStream::take_sent`].
    sent: Vec<Write>,
}

impl WriteStream {
    pub fn new(coll: &Collection, groups: usize, seed: u64) -> WriteStream {
        let spec = MixedSpec {
            write_fraction: 1.0,
            insert_fraction: 0.7,
            query: WorkloadSpec::default(),
        };
        WriteStream {
            ops: mixed_stream(coll, &spec, groups * GROUP, seed ^ 0x51ED_270B),
            next: 0,
            model: coll.objects().iter().map(|o| (o.id, o.clone())).collect(),
            sent: Vec::new(),
        }
    }

    /// The next group, applied to the model. A stream that is used up is
    /// an error, not a shorter run: the measured phases would shrink
    /// unnoticed.
    pub fn next_group(&mut self) -> std::io::Result<Vec<Write>> {
        if self.next + GROUP > self.ops.len() {
            return Err(std::io::Error::other(format!(
                "the write stream ran dry after {} groups",
                self.next / GROUP
            )));
        }
        let mut group = Vec::with_capacity(GROUP);
        for op in &self.ops[self.next..self.next + GROUP] {
            match op {
                Op::Insert(o) => {
                    self.model.insert(o.id, o.clone());
                    group.push(Write::Insert(o.clone()));
                }
                Op::Delete(id) => {
                    let o = self
                        .model
                        .remove(id)
                        .expect("mixed_stream deletes only live ids");
                    group.push(Write::Delete(o));
                }
                Op::Query(_) => unreachable!("write_fraction is 1"),
            }
        }
        self.next += GROUP;
        self.sent.extend(group.iter().cloned());
        Ok(group)
    }

    pub fn take_sent(&mut self) -> Vec<Write> {
        std::mem::take(&mut self.sent)
    }

    /// The live objects, sorted by id.
    pub fn live(&self) -> Vec<Object> {
        let mut v: Vec<Object> = self.model.values().cloned().collect();
        v.sort_unstable_by_key(|o| o.id);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_used_up_stream_is_an_error_and_the_model_follows_the_groups() {
        let coll = generate(Corpus::Dense, &Scale::SMOKE, 7);
        let mut stream = WriteStream::new(&coll, 2, 7);
        let mut live = coll.len() as i64;
        for _ in 0..2 {
            for w in stream.next_group().expect("two groups were generated") {
                live += match w {
                    Write::Insert(_) => 1,
                    Write::Delete(_) => -1,
                };
            }
        }
        assert_eq!(stream.live().len() as i64, live);
        assert_eq!(stream.take_sent().len(), 2 * GROUP);
        let Err(dry) = stream.next_group() else {
            panic!("the stream is used up and must say so");
        };
        assert!(dry.to_string().contains("ran dry after 2 groups"), "{dry}");
    }
}
