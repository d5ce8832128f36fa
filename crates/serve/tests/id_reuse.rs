//! A deleted id is free again: the server admits `INSERT id` whenever
//! `id` is not live, so every method must take a dead id back — over the
//! wire, in memory and durable, and after recovery. Two ids per server: one
//! the index was built over and one minted by an `INSERT`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;

use tir_check::Validate;
use tir_core::prelude::*;
use tir_core::with_method;
use tir_datagen::SyntheticConfig;
use tir_invidx::Dictionary;
use tir_persist::{Durability, DurabilityOptions, Recovered, TermLog};
use tir_serve::epoch::Validator;
use tir_serve::server::{spawn_server, spawn_server_durable, ServerConfig, ServerHandle};
use tir_serve::ServeDict;

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn open(server: &ServerHandle) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn call(&mut self, req: &str) -> String {
        self.stream
            .write_all(format!("{req}\n").as_bytes())
            .expect("send");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        line.trim_end().to_string()
    }

    fn insert(&mut self, o: &Object) {
        let terms: Vec<String> = o.desc.iter().map(|e| format!("e{e}")).collect();
        let (st, end) = (o.interval.st, o.interval.end);
        let req = format!("INSERT {} {st} {end} {}", o.id, terms.join(","));
        assert_eq!(self.call(&req), "OK", "{req}");
    }

    /// One-, two- and three-term queries over the whole domain and over
    /// each version of the re-used objects, against a scan of `catalog`.
    fn agrees_with(&mut self, catalog: &[Object], probes: &[&Object], what: &str) {
        let oracle = BruteForce::build(catalog);
        for probe in probes {
            for n in 1..=3 {
                let elems = &probe.desc[..n.min(probe.desc.len())];
                for (st, end) in [(0, u64::MAX >> 1), (probe.interval.st, probe.interval.end)] {
                    let q = TimeTravelQuery::new(st, end, elems.to_vec());
                    let terms: Vec<String> = elems.iter().map(|e| format!("e{e}")).collect();
                    let answer = self.call(&format!("QUERY {st} {end} {}", terms.join(",")));
                    let mut words = answer.split_ascii_whitespace();
                    assert_eq!(words.next(), Some("HITS"), "{what}: {answer}");
                    let ids: Vec<u32> = words.skip(1).map(|w| w.parse().expect("id")).collect();
                    assert_eq!(ids, oracle.answer(&q), "{what} q={q:?}");
                }
            }
        }
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read_dir") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy");
    }
}

/// `INSERT / DELETE / INSERT / QUERY / DELETE` on one server; returns the
/// catalog it must hold at the end.
fn drive(server: &ServerHandle, coll: &Collection, what: &str) -> Vec<Object> {
    let mut client = Client::open(server);
    let mut catalog: Vec<Object> = coll.objects().to_vec();
    let built = coll.get(coll.len() as u32 / 2).clone();
    let minted = Object::new(coll.len() as u32 + 50, 10, 90, built.desc.clone());
    client.insert(&minted);
    catalog.push(minted.clone());
    for first in [built, minted] {
        let id = first.id;
        let shifted = Object::new(
            id,
            first.interval.st + 3,
            first.interval.end + 40,
            coll.get(0).desc.clone(),
        );
        let mut live = first.clone();
        for next in [&first, &shifted, &first] {
            assert_eq!(client.call(&format!("DELETE {id}")), "OK", "{what}");
            assert_eq!(client.call(&format!("DELETE {id}")), "MISSING", "{what}");
            catalog.retain(|o| o.id != id);
            client.insert(next);
            catalog.push(next.clone());
            assert!(client.call("FLUSH").starts_with("EPOCH"), "{what}");
            client.agrees_with(&catalog, &[&live, next], what);
            live = next.clone();
        }
    }
    let stats = client.call("STATS");
    assert!(stats.contains("violations=0"), "{what}: {stats}");
    catalog.sort_unstable_by_key(|o| o.id);
    catalog
}

fn reuse_on_both_tiers<I>(method: Method, coll: &Collection, build: impl Fn(&Collection) -> I)
where
    I: TemporalIrIndex + Validate + Clone + Send + Sync + 'static,
{
    let mut dict = Dictionary::new();
    for e in 0..coll.dict_size() as u32 {
        assert_eq!(dict.intern(&format!("e{e}")), e);
    }
    let config = || ServerConfig {
        method: method.to_string(),
        ..Default::default()
    };
    let validator = || -> Option<Validator<I>> { Some(Box::new(|i: &I| i.validate().len())) };

    let server = spawn_server(
        build(coll),
        coll.objects().to_vec(),
        dict.clone(),
        config(),
        validator(),
    )
    .expect("server boots");
    drive(&server, coll, &format!("{method} in memory"));
    server.stop();

    let dir = std::env::temp_dir().join(format!("tir-serve-reuse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let index = build(coll);
    let opts = DurabilityOptions {
        snapshot_every: 4, // some re-inserts land in a snapshot, some in the WAL tail
        ..Default::default()
    };
    let durability = Durability::create(&dir, &index, &dict, coll.objects(), opts).expect("create");
    let log = TermLog::open(&dir).expect("term log");
    let server = spawn_server_durable(
        index,
        ServeDict::durable(dict, log),
        durability,
        config(),
        validator(),
    )
    .expect("durable server boots");
    let catalog = drive(&server, coll, &format!("{method} durable"));

    // Every write above was acked behind a FLUSH, so a copy of the live
    // directory recovers to the same catalog and the same answers.
    let copy = dir.with_extension("copy");
    let _ = std::fs::remove_dir_all(&copy);
    copy_dir(&dir, &copy);
    let r: Recovered<I> = Durability::recover(&copy, opts).expect("recover");
    assert_eq!(r.durability.catalog_sorted(), catalog, "{method} recovered");
    let grid = tir_check::oracle_query_grid(&catalog, 24, 7);
    let diverged = tir_check::diff_against_oracle(&r.index, &catalog, &grid);
    assert!(diverged.is_empty(), "{method} recovered: {diverged:?}");
    let violations = r.index.validate();
    assert!(violations.is_empty(), "{method} recovered: {violations:?}");
    drop(r);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&copy);
}

#[test]
fn a_deleted_id_is_served_again_on_every_tier() {
    let mut cfg = SyntheticConfig::default().scaled(0.001);
    cfg.desc_size = 4;
    cfg.seed = 23;
    let coll = tir_datagen::generate(&cfg);
    for method in Method::ALL {
        with_method!(method, |I, build| reuse_on_both_tiers::<I>(
            method, &coll, build
        ));
    }
}
