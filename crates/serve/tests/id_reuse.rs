//! A deleted id is free again: the server admits `INSERT id` whenever
//! `id` is not live, so every method must take a dead id back — over the
//! wire, in memory and durable, and after recovery. Two ids per server: one
//! the index was built over and one minted by an `INSERT`.

use std::path::Path;

use tir_check::Validate;
use tir_core::prelude::*;
use tir_core::with_method;
use tir_datagen::SyntheticConfig;
use tir_invidx::Dictionary;
use tir_persist::{Durability, DurabilityOptions, Recovered, TermLog};
use tir_serve::epoch::Validator;
use tir_serve::protocol::Response;
use tir_serve::server::{spawn_server, spawn_server_durable, ServerConfig, ServerHandle};
use tir_serve::{Connection, ServeDict};

struct Client(Connection);

impl Client {
    fn open(server: &ServerHandle) -> Client {
        let addr = server.addr().to_string();
        let timeout = Some(std::time::Duration::from_secs(60));
        Client(Connection::open_with_timeout(&addr, timeout).expect("connect"))
    }

    fn call(&mut self, req: &str) -> Response {
        self.0.call(req).expect("round trip")
    }

    fn insert(&mut self, o: &Object) {
        let terms: Vec<String> = o.desc.iter().map(|e| format!("e{e}")).collect();
        let (st, end) = (o.interval.st, o.interval.end);
        let req = format!("INSERT {} {st} {end} {}", o.id, terms.join(","));
        assert_eq!(self.call(&req), Response::Ok, "{req}");
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
                    let Response::Hits(ids) = answer else {
                        panic!("{what}: {answer:?}");
                    };
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
            let delete = format!("DELETE {id}");
            assert_eq!(client.call(&delete), Response::Ok, "{what}");
            assert_eq!(client.call(&delete), Response::Missing, "{what}");
            catalog.retain(|o| o.id != id);
            client.insert(next);
            catalog.push(next.clone());
            let flushed = client.call("FLUSH");
            assert!(matches!(flushed, Response::Epoch(_)), "{what}: {flushed:?}");
            client.agrees_with(&catalog, &[&live, next], what);
            live = next.clone();
        }
    }
    let Response::Stats(stats) = client.call("STATS") else {
        panic!("{what}: STATS");
    };
    let violations = stats.iter().find(|(k, _)| k == "violations");
    assert_eq!(
        violations.map(|(_, v)| v.as_str()),
        Some("0"),
        "{what}: {stats:?}"
    );
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
