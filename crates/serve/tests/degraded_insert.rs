//! An `INSERT` refused because the store is latched degraded interns
//! nothing: its fresh term reaches neither the dictionary nor
//! `terms.log`, whose append is fsynced under the dictionary lock every
//! `QUERY` waits on.
//!
//! NOTE: the fault registry is process-global, so this binary holds
//! exactly one `#[test]`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use tir_core::{Collection, Tif};
use tir_fault::{FaultAction, FaultSite, OneShot};
use tir_invidx::Dictionary;
use tir_persist::{Durability, DurabilityOptions, TermLog};
use tir_serve::{spawn_server_durable, ServeDict, ServerConfig};

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
fn a_degraded_store_refuses_an_insert_before_interning() {
    let dir =
        std::env::temp_dir().join(format!("tir-serve-degraded-insert-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let coll = Collection::running_example();
    let mut dict = Dictionary::new();
    for name in ["a", "b", "c"] {
        dict.intern(name);
    }
    let index = Tif::build(&coll);
    let opts = DurabilityOptions::default();
    let durability = Durability::create(&dir, &index, &dict, coll.objects(), opts).expect("create");
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

    // The next WAL append fails: the batch holding id 8 latches the
    // store degraded.
    tir_fault::install(Arc::new(OneShot {
        site: FaultSite::WalAppend,
        visit: 0,
        action: FaultAction::Error,
    }));
    assert_eq!(roundtrip(&mut stream, &mut reader, "INSERT 8 5 6 a"), "OK");
    assert_eq!(roundtrip(&mut stream, &mut reader, "FLUSH"), "DEGRADED");
    tir_fault::clear();

    let log = dir.join("terms.log");
    let log_len = || std::fs::metadata(&log).map_or(0, |m| m.len());
    // `ELEMS` with room for every term lists the whole dictionary.
    let before = (log_len(), roundtrip(&mut stream, &mut reader, "ELEMS 100"));
    assert_eq!(before.1, "ELEMS a b c");

    // Id 9 is free, so only the latch refuses it, and before `zebra` is
    // interned.
    assert_eq!(
        roundtrip(&mut stream, &mut reader, "INSERT 9 0 1 zebra"),
        "DEGRADED"
    );
    let after = (log_len(), roundtrip(&mut stream, &mut reader, "ELEMS 100"));
    assert_eq!(after, before, "a refused insert grew the dictionary");

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
