//! The benchmark's own closed-loop TCP client: one request in flight per
//! connection, no retries, every reply checked. Any reply other than the
//! expected one — `ERR`, `OVERLOADED`, `TIMEOUT`, `DEGRADED`, a transport
//! error, a wrong answer — is a failure.

use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use tir_serve::protocol::{parse_response, Response};

use crate::corpus::{Pool, Write, WriteStream};
use crate::stats::Sample;
use crate::trace::{Tracer, NO_PARENT};

pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            stream,
            line: String::new(),
        })
    }

    /// Sends one newline-terminated request and parses the reply. A
    /// transport or protocol failure comes back as `Response::Err`.
    pub fn call(&mut self, request: &str) -> Response {
        debug_assert!(request.ends_with('\n'));
        let io = (|| {
            self.stream.write_all(request.as_bytes())?;
            self.line.clear();
            self.reader.read_line(&mut self.line)
        })();
        match io {
            Ok(n) if n > 0 => parse_response(self.line.trim_end())
                .unwrap_or_else(|e| Response::Err(format!("unparsable reply: {e}"))),
            Ok(_) => Response::Err("connection closed".into()),
            Err(e) => Response::Err(format!("transport: {e}")),
        }
    }
}

/// A read is right when it is `HITS` with exactly the brute-force answer.
pub fn answer_is_right(got: &Response, expected: &[u32]) -> bool {
    matches!(got, Response::Hits(ids) if ids == expected)
}

#[derive(Default)]
pub struct ReadLog {
    pub samples: Vec<Sample>,
    pub failed: u64,
    /// One `client.rtt` span per request, when the loop was traced.
    pub tracer: Option<Tracer>,
}

/// Reads the pool in order (cycling) until `stop` is set. Latency runs
/// from the request leaving to the reply parsed; the oracle comparison is
/// outside it.
pub fn read_loop(
    addr: SocketAddr,
    pool: &Pool,
    stop: &AtomicBool,
    clock: Instant,
    traced: bool,
) -> ReadLog {
    let mut log = ReadLog::default();
    let mut tracer = traced.then(|| Tracer::new(clock));
    let Ok(mut client) = Client::connect(addr) else {
        log.failed += 1;
        return log;
    };
    let mut i = 0;
    while !stop.load(Ordering::Relaxed) {
        let span = tracer
            .as_mut()
            .map(|t| t.open("client.rtt", NO_PARENT, i as u32));
        let sent = Instant::now();
        let got = client.call(&pool.lines[i]);
        let lat = sent.elapsed();
        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
            t.close(id);
        }
        log.samples.push(Sample {
            end_ns: clock.elapsed().as_nanos() as u64,
            lat_ns: lat.as_nanos().min(u128::from(u32::MAX)) as u32,
        });
        if !answer_is_right(&got, &pool.expected[i]) {
            log.failed += 1;
            if matches!(got, Response::Err(_)) {
                break; // transport is gone; nothing is retried
            }
        }
        i = (i + 1) % pool.lines.len();
    }
    log.tracer = tracer;
    log
}

/// One write cycle: `groups` groups of 8 writes, each closed by `FLUSH`,
/// then (on a durable server) one `SNAPSHOT`.
pub struct Cycle {
    pub writes: u64,
    pub secs: f64,
    /// First write of a group sent → its `FLUSH` answered `EPOCH`.
    pub commit_us: Vec<f64>,
    pub snapshot_ms: Option<f64>,
}

#[derive(Default)]
pub struct WriteLog {
    pub cycles: Vec<Cycle>,
    pub requests: u64,
    pub failed: u64,
}

impl WriteLog {
    /// Takes over another burst's counts and its cycles but the first,
    /// which is that burst's warm-up.
    pub fn absorb(&mut self, burst: WriteLog) {
        self.requests += burst.requests;
        self.failed += burst.failed;
        let keep_from = usize::from(burst.cycles.len() > 1);
        self.cycles.extend(burst.cycles.into_iter().skip(keep_from));
    }
}

/// Sends one group and its `FLUSH`; returns the commit latency in µs.
pub fn commit_group(
    client: &mut Client,
    group: &[Write],
    req: u32,
    log: &mut WriteLog,
    mut tracer: Option<&mut Tracer>,
) -> f64 {
    let root = tracer
        .as_deref_mut()
        .map(|t| t.open("client.commit", NO_PARENT, req));
    let sent = Instant::now();
    for w in group {
        log.requests += 1;
        if client.call(&w.line()) != Response::Ok {
            log.failed += 1;
        }
    }
    log.requests += 1;
    if !matches!(client.call("FLUSH\n"), Response::Epoch(_)) {
        log.failed += 1;
    }
    let us = sent.elapsed().as_secs_f64() * 1e6;
    if let (Some(t), Some(id)) = (tracer, root) {
        t.close(id);
    }
    us
}

/// Runs whole cycles until `deadline` has passed (at least two, so one
/// can be discarded as warm-up); fails if the stream runs dry first.
pub fn write_cycles(
    client: &mut Client,
    stream: &mut WriteStream,
    groups: usize,
    snapshot: bool,
    deadline: Instant,
) -> std::io::Result<WriteLog> {
    let mut log = WriteLog::default();
    while log.cycles.len() < 2 || Instant::now() < deadline {
        let begun = Instant::now();
        let mut cycle = Cycle {
            writes: 0,
            secs: 0.0,
            commit_us: Vec::with_capacity(groups),
            snapshot_ms: None,
        };
        for _ in 0..groups {
            let group = stream.next_group()?;
            let us = commit_group(client, &group, 0, &mut log, None);
            cycle.commit_us.push(us);
            cycle.writes += group.len() as u64;
        }
        if snapshot {
            let t = Instant::now();
            log.requests += 1;
            if !matches!(client.call("SNAPSHOT\n"), Response::Epoch(_)) {
                log.failed += 1;
            }
            cycle.snapshot_ms = Some(t.elapsed().as_secs_f64() * 1e3);
        }
        cycle.secs = begun.elapsed().as_secs_f64();
        log.cycles.push(cycle);
    }
    Ok(log)
}

/// Reads `n` pool queries once over an idle connection and compares each
/// with `expected`; returns how many were wrong.
pub fn check_sample(client: &mut Client, pool: &Pool, expected: &[Vec<u32>]) -> u64 {
    expected
        .iter()
        .enumerate()
        .filter(|(i, want)| !answer_is_right(&client.call(&pool.lines[*i]), want))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle gate fires: a deliberately wrong expected answer, a
    /// refusal and an unsorted reply are all failures.
    #[test]
    fn wrong_answers_and_refusals_fail_the_check() {
        let hits = Response::Hits(vec![1, 3, 6]);
        assert!(answer_is_right(&hits, &[1, 3, 6]));
        assert!(!answer_is_right(&hits, &[1, 3]));
        assert!(!answer_is_right(&Response::Hits(vec![3, 1, 6]), &[1, 3, 6]));
        assert!(!answer_is_right(&Response::Overloaded, &[]));
        assert!(!answer_is_right(&Response::Timeout, &[]));
        assert!(!answer_is_right(&Response::Err("gone".into()), &[]));
    }
}
