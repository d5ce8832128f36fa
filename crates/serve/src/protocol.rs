//! The line-oriented wire protocol of `tir serve`.
//!
//! One request per line, one response line per request, UTF-8,
//! space-separated fields, elements comma-separated:
//!
//! ```text
//! request  := QUERY <from> <to> <elem>[,<elem>...] [DEADLINE <ms>]
//!           | INSERT <id> <from> <to> <elem>[,<elem>...]
//!           | DELETE <id>
//!           | FLUSH
//!           | SNAPSHOT
//!           | HEALTH
//!           | STATS
//!           | ELEMS <n>
//!           | SHUTDOWN
//! response := HITS <n>[ <id>...]      answer set of a QUERY
//!           | OK                      write admitted
//!           | MISSING                 DELETE of an id that is not live
//!           | OVERLOADED              backpressure: request shed, retry
//!           | TIMEOUT                 QUERY deadline expired mid-plan
//!           | DEGRADED                write refused: server is read-only
//!           | EPOCH <n>               FLUSH / SNAPSHOT barrier reached
//!           | HEALTH ok|degraded|draining
//!           | STATS <k>=<v>[ <k>=<v>...]
//!           | ELEMS [<term>...]       sample of dictionary terms
//!           | BYE                     acknowledges SHUTDOWN
//!           | ERR <message>           malformed or rejected request
//! ```
//!
//! Element tokens are dictionary *strings* (e.g. `e42` for generated
//! corpora); empty element tokens are a hard protocol error, mirroring
//! the CLI's strict `--elems` parsing. `OVERLOADED`, `TIMEOUT` and
//! `DEGRADED` are well-formed outcomes, not protocol errors: load
//! generators count each separately.
//!
//! Deadline semantics: `DEADLINE <ms>` starts ticking when the server
//! dispatches the query. The answer is `TIMEOUT` if the deadline has
//! passed when the query is admitted, or if the mid-plan progress probe
//! sees it expire; a query that *completes* is answered normally even if
//! the clock has passed the deadline, because the full answer is correct
//! and already paid for.

use tir_core::ObjectId;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Answer a time-travel query.
    Query {
        /// Query interval start (inclusive).
        from: u64,
        /// Query interval end (inclusive).
        to: u64,
        /// Required element terms (non-empty, each token non-empty).
        elems: Vec<String>,
        /// Per-request deadline in milliseconds from dispatch (`DEADLINE
        /// <ms>`); `None` means no deadline.
        deadline_ms: Option<u64>,
    },
    /// Insert a new object.
    Insert {
        /// Fresh object id (tombstone bit must be clear).
        id: ObjectId,
        /// Lifespan start.
        from: u64,
        /// Lifespan end.
        to: u64,
        /// Descriptive element terms.
        elems: Vec<String>,
    },
    /// Logically delete a live object.
    Delete {
        /// The object id.
        id: ObjectId,
    },
    /// Write barrier: block until every prior write on any connection is
    /// applied (and, on a durable server, fsynced), answer the epoch.
    Flush,
    /// Force a durable snapshot now (durable servers; others treat it as
    /// a flush), answer the epoch it captured.
    Snapshot,
    /// Report the serving health state.
    Health,
    /// Server counters.
    Stats,
    /// Sample up to `n` dictionary terms (for workload generation).
    Elems {
        /// Maximum number of terms to return.
        n: usize,
    },
    /// Stop accepting connections and exit the accept loop.
    Shutdown,
}

/// A parsed server response (the client/loadgen side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer set.
    Hits(Vec<ObjectId>),
    /// Write admitted.
    Ok,
    /// DELETE target not live.
    Missing,
    /// Backpressure rejection.
    Overloaded,
    /// QUERY deadline expired before the plan finished.
    Timeout,
    /// Write refused: the server is in read-only degraded mode.
    Degraded,
    /// Barrier acknowledgment of `FLUSH`/`SNAPSHOT`: the epoch reached.
    Epoch(u64),
    /// Counter pairs, verbatim `k=v` tokens.
    Stats(Vec<(String, String)>),
    /// Dictionary term sample.
    Elems(Vec<String>),
    /// Health report.
    Health(HealthStatus),
    /// Shutdown acknowledged.
    Bye,
    /// Request-level error.
    Err(String),
}

/// The serving health state reported by the `HEALTH` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// Fully serving: reads and writes admitted.
    Ok,
    /// Read-only: a durability failure latched the applier into degraded
    /// mode; queries serve the last acked epoch, writes get `DEGRADED`.
    Degraded,
    /// Shutdown requested: existing connections drain, no new accepts.
    Draining,
}

impl HealthStatus {
    /// The wire token (`ok`, `degraded`, `draining`).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Draining => "draining",
        }
    }

    /// Parses a wire token.
    pub fn parse(tok: &str) -> Result<HealthStatus, String> {
        match tok {
            "ok" => Ok(HealthStatus::Ok),
            "degraded" => Ok(HealthStatus::Degraded),
            "draining" => Ok(HealthStatus::Draining),
            other => Err(format!("unknown health state '{other}'")),
        }
    }
}

/// Splits a comma-separated element list, rejecting empty tokens — the
/// same strictness the CLI applies to `--elems`.
pub fn parse_elems(field: &str) -> Result<Vec<String>, String> {
    if field.is_empty() {
        return Err("empty element list".into());
    }
    let mut out = Vec::new();
    for tok in field.split(',') {
        let tok = tok.trim();
        if tok.is_empty() {
            return Err(format!("empty element token in '{field}'"));
        }
        out.push(tok.to_string());
    }
    Ok(out)
}

fn parse_u64(tok: &str, what: &str) -> Result<u64, String> {
    tok.parse().map_err(|_| format!("bad {what} '{tok}'"))
}

fn parse_id(tok: &str) -> Result<ObjectId, String> {
    let id: u64 = parse_u64(tok, "id")?;
    if id >= (1 << 31) {
        return Err(format!("id {id} out of range (tombstone bit reserved)"));
    }
    Ok(id as ObjectId)
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut toks = line.split_ascii_whitespace();
    let verb = toks.next().ok_or("empty request")?;
    let rest: Vec<&str> = toks.collect();
    let arity = |n: usize| -> Result<(), String> {
        if rest.len() == n {
            Ok(())
        } else {
            Err(format!("{verb} takes {n} argument(s), got {}", rest.len()))
        }
    };
    match verb {
        "QUERY" => {
            let deadline_ms = match rest.len() {
                3 => None,
                5 if rest[3] == "DEADLINE" => Some(parse_u64(rest[4], "deadline")?),
                _ => {
                    return Err(format!(
                        "QUERY takes <from> <to> <elems> [DEADLINE <ms>], got {} argument(s)",
                        rest.len()
                    ))
                }
            };
            let from = parse_u64(rest[0], "from")?;
            let to = parse_u64(rest[1], "to")?;
            if from > to {
                return Err(format!("from {from} > to {to}"));
            }
            Ok(Request::Query {
                from,
                to,
                elems: parse_elems(rest[2])?,
                deadline_ms,
            })
        }
        "INSERT" => {
            arity(4)?;
            let id = parse_id(rest[0])?;
            let from = parse_u64(rest[1], "from")?;
            let to = parse_u64(rest[2], "to")?;
            if from > to {
                return Err(format!("from {from} > to {to}"));
            }
            Ok(Request::Insert {
                id,
                from,
                to,
                elems: parse_elems(rest[3])?,
            })
        }
        "DELETE" => {
            arity(1)?;
            Ok(Request::Delete {
                id: parse_id(rest[0])?,
            })
        }
        "FLUSH" => {
            arity(0)?;
            Ok(Request::Flush)
        }
        "SNAPSHOT" => {
            arity(0)?;
            Ok(Request::Snapshot)
        }
        "HEALTH" => {
            arity(0)?;
            Ok(Request::Health)
        }
        "STATS" => {
            arity(0)?;
            Ok(Request::Stats)
        }
        "ELEMS" => {
            arity(1)?;
            let n = parse_u64(rest[0], "count")? as usize;
            Ok(Request::Elems { n })
        }
        "SHUTDOWN" => {
            arity(0)?;
            Ok(Request::Shutdown)
        }
        other => Err(format!("unknown verb '{other}'")),
    }
}

/// Formats a response as its wire line (no trailing newline).
pub fn format_response(r: &Response) -> String {
    let mut line = String::new();
    write_response(r, &mut line);
    line
}

/// Appends a response's wire line (no trailing newline) to `out`: the
/// server's reply path, which reuses one buffer per connection.
pub fn write_response(r: &Response, out: &mut String) {
    match r {
        Response::Hits(ids) => {
            out.push_str("HITS ");
            push_decimal(out, ids.len() as u64);
            for &id in ids {
                out.push(' ');
                push_decimal(out, u64::from(id));
            }
        }
        Response::Ok => out.push_str("OK"),
        Response::Missing => out.push_str("MISSING"),
        Response::Overloaded => out.push_str("OVERLOADED"),
        Response::Timeout => out.push_str("TIMEOUT"),
        Response::Degraded => out.push_str("DEGRADED"),
        Response::Health(h) => {
            out.push_str("HEALTH ");
            out.push_str(h.as_str());
        }
        Response::Epoch(n) => {
            out.push_str("EPOCH ");
            push_decimal(out, *n);
        }
        Response::Stats(pairs) => {
            out.push_str("STATS");
            for (k, v) in pairs {
                out.push(' ');
                out.push_str(k);
                out.push('=');
                out.push_str(v);
            }
        }
        Response::Elems(terms) => {
            out.push_str("ELEMS");
            for t in terms {
                out.push(' ');
                out.push_str(t);
            }
        }
        Response::Bye => out.push_str("BYE"),
        Response::Err(msg) => {
            out.push_str("ERR ");
            out.extend(msg.chars().map(|c| if c == '\n' { ' ' } else { c }));
        }
    }
}

/// Appends `v` in decimal, without the `String` that `to_string` makes.
fn push_decimal(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// One `HITS` id: decimal digits only, within `u32`.
fn parse_hit(tok: &str) -> Option<ObjectId> {
    let mut v = 0u64;
    for b in tok.bytes() {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        v = v * 10 + u64::from(digit);
        if v > u64::from(ObjectId::MAX) {
            return None;
        }
    }
    ObjectId::try_from(v).ok()
}

/// Parses a response line (the loadgen side).
pub fn parse_response(line: &str) -> Result<Response, String> {
    let (verb, rest) = match line.split_once(' ') {
        Some((v, r)) => (v, r),
        None => (line, ""),
    };
    match verb {
        "HITS" => {
            let mut toks = rest.split_ascii_whitespace();
            let n: usize = toks
                .next()
                .ok_or("HITS without a count")?
                .parse()
                .map_err(|_| "bad HITS count".to_string())?;
            // Sized from the declared count, but never past what the
            // line can hold (an id costs it two bytes at least), so a
            // hostile count cannot allocate.
            let mut ids: Vec<ObjectId> = Vec::with_capacity(n.min(rest.len() / 2));
            for tok in toks {
                ids.push(parse_hit(tok).ok_or_else(|| format!("bad id '{tok}'"))?);
            }
            if ids.len() != n {
                return Err(format!("HITS count {n} but {} ids", ids.len()));
            }
            Ok(Response::Hits(ids))
        }
        "OK" => Ok(Response::Ok),
        "MISSING" => Ok(Response::Missing),
        "OVERLOADED" => Ok(Response::Overloaded),
        "TIMEOUT" => Ok(Response::Timeout),
        "DEGRADED" => Ok(Response::Degraded),
        "HEALTH" => HealthStatus::parse(rest.trim()).map(Response::Health),
        "EPOCH" => rest
            .trim()
            .parse()
            .map(Response::Epoch)
            .map_err(|_| format!("bad EPOCH value '{rest}'")),
        "STATS" => {
            let pairs = rest
                .split_ascii_whitespace()
                .map(|t| {
                    t.split_once('=')
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                        .ok_or_else(|| format!("bad stats pair '{t}'"))
                })
                .collect::<Result<_, _>>()?;
            Ok(Response::Stats(pairs))
        }
        "ELEMS" => Ok(Response::Elems(
            rest.split_ascii_whitespace().map(str::to_string).collect(),
        )),
        "BYE" => Ok(Response::Bye),
        "ERR" => Ok(Response::Err(rest.to_string())),
        other => Err(format!("unknown response verb '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_well_formed_requests() {
        assert_eq!(
            parse_request("QUERY 5 9 a,c").expect("query"),
            Request::Query {
                from: 5,
                to: 9,
                elems: vec!["a".into(), "c".into()],
                deadline_ms: None
            }
        );
        assert_eq!(
            parse_request("QUERY 5 9 a,c DEADLINE 250").expect("query"),
            Request::Query {
                from: 5,
                to: 9,
                elems: vec!["a".into(), "c".into()],
                deadline_ms: Some(250)
            }
        );
        assert_eq!(
            parse_request("INSERT 8 5 6 a,c").expect("insert"),
            Request::Insert {
                id: 8,
                from: 5,
                to: 6,
                elems: vec!["a".into(), "c".into()]
            }
        );
        assert_eq!(
            parse_request("DELETE 8").expect("delete"),
            Request::Delete { id: 8 }
        );
        assert_eq!(parse_request("FLUSH").expect("flush"), Request::Flush);
        assert_eq!(
            parse_request("SNAPSHOT").expect("snapshot"),
            Request::Snapshot
        );
        assert_eq!(parse_request("STATS").expect("stats"), Request::Stats);
        assert_eq!(
            parse_request("ELEMS 16").expect("elems"),
            Request::Elems { n: 16 }
        );
        assert_eq!(parse_request("HEALTH").expect("health"), Request::Health);
        assert_eq!(parse_request("SHUTDOWN").expect("bye"), Request::Shutdown);
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "NOPE 1 2",
            "QUERY 5 9",               // missing elems
            "QUERY 9 5 a",             // inverted interval
            "QUERY x 9 a",             // bad number
            "QUERY 5 9 a,,c",          // empty element token
            "QUERY 5 9 a DEADLINE",    // missing deadline value
            "QUERY 5 9 a DEADLINE x",  // bad deadline value
            "QUERY 5 9 a TIMEOUT 5",   // wrong trailing keyword
            "HEALTH now",              // arity
            "QUERY 5 9 ,",             // only empty tokens
            "INSERT 8 5 6",            // missing elems
            "INSERT 2147483648 0 1 a", // tombstone bit
            "DELETE",                  // missing id
            "DELETE x",                // bad id
            "STATS now",               // arity
            "FLUSH 1",                 // arity
            "SNAPSHOT now",            // arity
            "ELEMS",                   // arity
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn response_roundtrip() {
        for r in [
            Response::Hits(vec![1, 3, 6]),
            Response::Hits(vec![0, 9, 10, u32::MAX]),
            Response::Hits(vec![]),
            Response::Ok,
            Response::Missing,
            Response::Overloaded,
            Response::Timeout,
            Response::Degraded,
            Response::Health(HealthStatus::Ok),
            Response::Health(HealthStatus::Degraded),
            Response::Health(HealthStatus::Draining),
            Response::Epoch(42),
            Response::Stats(vec![
                ("epoch".into(), "7".into()),
                ("live".into(), "1000".into()),
            ]),
            Response::Elems(vec!["e1".into(), "e2".into()]),
            Response::Bye,
            Response::Err("bad thing".into()),
        ] {
            let line = format_response(&r);
            assert!(!line.contains('\n'));
            assert_eq!(parse_response(&line).expect("roundtrip"), r, "{line}");
        }
    }

    #[test]
    fn hits_count_must_match() {
        assert!(parse_response("HITS 2 1").is_err());
        assert!(parse_response("HITS 1 1 2").is_err());
        assert!(parse_response("HITS x").is_err());
        assert!(parse_response("HITS").is_err());
        // A count no line could hold is a mismatch, not an allocation.
        assert!(parse_response("HITS 18446744073709551615 7").is_err());
    }

    #[test]
    fn hits_ids_must_be_decimal_u32() {
        for bad in ["HITS 1 x", "HITS 1 -3", "HITS 2 1 2x", "HITS 1 1.5"] {
            assert!(parse_response(bad).is_err(), "{bad:?} has a non-digit id");
        }
        assert!(parse_response("HITS 1 4294967296").is_err(), "u32 overflow");
        assert!(parse_response("HITS 1 99999999999999999999999").is_err());
        assert_eq!(
            parse_response("HITS 4 0 9 10 4294967295"),
            Ok(Response::Hits(vec![0, 9, 10, u32::MAX]))
        );
    }

    #[test]
    fn epoch_value_must_parse() {
        assert!(parse_response("EPOCH x").is_err());
        assert!(parse_response("EPOCH").is_err());
    }

    #[test]
    fn health_state_must_parse() {
        assert!(parse_response("HEALTH weird").is_err());
        assert!(parse_response("HEALTH").is_err());
        assert_eq!(
            parse_response("HEALTH degraded").expect("health"),
            Response::Health(HealthStatus::Degraded)
        );
    }
}
