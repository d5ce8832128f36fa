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
//! The ids of a `HITS` line are strictly ascending, so each appears once:
//! the query pool hands the server its answers in that order
//! ([`crate::pool::QueryReply::ids`]), [`write_response`] asserts it in
//! debug builds, and load generators count a line that breaks it as a
//! wrong answer. `<n>` is the number of ids that follow.
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
    let mut line = Vec::new();
    write_response(r, &mut line);
    String::from_utf8(line).expect("a response line is ASCII tokens and pieces of `str`")
}

/// Appends a response's wire line (no trailing newline) to `out`: the
/// server's reply path, which reuses one byte buffer per connection.
pub fn write_response(r: &Response, out: &mut Vec<u8>) {
    match r {
        Response::Hits(ids) => write_hits(ids, out),
        Response::Ok => out.extend_from_slice(b"OK"),
        Response::Missing => out.extend_from_slice(b"MISSING"),
        Response::Overloaded => out.extend_from_slice(b"OVERLOADED"),
        Response::Timeout => out.extend_from_slice(b"TIMEOUT"),
        Response::Degraded => out.extend_from_slice(b"DEGRADED"),
        Response::Health(h) => {
            out.extend_from_slice(b"HEALTH ");
            out.extend_from_slice(h.as_str().as_bytes());
        }
        Response::Epoch(n) => {
            let mut token = [0u8; 6 + U64_DIGITS];
            token[..6].copy_from_slice(b"EPOCH ");
            let end = put_decimal(&mut token, 6, *n);
            out.extend_from_slice(&token[..end]);
        }
        Response::Stats(pairs) => {
            out.extend_from_slice(b"STATS");
            for (k, v) in pairs {
                out.push(b' ');
                out.extend_from_slice(k.as_bytes());
                out.push(b'=');
                out.extend_from_slice(v.as_bytes());
            }
        }
        Response::Elems(terms) => {
            out.extend_from_slice(b"ELEMS");
            for t in terms {
                out.push(b' ');
                out.extend_from_slice(t.as_bytes());
            }
        }
        Response::Bye => out.extend_from_slice(b"BYE"),
        Response::Err(msg) => {
            out.extend_from_slice(b"ERR ");
            // A newline is one byte in UTF-8 and no part of any other char.
            out.extend(msg.bytes().map(|b| if b == b'\n' { b' ' } else { b }));
        }
    }
}

/// `0x01` in every byte of a word.
const EACH_BYTE: u64 = 0x0101_0101_0101_0101;

/// Decimal digits of `u64::MAX`.
const U64_DIGITS: usize = 20;

/// Decimal digits of `ObjectId::MAX`, plus the blank before them.
const HIT_BYTES: usize = 11;

/// Writes `v` in decimal into `buf` from index `at` on and returns the
/// index after its last digit: the general writer, for the few numbers
/// of a line that are not short ids.
fn put_decimal(buf: &mut [u8], at: usize, mut v: u64) -> usize {
    let end = at + v.checked_ilog10().map_or(1, |log| log as usize + 1);
    for digit in buf[at..end].iter_mut().rev() {
        *digit = b'0' + (v % 10) as u8;
        v /= 10;
    }
    end
}

/// The eight decimal digits of `v < 10^8`, one per byte and the most
/// significant in the lowest: `v` is split into two four-digit halves,
/// those into four pairs, those into eight digits, every lane of a step
/// divided by one multiplication and shift.
#[inline]
fn eight_digits(v: u32) -> u64 {
    debug_assert!(v < 100_000_000);
    let fours = u64::from(v / 10_000) | (u64::from(v % 10_000) << 32);
    // x * 10486 >> 20 == x / 100 for x < 10^4; x * 103 >> 10 == x / 10
    // for x < 100 (`lane_divisions_are_exact` tries every x).
    let tops = ((fours * 10_486) >> 20) & 0x0000_007f_0000_007f;
    let pairs = tops | ((fours - tops * 100) << 16);
    let tens = ((pairs * 103) >> 10) & 0x000f_000f_000f_000f;
    tens | ((pairs - tens * 10) << 8)
}

/// The `HITS` arm: room for the widest possible line is made once, every
/// token is written through an index, and the line is cut to what was
/// used. An id below 10^8 is one eight-byte store of its digits, leading
/// zeros shifted out — the bytes past its last digit are the next
/// token's to overwrite; a longer id takes the general writer.
fn write_hits(ids: &[ObjectId], out: &mut Vec<u8>) {
    debug_assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "HITS ids must be strictly ascending"
    );
    let start = out.len();
    out.resize(start + 5 + U64_DIGITS + HIT_BYTES * ids.len(), 0);
    let line = &mut out[start..];
    line[..5].copy_from_slice(b"HITS ");
    let mut at = put_decimal(line, 5, ids.len() as u64);
    for &id in ids {
        line[at] = b' ';
        at += 1;
        if id < 100_000_000 {
            let digits = eight_digits(id);
            let zeros = (digits.trailing_zeros() as usize / 8).min(7);
            let text = (digits | (EACH_BYTE * 0x30)) >> (8 * zeros);
            line[at..at + 8].copy_from_slice(&text.to_le_bytes());
            at += 8 - zeros;
        } else {
            at = put_decimal(line, at, u64::from(id));
        }
    }
    out.truncate(start + at);
}

/// The blanks `split_ascii_whitespace` splits on.
#[inline]
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\x0C' | b'\r')
}

/// One `HITS` id: decimal digits only, within `u32`.
fn parse_hit(tok: &[u8]) -> Option<ObjectId> {
    let mut v = 0u64;
    for &b in tok {
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

/// The eight bytes at the start of a `HITS` id: the word with every
/// digit turned into its value (and a space into 0x10), and how many
/// digits lead it, 0 to 8.
#[inline]
fn leading_digits(word: [u8; 8]) -> (u64, usize) {
    let nibbles = u64::from_le_bytes(word) ^ (EACH_BYTE * 0x30);
    // The high bit of each byte that is not 0..=9 (no carry crosses a
    // byte: at most 0x7f + 0x76).
    let low7 = nibbles & (EACH_BYTE * 0x7f);
    let not_digit = ((low7 + EACH_BYTE * 0x76) | nibbles) & (EACH_BYTE * 0x80);
    (nibbles, not_digit.trailing_zeros() as usize / 8)
}

/// The number that the first `digits` (1 to 7) bytes of `nibbles` spell.
/// The token's last digit is shifted into the top byte — the bytes below
/// fill with zeros, which read as leading zeros — and pairs are folded,
/// then fours, then all eight; what a product carries past bit 63 is
/// never part of the number.
#[inline]
fn fold_digits(nibbles: u64, digits: usize) -> ObjectId {
    let v = nibbles << (8 * (8 - digits));
    let v = (v.wrapping_mul(2561) >> 8) & 0x00ff_00ff_00ff_00ff;
    let v = (v.wrapping_mul(6_553_601) >> 16) & 0x0000_ffff_0000_ffff;
    (v.wrapping_mul(42_949_672_960_001) >> 32) as ObjectId
}

/// The `HITS` arm of [`parse_response`]; `rest` is the line after the
/// verb's one space.
fn parse_hits(rest: &str) -> Result<Response, String> {
    let bytes = rest.as_bytes();
    // The token from the first non-blank byte at or after `at`: ends on
    // blanks (ASCII), so both are char boundaries of `rest`.
    let token_from = |at: usize| -> Option<(usize, usize)> {
        let start = at + bytes[at..].iter().position(|&b| !is_blank(b))?;
        let len = bytes[start..].iter().position(|&b| is_blank(b));
        Some((start, len.map_or(bytes.len(), |len| start + len)))
    };
    let (start, mut at) = token_from(0).ok_or("HITS without a count")?;
    let n: usize = rest[start..at]
        .parse()
        .map_err(|_| "bad HITS count".to_string())?;
    // Sized from the declared count, but never past what the
    // line can hold (an id costs it two bytes at least), so a
    // hostile count cannot allocate.
    let mut ids: Vec<ObjectId> = Vec::with_capacity(n.min(rest.len() / 2));
    // Digits of the last short id. Ascending ids keep one width for long
    // stretches, so the step to the next token is this number and the
    // load after it does not wait for this one's digits to be counted.
    let mut width = usize::MAX;
    loop {
        // The server's own lines: one space, then a short id and the
        // next token's space inside one eight-byte word.
        if let Some(&word) = bytes.get(at + 1..).and_then(<[u8]>::first_chunk::<8>) {
            if bytes[at] == b' ' {
                let (nibbles, digits) = leading_digits(word);
                if digits == width && word[width] == b' ' {
                    ids.push(fold_digits(nibbles, width));
                    at += 1 + width;
                    continue;
                }
                if (1..8).contains(&digits) && digits != width {
                    width = digits; // and read the same word again
                    continue;
                }
            }
        }
        // Everything else — long ids, tabs, runs of blanks, the line's
        // tail — a byte at a time.
        let Some((start, end)) = token_from(at) else {
            break;
        };
        let tok = &rest[start..end];
        ids.push(parse_hit(tok.as_bytes()).ok_or_else(|| format!("bad id '{tok}'"))?);
        at = end;
    }
    if ids.len() != n {
        return Err(format!("HITS count {n} but {} ids", ids.len()));
    }
    Ok(Response::Hits(ids))
}

/// Parses a response line (the loadgen side).
pub fn parse_response(line: &str) -> Result<Response, String> {
    let (verb, rest) = match line.split_once(' ') {
        Some((v, r)) => (v, r),
        None => (line, ""),
    };
    match verb {
        "HITS" => parse_hits(rest),
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

    // ----- differential tests against the parser and formatter that the
    // word-at-a-time ones replaced, kept here as reference models -----

    /// The token-at-a-time `HITS` parser (`rest` follows the verb's space).
    fn reference_parse_hits(rest: &str) -> Result<Response, String> {
        let mut toks = rest.split_ascii_whitespace();
        let n: usize = toks
            .next()
            .ok_or("HITS without a count")?
            .parse()
            .map_err(|_| "bad HITS count".to_string())?;
        let mut ids: Vec<ObjectId> = Vec::with_capacity(n.min(rest.len() / 2));
        for tok in toks {
            ids.push(parse_hit(tok.as_bytes()).ok_or_else(|| format!("bad id '{tok}'"))?);
        }
        if ids.len() != n {
            return Err(format!("HITS count {n} but {} ids", ids.len()));
        }
        Ok(Response::Hits(ids))
    }

    fn reference_parse_response(line: &str) -> Result<Response, String> {
        match line.split_once(' ') {
            Some(("HITS", rest)) => reference_parse_hits(rest),
            None if line == "HITS" => reference_parse_hits(""),
            _ => parse_response(line),
        }
    }

    /// The `char`-at-a-time decimal writer.
    fn reference_push_decimal(out: &mut String, mut v: u64) {
        let mut digits = [0u8; 20];
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

    fn reference_format_hits(ids: &[ObjectId]) -> String {
        let mut out = String::from("HITS ");
        reference_push_decimal(&mut out, ids.len() as u64);
        for &id in ids {
            out.push(' ');
            reference_push_decimal(&mut out, u64::from(id));
        }
        out
    }

    #[test]
    fn lane_divisions_are_exact() {
        for x in 0..10_000u64 {
            assert_eq!((x * 10_486) >> 20, x / 100, "{x}");
        }
        for x in 0..100u64 {
            assert_eq!((x * 103) >> 10, x / 10, "{x}");
        }
    }

    /// Ids on both sides of every power of ten, id 0 and `u32::MAX`.
    fn ids_around_powers_of_ten() -> Vec<ObjectId> {
        let mut ids = vec![0, 1, u32::MAX - 1, u32::MAX];
        let mut power = 10u32;
        loop {
            ids.extend([power - 1, power, power + 1]);
            match power.checked_mul(10) {
                Some(next) => power = next,
                None => break,
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    #[test]
    fn formatter_matches_the_reference_byte_for_byte() {
        let ids = ids_around_powers_of_ten();
        assert!(ids.len() > 28 && ids[0] == 0 && ids.last() == Some(&u32::MAX));
        // Every window: each id is somewhere the first token of a line,
        // the last, and followed by a shorter and a longer one.
        for from in 0..ids.len() {
            for to in from..=ids.len() {
                let set = &ids[from..to];
                let line = format_response(&Response::Hits(set.to_vec()));
                assert_eq!(line, reference_format_hits(set));
                assert_eq!(parse_response(&line), Ok(Response::Hits(set.to_vec())));
            }
        }
        // The count takes the general writer on its own: a long line.
        let many: Vec<ObjectId> = (0..12_345).map(|i| i * 7).collect();
        let line = format_response(&Response::Hits(many.clone()));
        assert_eq!(line, reference_format_hits(&many));
        assert_eq!(parse_response(&line), Ok(Response::Hits(many)));
        // Appending leaves what the buffer already held alone.
        let mut buf = b"kept ".to_vec();
        write_response(&Response::Hits(vec![7, 80]), &mut buf);
        assert_eq!(buf, b"kept HITS 2 7 80");
        write_response(&Response::Epoch(u64::MAX), &mut buf);
        assert_eq!(buf, b"kept HITS 2 7 80EPOCH 18446744073709551615");
    }

    /// Splitmix64: the mutation loop's own stream, seeded per case.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One hostile edit of a (so far) valid line. Every edit keeps the
    /// line UTF-8, as `parse_response` is only ever handed a `str`.
    fn mutate(line: &mut String, rng: &mut u64) {
        let r = mix(rng);
        // ASCII lines only grow non-ASCII chars through edit 1, which
        // inserts whole chars; positions are re-snapped to boundaries.
        let mut pos = (mix(rng) % (line.len() as u64 + 1)) as usize;
        while !line.is_char_boundary(pos) {
            pos -= 1;
        }
        // Token boundaries, for the edits that swap a whole token.
        let tokens: Vec<(usize, usize)> = {
            let mut found = Vec::new();
            let mut start = None;
            for (i, b) in line.bytes().enumerate() {
                match (start, b == b' ') {
                    (None, false) => start = Some(i),
                    (Some(s), true) => {
                        found.push((s, i));
                        start = None;
                    }
                    _ => {}
                }
            }
            if let Some(s) = start {
                found.push((s, line.len()));
            }
            found
        };
        let some_token = |rng: &mut u64, skip: usize| {
            (tokens.len() > skip)
                .then(|| tokens[skip + (mix(rng) % (tokens.len() - skip) as u64) as usize])
        };
        match r % 9 {
            // A digit (or anything) becomes a non-digit.
            0 if pos < line.len() => {
                // '°' ends in 0xB0, a digit's bit pattern under a high bit.
                const JUNK: [&str; 8] = ["x", "-", "+", ".", ":", "\u{e9}", "/", "\u{b0}"];
                let end = pos + line[pos..].chars().next().map_or(0, char::len_utf8);
                line.replace_range(pos..end, JUNK[(mix(rng) % 8) as usize]);
            }
            // A blank appears: doubled spaces, tabs, the other blanks.
            1 => {
                const BLANKS: [&str; 6] = [" ", "  ", "\t", "\r", "\x0c", "\n"];
                line.insert_str(pos, BLANKS[(mix(rng) % 6) as usize]);
            }
            // A space becomes a tab.
            2 => {
                if let Some(at) = line[pos..].find(' ') {
                    line.replace_range(pos + at..pos + at + 1, "\t");
                }
            }
            // The tail is cut off.
            3 => line.truncate(pos),
            // An id becomes one of 7 to 11 digits, or sits at the edge
            // of `u32`.
            4 | 5 => {
                if let Some((s, e)) = some_token(rng, 2) {
                    const EDGE: [&str; 5] = [
                        "4294967294",
                        "4294967295",
                        "4294967296",
                        "0000000",
                        "00000000042",
                    ];
                    let token = match mix(rng) % 10 {
                        k @ 0..=4 => {
                            let digits = 7 + k as usize;
                            let v = mix(rng) % 10u64.pow(digits as u32);
                            format!("{v:0digits$}")
                        }
                        k => EDGE[(k - 5) as usize].to_string(),
                    };
                    line.replace_range(s..e, &token);
                }
            }
            // The count is off by one, or no line could hold it.
            6 | 7 => {
                if let Some(&(s, e)) = tokens.get(1) {
                    let count = match (line[s..e].parse::<u64>(), mix(rng) % 4) {
                        (Ok(n), 0) => n.saturating_add(1).to_string(),
                        (Ok(n), 1) => n.saturating_sub(1).to_string(),
                        (_, 2) => "18446744073709551615".to_string(),
                        _ => "99999999999999999999".to_string(),
                    };
                    line.replace_range(s..e, &count);
                }
            }
            // A digit is dropped or doubled inside a token.
            _ => {
                if let Some((s, e)) = some_token(rng, 1) {
                    if mix(rng).is_multiple_of(2) && e - s > 1 {
                        line.remove(s);
                    } else {
                        line.insert(s, '9');
                    }
                }
            }
        }
    }

    /// One valid line per verb: the seeds of the request mutation loop.
    const VALID_REQUESTS: [&str; 9] = [
        "QUERY 5 9 a,c DEADLINE 250",
        "INSERT 8 5 6 a,c",
        "DELETE 8",
        "FLUSH",
        "SNAPSHOT",
        "HEALTH",
        "STATS",
        "ELEMS 16",
        "SHUTDOWN",
    ];

    /// What the server assumes of a parsed request when it applies one:
    /// `Object::new` and `TimeTravelQuery::new` assert the first three,
    /// and the deadline is added to the dispatch instant.
    fn applicable(req: &Request) -> Result<(), String> {
        let span = |from: u64, to: u64| match from <= to {
            true => Ok(()),
            false => Err(format!("from {from} > to {to}")),
        };
        let id = |id: ObjectId| match id < 1 << 31 {
            true => Ok(()),
            false => Err(format!("id {id} carries the tombstone bit")),
        };
        let elems = |elems: &[String]| match elems.is_empty() || elems.iter().any(String::is_empty)
        {
            true => Err(format!("empty element token in {elems:?}")),
            false => Ok(()),
        };
        match req {
            Request::Query {
                from,
                to,
                elems: e,
                deadline_ms,
            } => {
                span(*from, *to)?;
                elems(e)?;
                let ms = deadline_ms.unwrap_or(0);
                match std::time::Instant::now().checked_add(std::time::Duration::from_millis(ms)) {
                    Some(_) => Ok(()),
                    None => Err(format!("deadline {ms} ms overflows the clock")),
                }
            }
            Request::Insert {
                id: i,
                from,
                to,
                elems: e,
            } => {
                id(*i)?;
                span(*from, *to)?;
                elems(e)
            }
            Request::Delete { id: i } => id(*i),
            _ => Ok(()),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Every edit of a valid request line parses to an error or to a
        /// request the server can apply without panicking.
        #[test]
        fn mutated_requests_parse_to_an_error_or_an_applicable_request(
            verb in 0..VALID_REQUESTS.len(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut line = VALID_REQUESTS[verb].to_string();
            assert!(parse_request(&line).is_ok(), "{line:?}");
            let mut rng = seed;
            for _ in 0..1 + mix(&mut rng) % 4 {
                mutate(&mut line, &mut rng);
                if let Ok(req) = parse_request(&line) {
                    if let Err(e) = applicable(&req) {
                        panic!("{line:?} parsed to {req:?}: {e}");
                    }
                }
            }
        }

        /// The new `HITS` parser accepts and rejects exactly what the
        /// token-wise one does, with the same answer or the same message;
        /// and no edit of a response line makes `parse_request` panic.
        #[test]
        fn hits_parser_matches_the_reference_on_mutated_lines(
            widths in proptest::prop::collection::vec((1..=10u32, proptest::prelude::any::<u32>()), 0..48),
            seed in proptest::prelude::any::<u64>(),
        ) {
            // Ids of every width, ascending.
            let mut ids: Vec<ObjectId> = widths
                .iter()
                .map(|&(digits, r)| {
                    let below = 10u64.pow(digits).min(u64::from(u32::MAX) + 1);
                    let from = if digits == 1 { 0 } else { 10u64.pow(digits - 1) };
                    (from + u64::from(r) % (below - from)) as ObjectId
                })
                .collect();
            ids.sort_unstable();
            ids.dedup();
            let mut line = format_response(&Response::Hits(ids.clone()));
            assert_eq!(line, reference_format_hits(&ids));
            assert_eq!(parse_response(&line), Ok(Response::Hits(ids)));
            let mut rng = seed;
            for _ in 0..1 + mix(&mut rng) % 4 {
                mutate(&mut line, &mut rng);
                assert_eq!(
                    parse_response(&line),
                    reference_parse_response(&line),
                    "{line:?}"
                );
                // Whatever it says, it says without panicking.
                let _ = parse_request(&line);
                let _ = parse_request(&line.replacen("HITS", "QUERY", 1));
                let _ = parse_request(&line.replacen("HITS", "DELETE", 1));
            }
        }
    }
}
