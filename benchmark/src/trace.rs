//! In-memory spans recorded from the benchmark's own code around the
//! calls into each layer's public functions, written out when the run
//! ends. Spans inside the crates are a later change (ROADMAP item 2).
//!
//! A black-box call that hops threads (`QueryPool::execute`,
//! `EpochStore::flush`) cannot have its inside timed from here, so its
//! children are *re-measurements* of the same work through the layer's
//! own public function, linked by `parent`. Self time is therefore taken
//! by duration (span − Σ children), not by interval overlap.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Request (or write-group) the span belongs to; spans of one
    /// request share it across the TCP run and the in-process replay.
    pub req: u32,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    clock: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(clock: Instant) -> Tracer {
        Tracer {
            clock,
            spans: Vec::new(),
        }
    }

    /// Starts a span; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: u32, req: u32) -> u32 {
        let now = self.clock.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.clock.elapsed().as_nanos() as u64;
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Per-span self time (µs): duration minus the durations of the
    /// spans naming it as parent.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_us).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                own[s.parent as usize] -= s.dur_us();
            }
        }
        own
    }

    /// Writes every span as one JSON array.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_by_duration() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("root", NO_PARENT, 7);
        t.span("child", root, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let own = t.self_times_us();
        assert!(own[0] >= 0.0 && own[0] < t.spans[0].dur_us());
        assert!((own[0] + own[1] - t.spans[0].dur_us()).abs() < 1e-6);

        let mut other = Tracer::new(Instant::now());
        let r = other.open("root", NO_PARENT, 8);
        other.span("child", r, 8, || ());
        t.merge(other);
        assert_eq!(t.spans[3].parent, 2);
        assert_eq!(t.durations_us("child").len(), 2);
    }
}
