//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out when the run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the trace.
    pub id: u64,
    /// The span this call was made inside, if any.
    pub parent: Option<u64>,
    /// Shared by every span of one request or replayed query.
    pub request: u64,
    /// Layer and call, e.g. `core.kbest`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Collects spans from any thread.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span and return its id.
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("trace poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, request, parent, start, Instant::now());
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("trace poisoned").clone()
    }

    /// Self time in microseconds of every span called `name`: its
    /// duration minus the part of it that its children cover.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans();
        self_times(&spans, name)
            .into_iter()
            .map(|ns| ns as f64 / 1e3)
            .collect()
    }

    /// Write the trace as JSON lines, one span per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self times (ns) of the spans called `name`, in recording order.
pub fn self_times(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let mut children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            children.sort_unstable();
            // Union of the clipped child intervals.
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in children {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 7,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "http.request", 0, 100),
            // Overlapping children cover 10..60 once, not twice.
            span(2, Some(1), "loadgen.queue", 10, 40),
            span(3, Some(1), "http.exchange", 30, 60),
            // A child overrunning its parent is clipped.
            span(4, Some(1), "http.exchange", 90, 120),
        ];
        assert_eq!(self_times(&spans, "http.request"), vec![100 - 50 - 10]);
        assert_eq!(self_times(&spans, "http.exchange"), vec![30, 30]);
    }
}
