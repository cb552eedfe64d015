//! Benchmark-side spans around the program's public calls.
//!
//! A span records name, start, end, parent and operation id. Spans stay
//! in memory and are written as JSON when the run ends; a layer's self
//! time is its span minus the time its child spans cover. With tracing
//! off, [`Tracer::open`] and [`Tracer::close`] record nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.engine.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id (batch, job or step number within the run).
    pub op: u64,
}

/// In-memory span recorder for one benchmark run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Wall time spent inside `open`/`close` themselves.
    bookkeeping: Duration,
}

/// Handle returned by [`Tracer::open`]; pass it back to `close`.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            bookkeeping: Duration::ZERO,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let t0 = Instant::now();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(idx);
        self.bookkeeping += t0.elapsed();
        SpanId(Some(idx))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let t0 = Instant::now();
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.bookkeeping += t0.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, op);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall time the tracer spent recording spans.
    pub fn bookkeeping(&self) -> Duration {
        self.bookkeeping
    }

    /// Wall time since the tracer was created.
    pub fn elapsed(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Total self time per span name, in milliseconds: each span's
    /// duration minus the durations of its direct children.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// The trace as a JSON document; `meta` is a pre-rendered JSON object.
    pub fn to_json(&self, workload: &str, meta: &str) -> String {
        let mut s = String::new();
        let _ = write!(s, "{{\"workload\":\"{workload}\",\"meta\":{meta},\"self_ms\":{{");
        for (i, (name, ms)) in self.self_ms().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{name}\":{ms}");
        }
        s.push_str("},\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\",\"op\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.op
            );
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", 0);
        t.span("inner", 0, || std::thread::sleep(Duration::from_millis(5)));
        t.close(outer);
        let own = t.self_ms();
        assert!(own["inner"] >= 5.0);
        assert!(own["outer"] < own["inner"]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", 1);
        t.close(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.bookkeeping(), Duration::ZERO);
    }
}
