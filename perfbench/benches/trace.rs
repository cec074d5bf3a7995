//! In-memory spans around the benchmark's calls into each layer.
//!
//! A traced operation opens a root span named [`OP`]; every call into a
//! layer's public function inside it opens a child span named
//! `<layer>.<what>`. Spans of one operation share its index. Nothing is
//! written while the workload runs: the spans are summarized when the
//! run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span of one traced operation.
pub const OP: &str = "op";

/// One recorded span; times are seconds since the tracer was created.
struct Span {
    op: usize,
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Runs `body` in a span of `tracer` when there is one, and bare
/// otherwise, so that one code path serves untraced and traced runs.
pub fn span<T>(tracer: Option<&Tracer>, name: &'static str, body: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, body),
        None => body(),
    }
}

/// Per-name totals over every recorded span.
pub struct SpanStats {
    pub calls: usize,
    pub total_secs: f64,
    pub self_secs: f64,
}

pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: Cell<Option<usize>>,
    op: Cell<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: Cell::new(None),
            op: Cell::new(0),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `body` inside a span called `name`, child of the open span.
    pub fn span<T>(&self, name: &'static str, body: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                op: self.op.get(),
                name,
                start: self.now(),
                end: f64::NAN,
                parent: self.open.get(),
            });
            spans.len() - 1
        };
        let parent = self.open.replace(Some(id));
        let out = body();
        self.spans.borrow_mut()[id].end = self.now();
        self.open.set(parent);
        out
    }

    /// Runs traced operation number `op` under a root [`OP`] span and
    /// returns its result with the root span's duration in seconds.
    pub fn op<T>(&self, op: usize, body: impl FnOnce() -> T) -> (T, f64) {
        self.op.set(op);
        let first = self.spans.borrow().len();
        let out = self.span(OP, body);
        let spans = self.spans.borrow();
        (out, spans[first].end - spans[first].start)
    }

    /// Number of traced operations (root spans).
    pub fn ops(&self) -> usize {
        let spans = self.spans.borrow();
        let mut ops: Vec<usize> = spans
            .iter()
            .filter(|s| s.name == OP)
            .map(|s| s.op)
            .collect();
        ops.dedup();
        ops.len()
    }

    /// Totals per span name: calls, wall time, and self time (wall time
    /// minus the time its child spans cover).
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let spans = self.spans.borrow();
        let mut child_secs = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_secs[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (s, child) in spans.iter().zip(&child_secs) {
            let stats = out.entry(s.name).or_insert(SpanStats {
                calls: 0,
                total_secs: 0.0,
                self_secs: 0.0,
            });
            stats.calls += 1;
            stats.total_secs += s.end - s.start;
            stats.self_secs += s.end - s.start - child;
        }
        out
    }

    /// Mean milliseconds per traced operation spent in spans called
    /// `name` (0 when no such span was recorded).
    pub fn ms_per_op(&self, name: &str) -> f64 {
        let ops = self.ops().max(1) as f64;
        self.summary()
            .get(name)
            .map_or(0.0, |s| s.total_secs * 1e3 / ops)
    }
}
