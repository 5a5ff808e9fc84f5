//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the program is instrumented. Spans stay
//! in memory until the run ends and are then written out beside the
//! metrics.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Position in the recording order.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The request this span serves (serve_mix), else 0.
    pub request: u64,
    /// Stage name (`layer.stage`).
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans against one time origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Tags the spans opened from now on with a request id.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Runs `body` inside a span named `name`, nested under the innermost
    /// open span, and returns its result and duration in seconds.
    pub fn span<T>(&mut self, name: &str, body: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len() as u64;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request: self.request,
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let value = body(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        (value, span.seconds())
    }

    /// Seconds since the tracer was created.
    #[must_use]
    pub fn elapsed(&self) -> f64 {
        self.now_ns() as f64 * 1e-9
    }

    /// Consumes the tracer, returning its spans.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// One row of the stage table: a span name's total and self time.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Span name.
    pub name: String,
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, in seconds.
    pub total_s: f64,
    /// Sum of their self times (duration minus the time their children
    /// cover), in seconds.
    pub self_s: f64,
}

/// Aggregates spans by name, in order of first appearance.
#[must_use]
pub fn stage_table(spans: &[Span]) -> Vec<StageRow> {
    let mut child_s = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_s[parent as usize] += span.seconds();
        }
    }
    let mut order: Vec<String> = Vec::new();
    let mut rows: BTreeMap<String, StageRow> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_s) {
        let row = rows.entry(span.name.clone()).or_insert_with(|| {
            order.push(span.name.clone());
            StageRow {
                name: span.name.clone(),
                count: 0,
                total_s: 0.0,
                self_s: 0.0,
            }
        });
        row.count += 1;
        row.total_s += span.seconds();
        row.self_s += span.seconds() - children;
    }
    order
        .into_iter()
        .map(|name| rows.remove(&name).expect("every named row was inserted"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut tracer = Tracer::new();
        tracer.set_request(7);
        let ((), outer) = tracer.span("outer", |tracer| {
            tracer.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert!(spans[1].seconds() <= outer);
        let table = stage_table(&spans);
        assert_eq!(table[0].name, "outer");
        assert!((table[0].self_s - (outer - spans[1].seconds())).abs() < 1e-12);
    }
}
