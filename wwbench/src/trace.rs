//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, the span that caused it, and start and end times. Spans stay in memory and are summarised when
//! the run ends; a disabled tracer runs the wrapped call and records
//! nothing, so the same code path measures the untraced baseline that
//! tracing overhead is taken against.

use parking_lot::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Name of the span that caused this one; `None` for a top-level span
    /// on a thread that drives the workload.
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(Span {
            name,
            parent,
            start_ns: (start - self.t0).as_nanos() as u64,
            end_ns: (end - self.t0).as_nanos() as u64,
        });
        out
    }

    /// Records a span measured by the caller.
    pub fn record_interval(
        &self,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.record(Span {
                name,
                parent,
                start_ns: start.saturating_duration_since(self.t0).as_nanos() as u64,
                end_ns: end.saturating_duration_since(self.t0).as_nanos() as u64,
            });
        }
    }

    fn record(&self, span: Span) {
        self.spans.lock().push(span);
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Total nanoseconds of the top-level spans (those with no parent).
    pub fn top_level_ns(&self) -> f64 {
        self.spans
            .lock()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_runs_the_call_and_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, || 7), 7);
        assert!(t.durations_ns("x").is_empty());
    }

    #[test]
    fn spans_are_grouped_by_name_and_top_level_sums_roots_only() {
        let t = Tracer::new(true);
        t.span("outer", None, || {
            t.span("inner", Some("outer"), || std::hint::black_box(3))
        });
        assert_eq!(t.durations_ns("outer").len(), 1);
        assert_eq!(t.durations_ns("inner").len(), 1);
        assert_eq!(t.top_level_ns(), t.durations_ns("outer")[0]);
    }
}
