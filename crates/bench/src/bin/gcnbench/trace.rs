//! In-memory span recorder for the traced pass, written out once as Chrome
//! trace-event JSON (`chrome://tracing`, Perfetto) when the run ends.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer; only the measuring thread records, so there is no locking.

use std::fmt::Write as _;
use std::time::Instant;

use crate::json::quote;

/// Identifier of a recorded span (its index).
pub type SpanId = u32;

/// One closed interval of work attributed to a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what[.L<i>]`, e.g. `kernels.spmm.L1`.
    pub name: String,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Operation (closed loops) or request (serving) the span belongs to.
    pub op: u64,
    /// Microseconds since the tracer started.
    pub start_us: f64,
    pub end_us: f64,
    /// Work counts at this boundary (rows, nnz, K, bytes, ...).
    pub counts: Vec<(&'static str, u64)>,
}

/// Span store; a disabled tracer records nothing, so the same code path
/// runs untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Seconds spent inside [`Tracer::record`].
    recording_s: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            recording_s: 0.0,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent recording spans so far (the tracer's own cost).
    pub fn recording_s(&self) -> f64 {
        self.recording_s
    }

    /// Records `[start, end]` and returns its id (`None` when disabled).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        end: Instant,
        counts: &[(&'static str, u64)],
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let entered = Instant::now();
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.into(),
            parent,
            op,
            start_us: us(start),
            end_us: us(end),
            counts: counts.to_vec(),
        });
        self.recording_s += entered.elapsed().as_secs_f64();
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Opens a span that starts now; [`Tracer::close`] ends it. For a parent
    /// whose children are recorded while it runs.
    pub fn open(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        op: u64,
        counts: &[(&'static str, u64)],
    ) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, parent, op, now, now, counts)
    }

    /// Ends a span opened with [`Tracer::open`] now.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = Instant::now().saturating_duration_since(self.origin);
            self.spans[id as usize].end_us = now.as_secs_f64() * 1e6;
        }
    }

    /// Times `f` and records it as one span.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        op: u64,
        counts: &[(&'static str, u64)],
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.record(name, parent, op, start, end, counts);
        (r, (end - start).as_secs_f64() * 1e3)
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span,
    /// one track per layer (the name's first dotted component).
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let mut tracks: Vec<&str> = Vec::new();
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or("");
            let tid = match tracks.iter().position(|t| *t == layer) {
                Some(i) => i,
                None => {
                    tracks.push(layer);
                    tracks.len() - 1
                }
            };
            let mut args = format!("\"id\": {id}, \"op\": {}", s.op);
            if let Some(p) = s.parent {
                let _ = write!(args, ", \"parent\": {p}");
            }
            for (k, v) in &s.counts {
                let _ = write!(args, ", {}: {v}", quote(k));
            }
            let _ = writeln!(
                out,
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {tid}, \"args\": {{{args}}}}},",
                quote(&s.name),
                quote(layer),
                s.start_us,
                s.end_us - s.start_us,
            );
        }
        for (tid, layer) in tracks.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"args\": {{\"name\": {}}}}},",
                quote(layer)
            );
        }
        let _ = write!(
            out,
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": {{\"name\": {}}}}}\n]}}\n",
            quote(&format!("gcnbench {workload}"))
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::tests::balanced;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("gcn.infer", None, 0, now, now, &[]), None);
        let (v, ms) = t.time("gcn.infer", None, 0, &[], || 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        let id = t.open("gcn.replay", None, 0, &[]);
        t.close(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn an_open_span_covers_what_is_recorded_before_it_closes() {
        let mut t = Tracer::new(true);
        let root = t.open("gcn.replay", None, 0, &[]);
        let (_, _) = t.time("gcn.copy_in", root, 0, &[], || std::hint::black_box(1));
        t.close(root);
        let (outer, inner) = (&t.spans()[0], &t.spans()[1]);
        assert_eq!(inner.parent, Some(0));
        assert!(outer.start_us <= inner.start_us && inner.end_us <= outer.end_us);
        assert!(t.recording_s() > 0.0);
    }

    #[test]
    fn chrome_json_is_balanced_and_escaped() {
        let mut t = Tracer::new(true);
        let now = Instant::now();
        let p = t.record("serving.queue", None, 1, now, now, &[("rows", 16)]);
        t.record("odd\"name\\.x", p, 1, now, now, &[]);
        let json = t.to_chrome_json("serve \"x\"");
        assert!(balanced(&json), "{json}");
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"rows\": 16"));
        assert!(json.contains("odd\\\"name\\\\.x"));
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
    }
}
