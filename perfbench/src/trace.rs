//! The traced run's span log. Spans are recorded around the calls into
//! each layer (the benchmark adds none inside the program); the
//! rewriter's own phase and pass spans from `rewrite_with_trace` are
//! nested under the benchmark's `rewrite` span. Everything stays in
//! memory and is written as chrome-trace JSON when the run ends.

use brew_core::telemetry::SpanKind;
use brew_core::SpanRecorder;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or phase name.
    pub name: String,
    /// Category (`publish`, `layer`, `phase`, `pass`, ...).
    pub cat: &'static str,
    /// Start, ns since the log was created.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// The request the span belongs to (the chrome `tid`).
    pub request: u64,
}

/// In-memory span log of a traced run.
#[derive(Debug)]
pub struct TraceLog {
    t0: Instant,
    spans: Vec<Span>,
    /// Requests whose spans are kept; later ones are timed but not logged,
    /// so the file stays small on long runs.
    pub keep_requests: u64,
}

impl TraceLog {
    /// An empty log; its clock starts now.
    pub fn new(keep_requests: u64) -> Self {
        TraceLog {
            t0: Instant::now(),
            spans: Vec::new(),
            keep_requests,
        }
    }

    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Record a span of `request` from `start_ns` lasting `dur_ns`.
    pub fn span(
        &mut self,
        request: u64,
        name: &str,
        cat: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) {
        if request < self.keep_requests {
            self.spans.push(Span {
                name: name.to_string(),
                cat,
                start_ns,
                dur_ns,
                request,
            });
        }
    }

    /// Nest the rewriter's own spans (`rec` was created at `start_ns` on
    /// this log's clock) under `request`.
    pub fn nest(&mut self, request: u64, start_ns: u64, rec: &SpanRecorder) {
        for e in rec.events() {
            if e.kind == SpanKind::Complete {
                self.span(request, &e.name, e.cat, start_ns + e.start_ns, e.dur_ns);
            }
        }
    }

    /// Number of spans logged.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The log as chrome://tracing JSON (`{"traceEvents":[...]}`), one
    /// track per request.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                escape(&s.name),
                s.cat,
                s.request,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            );
        }
        out.push_str("]}");
        out
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_is_valid_and_bounded() {
        let mut log = TraceLog::new(1);
        log.span(0, "publish \"x\"", "publish", 10, 5);
        log.span(1, "dropped", "publish", 20, 5);
        assert_eq!(log.len(), 1);
        let json = log.chrome_json();
        brew_core::validate_json(&json).expect("strict JSON");
        assert!(json.contains("publish \\\"x\\\""));
    }
}
