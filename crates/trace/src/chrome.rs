//! Chrome trace-event JSON exporter.
//!
//! Produces the `chrome://tracing` / Perfetto "trace event format": a JSON
//! object whose `traceEvents` array holds complete spans (`"ph":"X"`),
//! instant events (`"ph":"i"`), and metadata records naming processes and
//! threads. One *process* per recorded run, one *thread track* per
//! simulated host. Timestamps are microseconds from the tracer's epoch.

use crate::{Stage, Tracer};
use std::fmt::Write as _;

/// Accumulates one or more [`Tracer`] recordings into a single Chrome
/// trace document (each recording becomes its own process track).
///
/// # Examples
///
/// ```
/// use gluon_trace::{ChromeTraceBuilder, Stage, Tracer};
///
/// let t = Tracer::new(1);
/// t.record_span(0, 0, Stage::Send, Some(0), 0, 100);
/// let mut b = ChromeTraceBuilder::new();
/// b.add("bfs/4-hosts", &t);
/// let json = b.finish();
/// assert!(json.starts_with("{\"traceEvents\":["));
/// assert!(json.contains("\"bfs/4-hosts\""));
/// ```
#[derive(Debug, Default)]
pub struct ChromeTraceBuilder {
    events: String,
    any: bool,
    next_pid: u32,
}

impl ChromeTraceBuilder {
    /// An empty builder.
    pub fn new() -> ChromeTraceBuilder {
        ChromeTraceBuilder::default()
    }

    fn push_event(&mut self, body: &str) {
        if self.any {
            self.events.push(',');
        }
        self.any = true;
        self.events.push_str(body);
    }

    /// Appends every span and event of `tracer` as a new process named
    /// `process_name`. Disabled tracers contribute nothing.
    pub fn add(&mut self, process_name: &str, tracer: &Tracer) {
        if !tracer.is_enabled() {
            return;
        }
        let pid = self.next_pid;
        self.next_pid += 1;
        self.push_event(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
            escape(process_name)
        ));
        for host in 0..tracer.world_size() {
            self.push_event(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{host},\
                 \"args\":{{\"name\":\"host {host}\"}}}}"
            ));
        }
        for s in tracer.spans() {
            let mut body = String::with_capacity(160);
            let _ = write!(
                body,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{pid},\"tid\":{},\"args\":{{\"phase\":{}",
                s.stage.name(),
                if s.stage == Stage::Sync {
                    "phase"
                } else {
                    "sync"
                },
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.host,
                // Render the setup sentinel as -1 so the JSON stays small.
                if s.phase == crate::SETUP_PHASE {
                    -1i64
                } else {
                    s.phase as i64
                },
            );
            if let Some(peer) = s.peer {
                let _ = write!(body, ",\"peer\":{peer}");
            }
            body.push_str("}}");
            self.push_event(&body);
        }
        for e in tracer.events() {
            self.push_event(&format!(
                "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{:.3},\"pid\":{pid},\"tid\":{},\
                 \"args\":{{\"peer\":{},\"bytes\":{}}}}}",
                escape(e.name),
                e.at_ns as f64 / 1e3,
                e.host,
                e.peer,
                e.bytes,
            ));
        }
    }

    /// Finalizes the JSON document.
    pub fn finish(self) -> String {
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
            self.events
        )
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_builder_is_a_valid_document() {
        let json = ChromeTraceBuilder::new().finish();
        assert_eq!(json, "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
    }

    #[test]
    fn disabled_tracer_adds_nothing() {
        let mut b = ChromeTraceBuilder::new();
        b.add("nothing", &Tracer::disabled());
        assert_eq!(
            b.finish(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }

    #[test]
    fn spans_events_and_metadata_appear() {
        let t = Tracer::new(2);
        t.record_span(0, 4, Stage::Encode, Some(1), 1_000, 2_000);
        t.record_event(1, "recovery", 0, 64);
        let mut b = ChromeTraceBuilder::new();
        b.add("run \"a\"", &t);
        let json = b.finish();
        assert!(json.contains("\"run \\\"a\\\"\""), "{json}");
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"encode\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":2.000"));
        assert!(json.contains("\"peer\":1"));
        assert!(json.contains("\"name\":\"recovery\""));
        assert!(json.contains("\"bytes\":64"));
    }

    #[test]
    fn empty_enabled_tracer_exports_metadata_only() {
        let mut b = ChromeTraceBuilder::new();
        b.add("idle", &Tracer::new(2));
        let json = b.finish();
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"host 1\""));
        assert!(!json.contains("\"ph\":\"X\""));
        assert!(!json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn wrapped_ring_exports_only_retained_spans() {
        let t = Tracer::with_capacity(1, 2);
        for i in 0..5u64 {
            t.record_span(0, 0, Stage::Send, Some(0), i * 1_000, 100);
        }
        assert_eq!(t.dropped_spans(), 3);
        let mut b = ChromeTraceBuilder::new();
        b.add("wrapped", &t);
        let json = b.finish();
        // Only the two newest spans survive the ring; the document stays
        // well-formed and the evicted timestamps are gone.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"ts\":3.000"));
        assert!(json.contains("\"ts\":4.000"));
        assert!(!json.contains("\"ts\":0.000"));
    }

    #[test]
    fn multiple_recordings_get_distinct_pids() {
        let a = Tracer::new(1);
        a.record_span(0, 0, Stage::Send, None, 0, 1);
        let b_t = Tracer::new(1);
        b_t.record_span(0, 0, Stage::Send, None, 0, 1);
        let mut b = ChromeTraceBuilder::new();
        b.add("first", &a);
        b.add("second", &b_t);
        let json = b.finish();
        assert!(json.contains("\"pid\":0"));
        assert!(json.contains("\"pid\":1"));
    }
}
