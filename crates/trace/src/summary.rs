//! Plain-text per-run summary exporter.

use crate::{Stage, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the per-run summary: the truncation banner when a ring wrapped,
/// stage totals, and the retained events counted per name.
pub(crate) fn render(tracer: &Tracer, label: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== trace summary: {label} ==");
    if !tracer.is_enabled() {
        let _ = writeln!(out, "(tracing disabled)");
        return out;
    }

    // A truncated trace must not masquerade as a complete one: lead with
    // the loss, don't bury it in the footer.
    let dropped_spans = tracer.dropped_spans();
    let dropped_events = tracer.dropped_events();
    if dropped_spans > 0 || dropped_events > 0 {
        let _ = writeln!(
            out,
            "!! TRACE TRUNCATED: ring buffers overflowed \
             ({dropped_spans} spans, {dropped_events} events dropped) — \
             totals below undercount; raise Tracer::with_capacity"
        );
    }

    let spans = tracer.spans();
    let mut counts = [0u64; Stage::ALL.len()];
    let mut totals_ns = [0u64; Stage::ALL.len()];
    for s in &spans {
        counts[s.stage as usize] += 1;
        totals_ns[s.stage as usize] += s.dur_ns;
    }
    let _ = writeln!(out, "{:<20} {:>10} {:>14}", "stage", "spans", "total secs");
    for stage in Stage::ALL {
        let i = stage as usize;
        if counts[i] == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{:<20} {:>10} {:>14.6}",
            stage.name(),
            counts[i],
            totals_ns[i] as f64 / 1e9
        );
    }

    let mut per_name: BTreeMap<&str, u64> = BTreeMap::new();
    for e in tracer.events() {
        *per_name.entry(e.name).or_default() += 1;
    }
    if !per_name.is_empty() {
        let _ = writeln!(out, "{:<20} {:>10}", "event", "retained");
        for (name, count) in per_name {
            let _ = writeln!(out, "{name:<20} {count:>10}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_summary_says_so() {
        let s = Tracer::disabled().summary("x");
        assert!(s.contains("trace summary: x"));
        assert!(s.contains("(tracing disabled)"));
    }

    #[test]
    fn summary_tables_stages_then_events_per_name() {
        let t = Tracer::new(2);
        t.record_span(0, 0, Stage::Encode, None, 0, 2_000_000_000);
        t.record_span(0, 0, Stage::Send, Some(0), 0, 500_000_000);
        t.record_event(0, "recovery", 1, 64);
        t.record_event(1, "recovery", 0, 64);
        t.record_event(0, "decode_error", 1, 12);
        t.record_event(1, "peer_down", 0, 0);
        t.record_event(1, "arena_miss", 0, 96);
        let s = t.summary("bfs");
        assert!(s.contains("trace summary: bfs"), "{s}");
        assert!(s.contains("encode"));
        assert!(s.contains("2.000000"));
        let events_at = s.find("retained").expect("event table present");
        assert!(s.find("stage").unwrap() < events_at, "{s}");
        let line = |name: &str| {
            s.lines()
                .find(|l| l.split_whitespace().next() == Some(name))
                .unwrap_or_else(|| panic!("no {name} line in {s}"))
                .split_whitespace()
                .nth(1)
                .expect("a count")
                .to_owned()
        };
        assert_eq!(line("recovery"), "2");
        assert_eq!(line("decode_error"), "1");
        // Every name is counted, not only the supervisor's.
        assert_eq!(line("peer_down"), "1");
        assert_eq!(line("arena_miss"), "1");
    }

    #[test]
    fn empty_enabled_summary_omits_optional_sections() {
        let s = Tracer::new(1).summary("idle");
        assert!(s.contains("stage"));
        assert!(!s.contains("retained"));
        assert!(!s.contains("TRACE TRUNCATED"));
    }

    #[test]
    fn wrapped_rings_put_truncation_banner_first() {
        let t = Tracer::with_capacity(1, 2);
        for i in 0..5 {
            t.record_span(0, 0, Stage::Send, Some(0), i * 10, 1);
        }
        for _ in 0..3 {
            t.record_event(0, "recovery", 0, 64);
        }
        assert_eq!(t.dropped_spans(), 3);
        assert_eq!(t.dropped_events(), 1);
        let s = t.summary("wrapped");
        let banner_at = s.find("TRACE TRUNCATED").expect("banner present");
        // The banner comes before any stage table or counters.
        assert!(banner_at < s.find("stage").unwrap(), "{s}");
        assert!(s.contains("3 spans, 1 events dropped"), "{s}");
        // Only the retained spans and events are tallied.
        assert!(s.contains("send") && s.contains("2"), "{s}");
        assert!(
            s.lines()
                .any(|l| l.split_whitespace().eq(["recovery", "2"])),
            "{s}"
        );
    }
}
