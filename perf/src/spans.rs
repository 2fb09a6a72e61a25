//! The benchmark's own tracing: a span (name, start, end, parent, trial
//! id) around every call into a layer, held in memory and written out as
//! Chrome trace JSON when the run ends.
//!
//! Every measurement goes through [`Spans::open`] / [`Spans::close`], which
//! *always* time the interval and hand the seconds back; recording the span
//! is the only thing tracing adds. The clock reads are therefore identical
//! with tracing on and off, and the span is pushed after the closing read,
//! outside any timed region.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The trial this span belongs to, when it belongs to one.
    pub trial: Option<u32>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// An interval being timed; [`Spans::close`] ends it.
pub struct Open {
    started: Instant,
    slot: Option<usize>,
}

impl Open {
    /// Index of the recorded span (`None` when tracing is off), to name
    /// it as a parent.
    pub fn id(&self) -> Option<usize> {
        self.slot
    }
}

/// The in-memory span store of one run.
pub struct Spans {
    on: bool,
    origin: Instant,
    recorded: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            recorded: Mutex::new(Vec::new()),
        }
    }

    /// Starts timing `name`.
    pub fn open(&self, name: &'static str, parent: Option<usize>, trial: Option<u32>) -> Open {
        self.open_when(true, name, parent, trial)
    }

    /// As [`Spans::open`], recording only when `record` holds as well — the
    /// traced pass leaves every other trial unrecorded to measure its own
    /// overhead.
    pub fn open_when(
        &self,
        record: bool,
        name: &'static str,
        parent: Option<usize>,
        trial: Option<u32>,
    ) -> Open {
        let slot = (self.on && record).then(|| {
            let mut recorded = self.lock();
            recorded.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                trial,
            });
            recorded.len() - 1
        });
        // Read the clock last, so reserving the slot is not inside the span.
        Open {
            started: Instant::now(),
            slot,
        }
    }

    /// Ends `open`, returning its length in seconds.
    pub fn close(&self, open: Open) -> f64 {
        let ended = Instant::now();
        if let Some(slot) = open.slot {
            let mut recorded = self.lock();
            recorded[slot].start_ns = self.ns(open.started);
            recorded[slot].end_ns = self.ns(ended);
        }
        (ended - open.started).as_secs_f64()
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from((at - self.origin).as_nanos()).expect("run shorter than 584 years")
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.recorded
            .lock()
            .expect("span store poisoned: a recording thread panicked")
    }

    /// Everything recorded so far, in opening order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Per-name totals of a span list.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub struct NameTotals {
    pub count: usize,
    pub total_secs: f64,
    /// Total minus the part covered by child spans.
    pub self_secs: f64,
}

/// Count, total time and self time per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, &covered) in spans.iter().zip(&child_ns) {
        let t = by_name.entry(s.name).or_default();
        let ns = s.end_ns - s.start_ns;
        t.count += 1;
        t.total_secs += ns as f64 / 1e9;
        t.self_secs += ns.saturating_sub(covered) as f64 / 1e9;
    }
    by_name
}

/// The spans as a Chrome trace-event document (`chrome://tracing`,
/// Perfetto): one complete (`"ph": "X"`) event per span, microseconds.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut args = vec![("id".to_string(), Json::Num(id as f64))];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Json::Num(p as f64)));
            }
            if let Some(t) = s.trial {
                args.push(("trial".to_string(), Json::Num(f64::from(t))));
            }
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                ("args", Json::Obj(args)),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_times_but_records_nothing() {
        let spans = Spans::new(false);
        let o = spans.open("x", None, None);
        assert!(o.id().is_none());
        assert!(spans.close(o) >= 0.0);
        assert!(spans.snapshot().is_empty());
    }

    #[test]
    fn records_parents_trials_and_skips_unrecorded_trials() {
        let spans = Spans::new(true);
        let root = spans.open("run", None, None);
        let a = spans.open_when(true, "trial", root.id(), Some(1));
        spans.close(a);
        let b = spans.open_when(false, "trial", root.id(), Some(2));
        assert!(b.id().is_none());
        spans.close(b);
        spans.close(root);
        let all = spans.snapshot();
        assert_eq!(all.len(), 2);
        assert_eq!((all[1].parent, all[1].trial), (Some(0), Some(1)));
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
        assert!(all[1].secs() >= 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            trial: None,
        };
        let spans = [
            span("setup", 0, 10_000_000_000, None),
            span("partition.build", 0, 6_000_000_000, Some(0)),
            span("core.memo", 6_000_000_000, 9_000_000_000, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["setup"].total_secs, 10.0);
        assert_eq!(t["setup"].self_secs, 1.0);
        assert_eq!(t["partition.build"].self_secs, 6.0);
        let doc = chrome_trace(&spans);
        let events = doc.get("traceEvents").expect("events").items();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("dur").and_then(Json::num), Some(6e6));
    }
}
