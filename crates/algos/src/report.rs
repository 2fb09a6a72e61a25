//! Post-run observability: [`RunReport`] merges a run's [`DistOutcome`]
//! with the [`MetricsHub`] every layer published into, computes the
//! α–β cost-model calibration residuals, and exports the whole thing as
//! a stable machine-readable JSON document and as Prometheus text
//! exposition.
//!
//! # Two sections
//!
//! The document is `{schema_version, deterministic, observed}`. The
//! `deterministic` section holds what a deterministic run reproduces
//! exactly: round and phase counts, payload totals, the wire-mode table,
//! and per host the deterministic registry, whose `round_ledger` gauge
//! pins every round's traffic. Everything else is `observed`: timings,
//! calibration, supervisor counters, the observed registries and the
//! trace ring's health. A metric's section is decided where it is
//! registered (see [`gluon_metrics::HostMetrics`]), not here, and
//! [`RunReport::fingerprint`] is the `deterministic` section, rendered.
//! Two fingerprints are equal whenever two runs performed the same
//! communication — across thread counts, transports, and crash-free vs.
//! crash-recovered executions of the same configuration.
//!
//! # Calibration
//!
//! The harness projects communication time with
//! [`CostModel::phase_time`]; the report checks that projection against
//! what actually happened. For every aligned sync phase it takes the
//! *measured* time (the maximum `comm_secs` across hosts — BSP progress
//! is gated by the slowest host) and the *projected* time (the model
//! applied to the phase's per-host maximum bytes and messages), and
//! reports `residual = measured - projected` plus their ratio. The
//! per-phase byte and message counts come from [`SyncStats`], which books
//! the transport's `NetStats` counts, not the hub's payloads, so the
//! projection charges everything the phase handed the wire.

use crate::driver::DistOutcome;
use gluon::SyncStats;
use gluon_metrics::json::Json;
use gluon_metrics::{
    HostMetrics, MetricValue, MetricsHub, Registry, MODE_BYTE_COUNTER_NAMES,
    MODE_MSG_COUNTER_NAMES, NUM_WIRE_MODES, WIRE_MODE_NAMES,
};
use gluon_net::{CostModel, StatsDelta};
use gluon_trace::Tracer;

/// Version of the report's JSON schema; bumped whenever a field is
/// renamed, removed, or changes meaning (additions are backwards
/// compatible and do not bump it).
pub const REPORT_SCHEMA_VERSION: u64 = 6;

/// A merged, exportable view of one run: outcome + metrics + calibration.
///
/// Build with [`DistOutcome::report`] (or [`RunReport::new`]); export
/// with [`RunReport::render_json`] / [`RunReport::prometheus`]; compare
/// runs with [`RunReport::fingerprint`].
///
/// # Examples
///
/// ```
/// use gluon_algos::{Algorithm, Run};
/// use gluon_graph::gen;
/// use gluon_metrics::MetricsHub;
/// use gluon_net::CostModel;
///
/// let g = gen::rmat(6, 6, Default::default(), 1);
/// let hub = MetricsHub::new(2);
/// let out = Run::new(&g, Algorithm::Bfs).hosts(2).metrics(&hub).launch();
/// let report = out.report(&hub, &CostModel::REPRO);
/// let deterministic = report.json().get("deterministic").unwrap();
/// assert_eq!(deterministic.get("hosts").unwrap().as_u64(), Some(2));
/// assert_eq!(report.fingerprint(), deterministic.render());
/// assert!(report.prometheus().contains("gluon_bytes_sent"));
/// ```
#[derive(Clone, Debug)]
pub struct RunReport {
    json: Json,
    prometheus: String,
}

impl RunReport {
    /// Builds the report from a finished run, its metrics hub, and the
    /// cost model to calibrate against. The hub may be disabled — the
    /// outcome-level sections (totals, timing, calibration) are computed
    /// from [`DistOutcome`] alone; metrics-fed sections come out empty.
    pub fn new(outcome: &DistOutcome, hub: &MetricsHub, model: &CostModel) -> RunReport {
        RunReport::with_tracer(outcome, hub, model, &Tracer::disabled())
    }

    /// As [`RunReport::new`], additionally folding the tracer's ring
    /// health (dropped spans/events) into the `trace` section.
    pub fn with_tracer(
        outcome: &DistOutcome,
        hub: &MetricsHub,
        model: &CostModel,
        tracer: &Tracer,
    ) -> RunReport {
        RunReport {
            json: build_json(outcome, hub, model, tracer),
            prometheus: hub.prometheus(),
        }
    }

    /// The report as a JSON tree.
    pub fn json(&self) -> &Json {
        &self.json
    }

    /// The report serialized as a single-line JSON document.
    pub fn render_json(&self) -> String {
        self.json.render()
    }

    /// The hub's metrics in Prometheus text exposition format (empty when
    /// the hub was disabled).
    pub fn prometheus(&self) -> &str {
        &self.prometheus
    }

    /// The `deterministic` section, rendered. Equal for runs that
    /// performed identical communication — across thread counts,
    /// transports, and crash-free vs. recovered executions.
    pub fn fingerprint(&self) -> String {
        self.json
            .get("deterministic")
            .expect("every report has a deterministic section")
            .render()
    }
}

impl DistOutcome {
    /// Builds the [`RunReport`] for this outcome. Pass the hub the run
    /// published into (via [`crate::Run::metrics`]) and the cost model
    /// whose projection the calibration section should be checked
    /// against.
    pub fn report(&self, hub: &MetricsHub, model: &CostModel) -> RunReport {
        RunReport::new(self, hub, model)
    }

    /// As [`DistOutcome::report`], with the run's tracer so the report
    /// carries trace ring health (dropped spans/events).
    pub fn report_with_tracer(
        &self,
        hub: &MetricsHub,
        model: &CostModel,
        tracer: &Tracer,
    ) -> RunReport {
        RunReport::with_tracer(self, hub, model, tracer)
    }
}

fn build_json(outcome: &DistOutcome, hub: &MetricsHub, model: &CostModel, tracer: &Tracer) -> Json {
    let deterministic = Json::obj([
        ("hosts", Json::from(outcome.host_stats.len())),
        ("rounds", Json::from(outcome.rounds)),
        ("phases", Json::from(outcome.run.phases)),
        ("metrics_enabled", Json::from(hub.is_enabled())),
        ("totals", totals_json(outcome, hub)),
        ("wire_modes", wire_modes_json(hub)),
        ("per_host", per_host_json(hub, HostMetrics::deterministic)),
    ]);
    let observed = Json::obj([
        ("recoveries", Json::from(outcome.recoveries)),
        (
            "checkpoints_saved",
            Json::from(hub.counter_across_hosts("checkpoints_saved")),
        ),
        ("timing", timing_json(outcome)),
        ("exec", exec_json(hub)),
        ("cluster", registry_json(&hub.cluster())),
        ("per_host", per_host_json(hub, HostMetrics::observed)),
        ("calibration", calibration_json(&outcome.host_stats, model)),
        ("trace", trace_json(tracer)),
    ]);
    Json::obj([
        ("schema_version", Json::from(REPORT_SCHEMA_VERSION)),
        ("deterministic", deterministic),
        ("observed", observed),
    ])
}

fn totals_json(outcome: &DistOutcome, hub: &MetricsHub) -> Json {
    // Two byte-accounting layers exist: the hub counts raw sync payloads
    // (deterministic — a replayed run moves exactly the same payload
    // bytes), while [`RunStats`] counts what each phase handed the
    // transport. The totals here are the payload view whenever the hub
    // recorded one.
    //
    // [`RunStats`]: gluon::RunStats
    let (bytes, messages, max_bytes, max_messages) = if hub.is_enabled() {
        let sum_and_max = |name: &str| {
            (0..hub.world_size())
                .map(|r| hub.host(r).deterministic().counter_value(name))
                .fold((0u64, 0u64), |(s, m), v| (s + v, m.max(v)))
        };
        let (bytes, max_bytes) = sum_and_max("bytes_sent");
        let (messages, max_messages) = sum_and_max("messages_sent");
        (bytes, messages, max_bytes, max_messages)
    } else {
        (
            outcome.run.total_bytes,
            outcome.run.total_messages,
            outcome.run.max_host_bytes,
            outcome.run.max_host_messages,
        )
    };
    let mut fields = vec![
        ("bytes_sent", Json::from(bytes)),
        ("messages_sent", Json::from(messages)),
        ("max_host_bytes", Json::from(max_bytes)),
        ("max_host_messages", Json::from(max_messages)),
        ("work_units", Json::from(outcome.run.total_work_units)),
    ];
    if hub.is_enabled() {
        for name in [
            "sync_rounds",
            "collective_ops",
            "decode_errors",
            "pool_hits",
            "pool_misses",
        ] {
            fields.push((name, Json::from(hub.counter_across_hosts(name))));
        }
    }
    Json::obj(fields)
}

fn timing_json(outcome: &DistOutcome) -> Json {
    Json::obj([
        ("algo_secs", Json::from(outcome.algo_secs)),
        ("partition_secs", Json::from(outcome.partition_secs)),
        ("comm_secs", Json::from(outcome.run.comm_secs)),
        ("max_compute_secs", Json::from(outcome.run.max_compute_secs)),
        (
            "mean_compute_secs",
            Json::from(outcome.run.mean_compute_secs),
        ),
    ])
}

fn wire_modes_json(hub: &MetricsHub) -> Json {
    if !hub.is_enabled() {
        return Json::Arr(Vec::new());
    }
    Json::Arr(
        (0..NUM_WIRE_MODES)
            .map(|m| {
                Json::obj([
                    ("mode", Json::from(WIRE_MODE_NAMES[m])),
                    (
                        "messages",
                        Json::from(hub.counter_across_hosts(MODE_MSG_COUNTER_NAMES[m])),
                    ),
                    (
                        "bytes",
                        Json::from(hub.counter_across_hosts(MODE_BYTE_COUNTER_NAMES[m])),
                    ),
                ])
            })
            .collect(),
    )
}

fn exec_json(hub: &MetricsHub) -> Json {
    if !hub.is_enabled() {
        return Json::obj::<&str>([]);
    }
    Json::obj(
        ["pool_parallel_ops", "pool_seq_work", "pool_crit_work"]
            .map(|n| (n, Json::from(hub.counter_across_hosts(n)))),
    )
}

/// Renders one registry generically, histograms included (buckets
/// trimmed at the last non-empty one).
fn registry_json(registry: &Registry) -> Json {
    Json::Obj(
        registry
            .snapshot()
            .into_iter()
            .map(|(name, value)| {
                let v = match value {
                    MetricValue::Counter(v) | MetricValue::Gauge(v) => Json::from(v),
                    MetricValue::Histogram {
                        buckets,
                        count,
                        sum,
                    } => {
                        let last = buckets.iter().rposition(|&b| b > 0).map_or(0, |i| i + 1);
                        Json::obj([
                            (
                                "buckets",
                                Json::Arr(
                                    buckets.iter().take(last).map(|&b| Json::from(b)).collect(),
                                ),
                            ),
                            ("count", Json::from(count)),
                            ("sum", Json::from(sum)),
                        ])
                    }
                };
                (name.to_owned(), v)
            })
            .collect(),
    )
}

/// One `{host, metrics}` entry per host, `metrics` being the host's
/// registry on one side.
fn per_host_json(hub: &MetricsHub, side: fn(&HostMetrics) -> &Registry) -> Json {
    Json::Arr(
        (0..hub.world_size())
            .map(|rank| {
                Json::obj([
                    ("host", Json::from(rank)),
                    ("metrics", registry_json(side(&hub.host(rank)))),
                ])
            })
            .collect(),
    )
}

/// One phase's calibration numbers, as plain data for callers that want
/// the table without going through JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseResidual {
    /// 0-based aligned phase index.
    pub phase: usize,
    /// Measured phase time: max `comm_secs` across hosts (seconds) — the
    /// sync call plus the wait of the collective that ended the round,
    /// whose messages the projection does not charge.
    pub measured_secs: f64,
    /// The cost model's projection for the phase (seconds).
    pub projected_secs: f64,
    /// `measured - projected` (seconds; negative when the model
    /// overcharges).
    pub residual_secs: f64,
    /// Largest per-host payload byte count of the phase.
    pub max_host_bytes: u64,
    /// Largest per-host message count of the phase.
    pub max_host_messages: u64,
}

/// Computes the per-phase calibration table from phase-aligned host
/// statistics: for each phase, measured max-host `comm_secs` vs. the
/// model's projection on that phase's max-host traffic.
pub fn phase_residuals(host_stats: &[SyncStats], model: &CostModel) -> Vec<PhaseResidual> {
    let phases = host_stats.first().map_or(0, |h| h.phases.len());
    (0..phases)
        .map(|i| {
            let measured = host_stats
                .iter()
                .map(|h| h.phases[i].comm_secs)
                .fold(0.0f64, f64::max);
            let max_host_bytes = host_stats
                .iter()
                .map(|h| h.phases[i].bytes_sent)
                .max()
                .unwrap_or(0);
            let max_host_messages = host_stats
                .iter()
                .map(|h| h.phases[i].messages_sent)
                .max()
                .unwrap_or(0);
            let delta = StatsDelta {
                total_bytes: host_stats.iter().map(|h| h.phases[i].bytes_sent).sum(),
                total_messages: host_stats.iter().map(|h| h.phases[i].messages_sent).sum(),
                max_host_bytes,
                max_host_messages,
            };
            let projected = model.phase_time(&delta);
            PhaseResidual {
                phase: i,
                measured_secs: measured,
                projected_secs: projected,
                residual_secs: measured - projected,
                max_host_bytes,
                max_host_messages,
            }
        })
        .collect()
}

fn residual_fields(r: &PhaseResidual) -> Vec<(&'static str, Json)> {
    let ratio = if r.projected_secs > 0.0 {
        Json::from(r.measured_secs / r.projected_secs)
    } else {
        Json::Null
    };
    vec![
        ("measured_secs", Json::from(r.measured_secs)),
        ("projected_secs", Json::from(r.projected_secs)),
        ("residual_secs", Json::from(r.residual_secs)),
        ("ratio", ratio),
        ("max_host_bytes", Json::from(r.max_host_bytes)),
        ("max_host_messages", Json::from(r.max_host_messages)),
    ]
}

fn calibration_json(host_stats: &[SyncStats], model: &CostModel) -> Json {
    let rows = phase_residuals(host_stats, model);
    let total = PhaseResidual {
        phase: 0,
        measured_secs: rows.iter().map(|r| r.measured_secs).sum(),
        projected_secs: rows.iter().map(|r| r.projected_secs).sum(),
        residual_secs: rows.iter().map(|r| r.residual_secs).sum(),
        max_host_bytes: rows.iter().map(|r| r.max_host_bytes).sum(),
        max_host_messages: rows.iter().map(|r| r.max_host_messages).sum(),
    };
    let phase_rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            let mut fields = vec![("phase", Json::from(r.phase))];
            fields.extend(residual_fields(r));
            Json::obj(fields)
        })
        .collect();
    // Per-host: measured total comm vs. the model on the host's own
    // traffic.
    let per_host: Vec<Json> = host_stats
        .iter()
        .enumerate()
        .map(|(rank, h)| {
            let measured = h.comm_secs();
            let delta = StatsDelta {
                total_bytes: h.bytes_sent(),
                total_messages: h.messages_sent(),
                max_host_bytes: h.bytes_sent(),
                max_host_messages: h.messages_sent(),
            };
            let projected = model.phase_time(&delta);
            Json::obj([
                ("host", Json::from(rank)),
                ("measured_secs", Json::from(measured)),
                ("projected_secs", Json::from(projected)),
                ("residual_secs", Json::from(measured - projected)),
            ])
        })
        .collect();
    Json::obj([
        ("alpha_secs", Json::from(model.alpha_secs)),
        ("beta_secs_per_byte", Json::from(model.beta_secs_per_byte)),
        ("phases", Json::Arr(phase_rows)),
        ("total", Json::obj(residual_fields(&total))),
        ("per_host", Json::Arr(per_host)),
    ])
}

fn trace_json(tracer: &Tracer) -> Json {
    Json::obj([
        ("enabled", Json::from(tracer.is_enabled())),
        ("dropped_spans", Json::from(tracer.dropped_spans())),
        ("dropped_events", Json::from(tracer.dropped_events())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Run};
    use gluon_graph::gen;

    #[test]
    fn report_merges_outcome_and_hub() {
        let g = gen::rmat(6, 6, Default::default(), 3);
        let hub = MetricsHub::new(2);
        let out = Run::new(&g, Algorithm::Bfs).hosts(2).metrics(&hub).launch();
        let report = out.report(&hub, &CostModel::REPRO);
        assert_eq!(
            report.json().get("schema_version").unwrap().as_u64(),
            Some(REPORT_SCHEMA_VERSION)
        );
        let json = report.json().get("deterministic").unwrap();
        let observed = report.json().get("observed").unwrap();
        assert_eq!(json.get("hosts").unwrap().as_u64(), Some(2));
        assert_eq!(json.get("metrics_enabled").unwrap().as_bool(), Some(true));
        // Payload accounting agrees between the hub and the outcome.
        assert_eq!(
            json.get("totals")
                .unwrap()
                .get("bytes_sent")
                .unwrap()
                .as_u64(),
            Some(out.run.total_bytes)
        );
        assert_eq!(hub.counter_across_hosts("bytes_sent"), out.run.total_bytes);
        // Wire-mode bytes sum to the payload total.
        let mode_sum: u64 = json
            .get("wire_modes")
            .unwrap()
            .items()
            .unwrap()
            .iter()
            .map(|m| m.get("bytes").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(mode_sum, out.run.total_bytes);
        // One calibration row per aligned phase, one phase per BSP round
        // (the termination vote books into its round's sync phase).
        let cal = observed.get("calibration").unwrap();
        assert_eq!(
            cal.get("phases").unwrap().items().unwrap().len(),
            out.run.phases
        );
        assert_eq!(out.run.phases, out.rounds as usize);
        // The document round-trips through the parser (text-level: the
        // parser reads integral floats back as unsigned integers, so the
        // trees may differ in numeric flavor while the text is stable).
        let text = report.render_json();
        let reparsed = Json::parse(&text).unwrap();
        assert_eq!(reparsed.render(), text);
        assert!(report.prometheus().contains("gluon_sync_rounds"));
    }

    #[test]
    fn disabled_hub_still_reports_outcome_and_calibration() {
        let g = gen::rmat(6, 6, Default::default(), 3);
        let hub = MetricsHub::disabled();
        let out = Run::new(&g, Algorithm::Bfs).hosts(2).launch();
        let report = out.report(&hub, &CostModel::REPRO);
        let json = report.json();
        assert_eq!(
            json.get("deterministic")
                .unwrap()
                .get("metrics_enabled")
                .unwrap()
                .as_bool(),
            Some(false)
        );
        assert_eq!(
            json.get("observed")
                .unwrap()
                .get("calibration")
                .unwrap()
                .get("phases")
                .unwrap()
                .items()
                .unwrap()
                .len(),
            out.run.phases
        );
        assert_eq!(report.prometheus(), "");
        assert!(Json::parse(&report.render_json()).is_ok());
    }

    #[test]
    fn residual_table_matches_the_model_arithmetic() {
        use gluon::PhaseStats;
        let mk = |bytes, msgs, secs| SyncStats {
            phases: vec![PhaseStats {
                comm_secs: secs,
                bytes_sent: bytes,
                messages_sent: msgs,
                ..Default::default()
            }],
            ..Default::default()
        };
        let hosts = [mk(1000, 2, 0.5), mk(500, 10, 0.2)];
        let model = CostModel {
            alpha_secs: 0.01,
            beta_secs_per_byte: 0.0001,
        };
        let rows = phase_residuals(&hosts, &model);
        assert_eq!(rows.len(), 1);
        let r = rows[0];
        assert_eq!(r.max_host_bytes, 1000);
        assert_eq!(r.max_host_messages, 10);
        let expect = 10.0 * 0.01 + 1000.0 * 0.0001;
        assert!((r.projected_secs - expect).abs() < 1e-12);
        assert!((r.measured_secs - 0.5).abs() < 1e-12);
        assert!((r.residual_secs - (0.5 - expect)).abs() < 1e-12);
    }
}
