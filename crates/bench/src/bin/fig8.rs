//! Figure 8: strong scaling of the distributed CPU systems.
//!
//! (a) total execution time and (b) communication volume for D-Ligra,
//! D-Galois, and Gemini across the host sweep, on the three scaling inputs
//! (stand-ins for rmat28, kron30, clueweb12) and all four benchmarks.
//!
//! Every Gluon row is run twice: once with the codec-v2 compressed wire
//! modes (the default) and once restricted to the codec-v1 modes
//! (`OptLevel::without_compression`). The second run is the pre-codec-v2
//! baseline; the table reports both volumes and their ratio, and the run
//! asserts the two are bit-identical in every computed label.
//!
//! Each Gluon cell additionally runs under a fresh [`MetricsHub`], whose
//! payload byte counter is cross-checked against the run's `RunStats` and
//! whose per-wire-mode byte counters feed the Figure 8(b) detail table
//! (one row per benchmark). Every cell (Gemini included) gets a per-phase
//! cost-model calibration table — measured max-host phase time vs.
//! `CostModel::REPRO`'s projection — exported to
//! `bench_results/report.json` alongside the `fig8.json` cells.
//!
//! With `GLUON_FIG8_MEASURE` set in the environment, every Gluon cell is
//! additionally re-run over real TCP-loopback sockets
//! (`Run::transport_sockets`) and the table gains a measured
//! "socket wall (s)" column next to the α-β projection; the socket run is
//! asserted bit-identical to the in-memory one (same labels, same payload
//! traffic), so the extra column measures transport cost, never a
//! different computation. Off by default — it roughly doubles Gluon cell
//! time.

use gluon::OptLevel;
use gluon_algos::{driver, phase_residuals, Algorithm, DistConfig, EngineKind, PhaseResidual};
use gluon_bench::json::{self, Json};
use gluon_bench::report::emit;
use gluon_bench::{inputs, report, scale_from_args, trace_path_from_args, Scale, Table};
use gluon_gemini::GeminiAlgo;
use gluon_graph::{max_out_degree_node, Csr};
use gluon_metrics::{MetricsHub, MODE_BYTE_COUNTER_NAMES, NUM_WIRE_MODES, WIRE_MODE_NAMES};
use gluon_net::{CostModel, SocketKind};
use gluon_partition::Policy;
use gluon_trace::{ChromeTraceBuilder, Tracer};
use std::collections::BTreeMap;

struct Point {
    projected_secs: f64,
    wall_secs: f64,
    /// Measured wall seconds of the same run over TCP-loopback sockets;
    /// `None` unless `GLUON_FIG8_MEASURE` is set (and always for Gemini).
    socket_wall_secs: Option<f64>,
    comm_bytes: u64,
    /// Volume of the same run under the codec-v1 wire modes; `None` for
    /// systems that do not use the Gluon codec (Gemini).
    baseline_bytes: Option<u64>,
    rounds: u32,
    /// Payload bytes per wire mode, from the cell's metrics hub; zero for
    /// systems that do not use the Gluon codec (Gemini).
    mode_bytes: [u64; NUM_WIRE_MODES],
    /// Per-phase cost-model calibration rows for this cell.
    residuals: Vec<PhaseResidual>,
}

fn gluon_point(
    graph: &Csr,
    algo: Algorithm,
    engine: EngineKind,
    hosts: usize,
    tracer: &Tracer,
) -> Point {
    let cfg = DistConfig {
        hosts,
        policy: Policy::Cvc,
        opts: OptLevel::default(),
        engine,
    };
    let hub = MetricsHub::new(hosts);
    let out = driver::Run::new(graph, algo)
        .config(&cfg)
        .tracer(tracer)
        .metrics(&hub)
        .launch();
    // The metrics registry and the stats pipeline count payload bytes
    // independently; a disagreement means one of them lies.
    assert_eq!(
        hub.counter_across_hosts("bytes_sent"),
        out.run.total_bytes,
        "metrics bytes_sent disagrees with RunStats ({algo:?}, {hosts} hosts)"
    );
    // The codec-v1 baseline: identical run with the compressed candidates
    // off. Compression must never change what is computed — only how the
    // update metadata travels.
    let base_cfg = DistConfig {
        hosts,
        policy: Policy::Cvc,
        opts: OptLevel::default().without_compression(),
        engine,
    };
    let base = driver::Run::new(graph, algo).config(&base_cfg).launch();
    assert_eq!(
        out.rounds, base.rounds,
        "compression changed the round count ({algo:?}, {hosts} hosts)"
    );
    assert_eq!(
        out.int_labels, base.int_labels,
        "compression changed integer labels ({algo:?}, {hosts} hosts)"
    );
    assert!(
        out.ranks.len() == base.ranks.len()
            && out
                .ranks
                .iter()
                .zip(&base.ranks)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
        "compression changed pagerank bits ({algo:?}, {hosts} hosts)"
    );
    // The measured column: the identical configuration over real TCP
    // sockets. Payload parity is asserted, so the delta to `wall_secs`
    // is pure transport cost.
    let measure = std::env::var_os("GLUON_FIG8_MEASURE").is_some();
    let socket_wall_secs = measure.then(|| {
        let sock = driver::Run::new(graph, algo)
            .config(&cfg)
            .transport_sockets(SocketKind::Tcp)
            .launch();
        assert_eq!(
            out.int_labels, sock.int_labels,
            "socket run changed integer labels ({algo:?}, {hosts} hosts)"
        );
        assert_eq!(
            out.net.bytes, sock.net.bytes,
            "socket run changed payload traffic ({algo:?}, {hosts} hosts)"
        );
        sock.algo_secs
    });
    Point {
        projected_secs: out.projected_secs(&CostModel::REPRO),
        wall_secs: out.algo_secs,
        socket_wall_secs,
        comm_bytes: out.run.total_bytes,
        baseline_bytes: Some(base.run.total_bytes),
        rounds: out.rounds,
        mode_bytes: MODE_BYTE_COUNTER_NAMES.map(|name| hub.counter_across_hosts(name)),
        residuals: phase_residuals(&out.host_stats, &CostModel::REPRO),
    }
}

fn gemini_point(graph: &Csr, algo: Algorithm, hosts: usize) -> Point {
    let src = max_out_degree_node(graph);
    let ga = match algo {
        Algorithm::Bfs => GeminiAlgo::Bfs(src),
        Algorithm::Sssp => GeminiAlgo::Sssp(src),
        Algorithm::Cc => GeminiAlgo::Cc,
        Algorithm::Pagerank => GeminiAlgo::Pagerank(0.85, 1e-6, 100),
    };
    let input = if algo == Algorithm::Cc {
        gluon_algos::reference::symmetrize(graph)
    } else {
        graph.clone()
    };
    let out = gluon_gemini::run(&input, hosts, ga);
    Point {
        projected_secs: out
            .run
            .projected_secs(&CostModel::REPRO, gluon::DEFAULT_EDGES_PER_SEC),
        wall_secs: out.algo_secs,
        socket_wall_secs: None, // gemini runs on the in-memory transport only
        comm_bytes: out.run.total_bytes,
        baseline_bytes: None, // gemini does not use the Gluon codec
        rounds: out.rounds,
        mode_bytes: [0; NUM_WIRE_MODES],
        residuals: phase_residuals(&out.host_stats, &CostModel::REPRO),
    }
}

fn residual_row(r: &PhaseResidual) -> Json {
    Json::obj([
        ("phase", Json::from(r.phase)),
        ("measured_secs", Json::from(r.measured_secs)),
        ("projected_secs", Json::from(r.projected_secs)),
        ("residual_secs", Json::from(r.residual_secs)),
        ("max_host_bytes", Json::from(r.max_host_bytes)),
        ("max_host_messages", Json::from(r.max_host_messages)),
    ])
}

fn main() {
    let scale = scale_from_args();
    let trace_path = trace_path_from_args();
    let mut chrome = trace_path.as_ref().map(|_| ChromeTraceBuilder::new());
    let host_counts: &[usize] = if scale == Scale::Quick {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let graphs = inputs::scaling_suite(scale);
    let mut table = Table::new(vec![
        "input",
        "bench",
        "system",
        "hosts",
        "proj time (s)",
        "wall (s)",
        "socket wall (s)",
        "comm volume",
        "v1 baseline",
        "ratio",
        "rounds",
    ]);
    let mut calib = Table::new(vec![
        "input",
        "bench",
        "system",
        "hosts",
        "phases",
        "measured",
        "projected",
        "residual",
    ]);
    // Payload bytes per wire mode, summed over every Gluon row, keyed by
    // benchmark.
    let mut mode_bytes: BTreeMap<&str, [u64; NUM_WIRE_MODES]> = BTreeMap::new();
    // The same cells as the text table, as JSON for downstream tooling.
    let mut json_rows: Vec<Json> = Vec::new();
    // Per-cell calibration for bench_results/report.json.
    let mut calib_cells: Vec<Json> = Vec::new();
    // The codec-v2 acceptance gate: at least one multi-host sparse
    // workload (bfs or cc) must move strictly fewer bytes than the v1
    // baseline.
    let mut sparse_wins = 0usize;
    let mut sparse_rows = 0usize;
    for bg in &graphs {
        for algo in Algorithm::ALL {
            let weighted;
            let graph: &Csr = if algo == Algorithm::Sssp {
                weighted = bg.weighted();
                &weighted
            } else {
                &bg.graph
            };
            for &hosts in host_counts {
                for (system, engine) in [
                    ("d-ligra", Some(EngineKind::Ligra)),
                    ("d-galois", Some(EngineKind::Galois)),
                    ("gemini", None),
                ] {
                    // Gluon rows are traced only under `--trace`; Gemini
                    // runs on its own untraced stack.
                    let tracer = match (engine, &chrome) {
                        (Some(_), Some(_)) => Tracer::new(hosts),
                        _ => Tracer::disabled(),
                    };
                    let point = match engine {
                        Some(engine) => gluon_point(graph, algo, engine, hosts, &tracer),
                        None => gemini_point(graph, algo, hosts),
                    };
                    let acc = mode_bytes.entry(algo.name()).or_insert([0; NUM_WIRE_MODES]);
                    for (a, b) in acc.iter_mut().zip(point.mode_bytes) {
                        *a += b;
                    }
                    if let (Some(chrome), true) = (&mut chrome, tracer.is_enabled()) {
                        chrome.add(
                            &format!("{}/{}/{}/{}h", bg.name, algo.name(), system, hosts),
                            &tracer,
                        );
                    }
                    let (baseline, ratio) = match point.baseline_bytes {
                        Some(base) => (
                            report::bytes(base),
                            format!("{:.2}x", base as f64 / point.comm_bytes.max(1) as f64),
                        ),
                        None => ("-".to_owned(), "-".to_owned()),
                    };
                    if matches!(algo, Algorithm::Bfs | Algorithm::Cc) && hosts > 1 {
                        if let Some(base) = point.baseline_bytes {
                            sparse_rows += 1;
                            if point.comm_bytes < base {
                                sparse_wins += 1;
                            }
                        }
                    }
                    let measured: f64 = point.residuals.iter().map(|r| r.measured_secs).sum();
                    let projected: f64 = point.residuals.iter().map(|r| r.projected_secs).sum();
                    calib_cells.push(Json::obj([
                        ("input", Json::from(bg.name)),
                        ("bench", Json::from(algo.name())),
                        ("system", Json::from(system)),
                        ("hosts", Json::from(hosts)),
                        (
                            "phases",
                            Json::Arr(point.residuals.iter().map(residual_row).collect()),
                        ),
                        ("measured_secs", Json::from(measured)),
                        ("projected_secs", Json::from(projected)),
                        ("residual_secs", Json::from(measured - projected)),
                    ]));
                    calib.row(vec![
                        bg.name.to_owned(),
                        algo.name().to_owned(),
                        system.to_owned(),
                        hosts.to_string(),
                        point.residuals.len().to_string(),
                        report::secs(measured),
                        report::secs(projected),
                        format!("{:+.4}", measured - projected),
                    ]);
                    json_rows.push(Json::obj([
                        ("input", Json::from(bg.name)),
                        ("bench", Json::from(algo.name())),
                        ("system", Json::from(system)),
                        ("hosts", Json::from(hosts)),
                        ("projected_secs", Json::from(point.projected_secs)),
                        ("wall_secs", Json::from(point.wall_secs)),
                        (
                            "socket_wall_secs",
                            point.socket_wall_secs.map_or(Json::Null, Json::from),
                        ),
                        ("comm_bytes", Json::from(point.comm_bytes)),
                        (
                            "v1_baseline_bytes",
                            point.baseline_bytes.map_or(Json::Null, Json::from),
                        ),
                        (
                            "v1_ratio",
                            point.baseline_bytes.map_or(Json::Null, |base| {
                                Json::from(base as f64 / point.comm_bytes.max(1) as f64)
                            }),
                        ),
                        ("rounds", Json::from(point.rounds)),
                    ]));
                    table.row(vec![
                        bg.name.to_owned(),
                        algo.name().to_owned(),
                        system.to_owned(),
                        hosts.to_string(),
                        report::secs(point.projected_secs),
                        report::secs(point.wall_secs),
                        point.socket_wall_secs.map_or("-".to_owned(), report::secs),
                        report::bytes(point.comm_bytes),
                        baseline,
                        ratio,
                        point.rounds.to_string(),
                    ]);
                }
            }
        }
    }
    // Everything below goes to stdout AND the fig8.txt artifact through
    // the same emission path.
    let mut txt = String::new();
    emit(
        &mut txt,
        &table.section("Figure 8(a)+(b): strong scaling — time series and communication volume"),
    );

    // Per-wire-mode byte breakdown across every Gluon row above.
    let mut modes = Table::new({
        let mut cols = vec!["bench"];
        cols.extend(WIRE_MODE_NAMES);
        cols.push("total");
        cols
    });
    for (bench, bytes) in &mode_bytes {
        let mut row = vec![bench.to_string()];
        row.extend(bytes.iter().map(|&b| report::bytes(b)));
        row.push(report::bytes(bytes.iter().sum()));
        modes.row(row);
    }
    emit(&mut txt, "\n");
    emit(
        &mut txt,
        &modes.section("Figure 8(b) detail: payload bytes per wire mode (all Gluon rows)"),
    );

    emit(&mut txt, "\n");
    emit(
        &mut txt,
        &calib.section(
            "Cost-model calibration: measured vs projected comm time \
             (CostModel::REPRO, summed over phases: one per sync call, the round's \
             vote included; per-phase rows in report.json)",
        ),
    );

    let json_modes = Json::Obj(
        mode_bytes
            .iter()
            .map(|(bench, bytes)| {
                let per_mode = WIRE_MODE_NAMES
                    .iter()
                    .zip(bytes)
                    .map(|(name, &b)| (name.to_string(), Json::from(b)));
                (bench.to_string(), Json::obj(per_mode))
            })
            .collect(),
    );
    let written = json::write_results(
        "fig8",
        &Json::obj([("rows", Json::Arr(json_rows)), ("mode_bytes", json_modes)]),
    );
    let report_path = json::write_results(
        "report",
        &Json::obj([
            (
                "schema_version",
                Json::from(gluon_algos::REPORT_SCHEMA_VERSION),
            ),
            ("source", Json::from("fig8")),
            (
                "cost_model",
                Json::obj([
                    ("alpha_secs", Json::from(CostModel::REPRO.alpha_secs)),
                    (
                        "beta_secs_per_byte",
                        Json::from(CostModel::REPRO.beta_secs_per_byte),
                    ),
                ]),
            ),
            ("cells", Json::Arr(calib_cells)),
        ]),
    );
    println!();
    println!(
        "Machine-readable results written to {} and {}.",
        written.display(),
        report_path.display()
    );

    if let (Some(path), Some(chrome)) = (&trace_path, chrome) {
        std::fs::write(path, chrome.finish())
            .unwrap_or_else(|e| panic!("cannot write trace to {path}: {e}"));
        println!();
        println!("Chrome trace written to {path} (load via chrome://tracing or Perfetto).");
    }
    emit(&mut txt, "\n");
    assert!(
        sparse_wins > 0,
        "codec v2 failed to beat the v1 baseline on any multi-host bfs/cc row \
         ({sparse_rows} candidates)"
    );
    emit(
        &mut txt,
        &format!(
            "Codec v2 check: every row bit-identical with compression on vs off; \
             {sparse_wins}/{sparse_rows} multi-host bfs/cc rows moved strictly fewer \
             bytes than the codec-v1 baseline.\n"
        ),
    );
    emit(&mut txt, "\n");
    emit(
        &mut txt,
        "Paper shape to check: D-Galois beats Gemini nearly everywhere and \
         keeps scaling; Gemini stops scaling early; the Gluon systems move \
         roughly an order of magnitude fewer bytes (Fig 8b); D-Ligra needs \
         more rounds than D-Galois on the same input (§5.4).\n",
    );
    json::write_text("fig8", &txt);
}
