//! `gluon-run`: run any benchmark configuration from the command line.
//!
//! ```text
//! gluon-run [--algo bfs|cc|pr|sssp|kcore] [--engine d-ligra|d-galois|d-irgl]
//!           [--policy oec|iec|cvc|hvc|random-oec|fennel] [--opts unopt|osi|oti|osti]
//!           [--hosts N] [--input PATH | --gen rmat:SCALE:EF | --gen web:N:DEG]
//!           [--seed S] [--k K] [--verify]
//! ```
//!
//! `--input` reads a text edge list (`src dst [weight]`, header
//! `num_nodes num_edges`); `--gen` generates an input. With `--verify` the
//! result is checked against the single-host oracle.

use gluon_suite::algos::{driver, reference, Algorithm, DistConfig, EngineKind, PagerankConfig};
use gluon_suite::graph::{self as graph, gen, max_out_degree_node, Csr};
use gluon_suite::net::CostModel;
use gluon_suite::partition::Policy;
use gluon_suite::substrate::OptLevel;
use std::process::ExitCode;

struct Options {
    algo: String,
    engine: EngineKind,
    policy: Policy,
    opts: OptLevel,
    hosts: usize,
    input: Option<String>,
    generator: String,
    seed: u64,
    k: u32,
    verify: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: gluon-run [--algo bfs|cc|pr|sssp|kcore] [--engine d-ligra|d-galois|d-irgl]\n\
         \x20                [--policy oec|iec|cvc|hvc|random-oec|fennel] [--opts unopt|osi|oti|osti]\n\
         \x20                [--hosts N] [--input PATH | --gen rmat:SCALE:EF | --gen web:N:DEG]\n\
         \x20                [--seed S] [--k K] [--verify]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        algo: "bfs".into(),
        engine: EngineKind::Galois,
        policy: Policy::Cvc,
        opts: OptLevel::OSTI,
        hosts: 4,
        input: None,
        generator: "rmat:12:16".into(),
        seed: 42,
        k: 3,
        verify: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--algo" => opts.algo = value("--algo"),
            "--engine" => {
                opts.engine = value("--engine").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--policy" => {
                opts.policy = value("--policy").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--opts" => {
                opts.opts = value("--opts").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--hosts" => {
                opts.hosts = match value("--hosts").parse() {
                    Ok(hosts) if hosts > 0 => hosts,
                    _ => {
                        eprintln!("--hosts expects a positive integer");
                        usage()
                    }
                }
            }
            "--input" => opts.input = Some(value("--input")),
            "--gen" => opts.generator = value("--gen"),
            "--seed" => {
                opts.seed = value("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("--seed expects an integer");
                    usage()
                })
            }
            "--k" => {
                opts.k = value("--k").parse().unwrap_or_else(|_| {
                    eprintln!("--k expects an integer");
                    usage()
                })
            }
            "--verify" => opts.verify = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    opts
}

fn load_graph(o: &Options) -> Csr {
    if let Some(path) = &o.input {
        let file = std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            std::process::exit(1);
        });
        return graph::io::read_edge_list(std::io::BufReader::new(file)).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(1);
        });
    }
    let parts: Vec<&str> = o.generator.split(':').collect();
    let field = |text: &str| -> u32 {
        text.parse().unwrap_or_else(|_| {
            eprintln!(
                "generator spec {:?}: {text:?} is not a non-negative integer",
                o.generator
            );
            usage()
        })
    };
    match parts.as_slice() {
        ["rmat", scale, ef] => gen::rmat(field(scale), field(ef), Default::default(), o.seed),
        ["kron", scale, ef] => gen::kronecker(field(scale), field(ef), o.seed),
        ["web", n, deg] => gen::web_like(field(n), field(deg), 2.0, o.seed),
        ["twitter", n, deg] => gen::twitter_like(field(n), field(deg), o.seed),
        other => {
            eprintln!("unknown generator spec {other:?} (want rmat:S:EF, kron:S:EF, web:N:DEG, twitter:N:DEG)");
            usage()
        }
    }
}

fn main() -> ExitCode {
    let o = parse_args();
    let mut graph = load_graph(&o);
    let cfg = DistConfig {
        hosts: o.hosts,
        policy: o.policy,
        opts: o.opts,
        engine: o.engine,
    };
    let algo = match o.algo.as_str() {
        "bfs" => Some(Algorithm::Bfs),
        "cc" => Some(Algorithm::Cc),
        "pr" | "pagerank" => Some(Algorithm::Pagerank),
        "sssp" => Some(Algorithm::Sssp),
        "kcore" => None,
        other => {
            eprintln!("unknown algorithm {other:?}");
            usage()
        }
    };
    if algo == Some(Algorithm::Sssp) && !graph.is_weighted() {
        graph = gen::with_random_weights(&graph, 100, o.seed ^ 0xABCD);
    }
    println!(
        "running {} with {} on {} hosts ({} partitioning, {} optimizations)",
        o.algo, o.engine, o.hosts, o.policy, o.opts
    );
    println!(
        "input: |V|={} |E|={}{}",
        graph.num_nodes(),
        graph.num_edges(),
        if graph.is_weighted() {
            " (weighted)"
        } else {
            ""
        }
    );
    let out = match algo {
        Some(a) => driver::Run::new(&graph, a).config(&cfg).launch(),
        None => driver::Run::kcore(&graph, o.k).config(&cfg).launch(),
    };
    println!("rounds: {}", out.rounds);
    println!(
        "partitioning: {:.3}s   compute (max/host): {:.3}s",
        out.partition_secs, out.run.max_compute_secs
    );
    println!(
        "communication: {} bytes, {} messages   replication: {:.2}",
        out.run.total_bytes, out.run.total_messages, out.partition.replication_factor
    );
    println!(
        "projected time on Omni-Path: {:.4}s",
        out.projected_secs(&CostModel::OMNI_PATH)
    );
    if o.verify {
        let source = max_out_degree_node(&graph);
        let ok = match algo {
            Some(Algorithm::Bfs) => out.int_labels == reference::bfs(&graph, source),
            Some(Algorithm::Sssp) => out.int_labels == reference::sssp(&graph, source),
            Some(Algorithm::Cc) => out.int_labels == reference::cc(&graph),
            Some(Algorithm::Pagerank) => {
                // The settings `Run::new(.., Pagerank)` runs with.
                let pr = PagerankConfig::default();
                let (oracle, _) =
                    reference::pagerank(&graph, pr.damping, pr.tolerance, pr.max_iters);
                out.ranks
                    .iter()
                    .zip(&oracle)
                    .all(|(a, b)| (a - b).abs() < 1e-6)
            }
            None => {
                let core = reference::kcore(&graph);
                out.int_labels
                    .iter()
                    .zip(&core)
                    .all(|(&alive, &c)| alive == u32::from(c >= o.k))
            }
        };
        println!("verification: {}", if ok { "PASS" } else { "FAIL" });
        if !ok {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
