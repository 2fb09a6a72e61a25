//! Ablation studies of Gluon's design choices (beyond the paper's figures):
//!
//! 1. wire-mode crossover — which §4.2 encoding wins at which update
//!    density, and what the smallest-size rule saves versus fixing any
//!    single mode;
//! 2. CVC grid shape — communication volume under different
//!    rows × cols factorizations of the same host count;
//! 3. structural-invariant subsets — how many mirrors each §3.2 pattern
//!    touches per policy (the reduce/broadcast set sizes).

use gluon::encode::{candidate_sizes, encode_memoized, WireMode};
use gluon::{FlagFilter, MemoTable, OptLevel};
use gluon_algos::{driver, Algorithm, DistConfig, EngineKind};
use gluon_bench::{inputs, report, scale_from_args, Table};
use gluon_net::{run_cluster, Communicator};
use gluon_partition::{partition_on_host, Policy};

fn wire_mode_crossover() {
    let list_len = 10_000usize;
    let mut table = Table::new(vec![
        "updated %",
        "chosen mode",
        "chosen bytes",
        "dense",
        "bitvec",
        "indices",
        "idx_delta",
        "run_len",
        "all-equal (same_*)",
    ]);
    for pct in [0u32, 1, 2, 5, 10, 20, 40, 60, 80, 100] {
        let k = (list_len as u32 * pct / 100) as usize;
        let updated: Vec<u32> = match list_len.checked_div(k) {
            None => Vec::new(),
            Some(stride) => (0..list_len as u32).step_by(stride.max(1)).collect(),
        };
        let chosen = encode_memoized(list_len, &updated, |p| p as u32);
        let sizes: std::collections::HashMap<WireMode, usize> =
            candidate_sizes::<u32>(list_len, &updated, true, true)
                .into_iter()
                .collect();
        let size_of = |m: WireMode| sizes.get(&m).map_or_else(|| "-".into(), |s| s.to_string());
        // What a broadcast of one identical value would cost: the cheaper
        // of the two same-value layouts.
        let same = sizes
            .get(&WireMode::SameIndicesDelta)
            .into_iter()
            .chain(sizes.get(&WireMode::SameRunLength))
            .min()
            .map_or_else(|| "-".into(), |s| s.to_string());
        table.row(vec![
            pct.to_string(),
            format!("{:?}", WireMode::of(&chosen)),
            chosen.len().to_string(),
            size_of(WireMode::Dense),
            size_of(WireMode::Bitvec),
            size_of(WireMode::Indices),
            size_of(WireMode::IndicesDelta),
            size_of(WireMode::RunLength),
            same,
        ]);
    }
    table.print(
        "Ablation 1: wire-mode selection by update density (10k-entry list, u32 values) — \
         the paper's §4.2 modes plus the codec-v2 compressed candidates",
    );
}

fn cvc_grid_shapes() {
    let scale = scale_from_args();
    let bg = inputs::twitter(scale);
    // 16 hosts factor as 1x16, 2x8, 4x4 — emulate by comparing CVC at
    // host counts whose grid_dims differ, plus IEC/OEC as the degenerate
    // 1-D shapes.
    let mut table = Table::new(vec![
        "policy / shape",
        "comm volume",
        "messages",
        "replication",
    ]);
    for (label, policy, hosts) in [
        ("oec (1-D by source)", Policy::Oec, 16),
        ("iec (1-D by destination)", Policy::Iec, 16),
        ("cvc 4x4", Policy::Cvc, 16),
        ("cvc 2x6 (12 hosts)", Policy::Cvc, 12),
        ("cvc 3x5 (15 hosts)", Policy::Cvc, 15),
    ] {
        let cfg = DistConfig {
            hosts,
            policy,
            opts: OptLevel::OSTI,
            engine: EngineKind::Galois,
        };
        let out = driver::Run::new(&bg.graph, Algorithm::Cc)
            .config(&cfg)
            .launch();
        table.row(vec![
            label.to_owned(),
            report::bytes(out.run.total_bytes),
            out.run.total_messages.to_string(),
            format!("{:.2}", out.partition.replication_factor),
        ]);
    }
    table.print("Ablation 2: CVC grid shape vs 1-D edge-cuts (cc on the twitter-like input)");
}

fn structural_subsets() {
    let scale = scale_from_args();
    let bg = inputs::rmat_large(scale);
    let g = &bg.graph;
    let mut table = Table::new(vec![
        "policy",
        "mirrors",
        "reduce set (has-in)",
        "broadcast set (has-out)",
    ]);
    for policy in Policy::ALL {
        let per_host = run_cluster(8, |ep| {
            let comm = Communicator::new(ep);
            let lg = partition_on_host(g, policy, &comm);
            let memo = MemoTable::exchange(&lg, &comm);
            let all: usize = (0..8)
                .map(|h| memo.mirror_list(h, FlagFilter::All).len())
                .sum();
            let has_in: usize = (0..8)
                .map(|h| memo.mirror_list(h, FlagFilter::MirrorHasIn).len())
                .sum();
            let has_out: usize = (0..8)
                .map(|h| memo.mirror_list(h, FlagFilter::MirrorHasOut).len())
                .sum();
            (all, has_in, has_out)
        });
        let all: usize = per_host.iter().map(|x| x.0).sum();
        let has_in: usize = per_host.iter().map(|x| x.1).sum();
        let has_out: usize = per_host.iter().map(|x| x.2).sum();
        table.row(vec![
            policy.to_string(),
            all.to_string(),
            format!(
                "{has_in} ({:.0}%)",
                100.0 * has_in as f64 / all.max(1) as f64
            ),
            format!(
                "{has_out} ({:.0}%)",
                100.0 * has_out as f64 / all.max(1) as f64
            ),
        ]);
    }
    table.print("Ablation 3: §3.2 pattern subsets per policy (rmat input, 8 hosts)");
    println!();
    println!(
        "Reading guide: OEC needs no broadcast (0% has-out), IEC no reduce \
         (0% has-in), CVC splits mirrors between the two patterns, HVC/UVC \
         may need both per mirror."
    );
}

fn main() {
    wire_mode_crossover();
    cvc_grid_shapes();
    structural_subsets();
}
