//! Figure 9: strong scaling of the distributed GPU system (D-IrGL) across
//! the device sweep on the rmat28 and kron30 stand-ins.
//!
//! Each "GPU" is a host running D-IrGL's schedule (one bulk-synchronous
//! snapshot push per round over the shared CPU sweeps; there is no device
//! emulator). The table reports the measured wall time, the projected time
//! under the α-β network cost model, and the communication volume.

use gluon_algos::{driver, Algorithm, DistConfig, EngineKind};
use gluon_bench::{inputs, report, scale_from_args, Scale, Table};
use gluon_graph::Csr;
use gluon_net::CostModel;
use gluon_partition::Policy;

fn main() {
    let scale = scale_from_args();
    let device_counts: &[usize] = if scale == Scale::Quick {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let graphs = [inputs::rmat_large(scale), inputs::kron(scale)];
    let mut table = Table::new(vec![
        "input",
        "bench",
        "gpus",
        "proj time (s)",
        "wall (s)",
        "comm volume",
        "rounds",
    ]);
    let mut speedups = Vec::new();
    for bg in &graphs {
        for algo in Algorithm::ALL {
            let weighted;
            let graph: &Csr = if algo == Algorithm::Sssp {
                weighted = bg.weighted();
                &weighted
            } else {
                &bg.graph
            };
            let mut first = None;
            let mut last = None;
            for &gpus in device_counts {
                let cfg = DistConfig {
                    hosts: gpus,
                    policy: Policy::Cvc,
                    opts: Default::default(),
                    engine: EngineKind::Irgl,
                };
                let out = driver::Run::new(graph, algo).config(&cfg).launch();
                let projected = out.projected_secs(&CostModel::REPRO);
                if gpus == device_counts[0] {
                    first = Some(projected);
                }
                last = Some(projected);
                table.row(vec![
                    bg.name.to_owned(),
                    algo.name().to_owned(),
                    gpus.to_string(),
                    report::secs(projected),
                    report::secs(out.algo_secs),
                    report::bytes(out.run.total_bytes),
                    out.rounds.to_string(),
                ]);
            }
            if let (Some(f), Some(l)) = (first, last) {
                speedups.push(f / l);
            }
        }
    }
    table.print("Figure 9: strong scaling of D-IrGL (one host per GPU)");
    println!();
    println!(
        "geomean speedup from {} to {} devices: {:.2}x",
        device_counts[0],
        device_counts.last().expect("non-empty"),
        report::geomean(speedups)
    );
    println!(
        "Paper shape to check: D-IrGL keeps scaling with device count (the \
         paper reports ~6.5x from 4 to 64 GPUs on rmat28)."
    );
}
