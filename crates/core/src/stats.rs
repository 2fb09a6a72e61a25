//! Per-host execution statistics gathered by the Gluon runtime.
//!
//! The paper's evaluation methodology (§5.6): measure per-round compute
//! time, take the maximum across hosts per round, sum over rounds; report
//! the rest of execution as (non-overlapping) communication, together with
//! the total communication volume. [`SyncStats`] records exactly the
//! per-host inputs of that computation; the bench harness aggregates.

use serde::{Deserialize, Serialize};

/// Default modeled CSR-traversal throughput of one host (edges per
/// second), used when projecting compute time from work units. Roughly a
/// modern server core streaming a CSR; override per call as needed.
pub const DEFAULT_EDGES_PER_SEC: f64 = 4.0e8;

/// Statistics of one sync phase on one host: one `sync` call and the
/// collectives (termination vote, global sum) issued before the next one.
#[derive(Clone, Copy, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Compute time since the previous phase ended (seconds).
    pub compute_secs: f64,
    /// Time spent inside the sync call and the collectives that followed
    /// it (seconds).
    pub comm_secs: f64,
    /// Payload bytes this host sent during the phase.
    pub bytes_sent: u64,
    /// Messages this host sent during the phase.
    pub messages_sent: u64,
    /// Abstract compute work performed since the previous phase (edges
    /// traversed, reported by the engine via `GluonContext::add_work`).
    /// Used to *model* compute time when wall-clock is meaningless (the
    /// simulated hosts share cores).
    pub work_units: u64,
    /// Critical-path work units of the phase under the host's worker pool:
    /// the largest per-worker share of `work_units` given the pool's
    /// deterministic chunk assignment. Equals `work_units` for sequential
    /// phases; the ratio `work_units / crit_work_units` is the *measured*
    /// intra-host speedup of the phase.
    pub crit_work_units: u64,
}

/// Accumulated per-host statistics for a whole run.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct SyncStats {
    /// One entry per sync phase, in order. SPMD programs call sync in
    /// lock-step, so phase `i` aligns across hosts.
    pub phases: Vec<PhaseStats>,
    /// Setup cost of the memoization handshake (seconds).
    pub memo_secs: f64,
    /// Bytes sent during the memoization handshake.
    pub memo_bytes: u64,
    /// Heap allocations observed inside sync rounds after the arena
    /// warm-up. Stays 0 unless the `alloc-meter` feature is enabled *and*
    /// the process installed `gluon_meter::CountingAlloc` as its global
    /// allocator; the counters are process-wide, so the number is only
    /// attributable to this host's sync path when nothing else allocates
    /// concurrently. Zero is the steady-state contract the allocation
    /// guard test asserts.
    pub steady_state_allocs: u64,
}

impl SyncStats {
    /// Number of sync phases executed.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Total compute seconds on this host.
    pub fn compute_secs(&self) -> f64 {
        self.phases.iter().map(|p| p.compute_secs).sum()
    }

    /// Total communication seconds on this host.
    pub fn comm_secs(&self) -> f64 {
        self.phases.iter().map(|p| p.comm_secs).sum()
    }

    /// Total payload bytes sent from this host during sync phases.
    pub fn bytes_sent(&self) -> u64 {
        self.phases.iter().map(|p| p.bytes_sent).sum()
    }

    /// Total messages sent from this host during sync phases.
    pub fn messages_sent(&self) -> u64 {
        self.phases.iter().map(|p| p.messages_sent).sum()
    }

    /// Total work units performed on this host.
    pub fn work_units(&self) -> u64 {
        self.phases.iter().map(|p| p.work_units).sum()
    }

    /// Total critical-path work units on this host (see
    /// [`PhaseStats::crit_work_units`]).
    pub fn crit_work_units(&self) -> u64 {
        self.phases.iter().map(|p| p.crit_work_units).sum()
    }
}

/// Cluster-level aggregation of per-host [`SyncStats`], following the
/// paper's methodology.
#[derive(Clone, Copy, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// Sum over phases of the per-phase *maximum* compute time across
    /// hosts (load imbalance shows up here).
    pub max_compute_secs: f64,
    /// Sum over phases of the per-phase *mean* compute time across hosts.
    pub mean_compute_secs: f64,
    /// Largest per-host total communication time.
    pub comm_secs: f64,
    /// Total bytes sent by all hosts in sync phases.
    pub total_bytes: u64,
    /// Total sync messages sent by all hosts.
    pub total_messages: u64,
    /// Largest per-host total of sent bytes — the communication bottleneck
    /// host's load, which bounds BSP progress when traffic is skewed.
    pub max_host_bytes: u64,
    /// Largest per-host total of sent messages.
    pub max_host_messages: u64,
    /// Number of aligned sync phases.
    pub phases: usize,
    /// Sum over phases of the per-phase *maximum* work across hosts — the
    /// BSP critical path in work units (load imbalance included).
    pub max_work_units: u64,
    /// Total work across all hosts.
    pub total_work_units: u64,
    /// Sum over phases of the per-phase maximum *critical-path* work
    /// across hosts: the BSP critical path when every host uses its worker
    /// pool. `max_work_units / max_crit_work_units` is the run's measured
    /// intra-host speedup.
    pub max_crit_work_units: u64,
}

impl RunStats {
    /// Aggregates the per-host statistics of one SPMD run.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is empty or phase counts disagree (a broken SPMD
    /// program).
    pub fn aggregate(hosts: &[SyncStats]) -> RunStats {
        assert!(!hosts.is_empty(), "no host stats");
        let phases = hosts[0].num_phases();
        assert!(
            hosts.iter().all(|h| h.num_phases() == phases),
            "hosts disagree on phase count: {:?}",
            hosts.iter().map(SyncStats::num_phases).collect::<Vec<_>>()
        );
        let mut max_compute = 0.0;
        let mut mean_compute = 0.0;
        let mut max_work = 0u64;
        let mut max_crit = 0u64;
        for i in 0..phases {
            let times = hosts.iter().map(|h| h.phases[i].compute_secs);
            max_compute += times.clone().fold(0.0f64, f64::max);
            mean_compute += times.sum::<f64>() / hosts.len() as f64;
            max_work += hosts
                .iter()
                .map(|h| h.phases[i].work_units)
                .max()
                .unwrap_or(0);
            max_crit += hosts
                .iter()
                .map(|h| h.phases[i].crit_work_units)
                .max()
                .unwrap_or(0);
        }
        RunStats {
            max_compute_secs: max_compute,
            mean_compute_secs: mean_compute,
            comm_secs: hosts
                .iter()
                .map(SyncStats::comm_secs)
                .fold(0.0f64, f64::max),
            total_bytes: hosts.iter().map(SyncStats::bytes_sent).sum(),
            total_messages: hosts.iter().map(SyncStats::messages_sent).sum(),
            max_host_bytes: hosts.iter().map(SyncStats::bytes_sent).max().unwrap_or(0),
            max_host_messages: hosts
                .iter()
                .map(SyncStats::messages_sent)
                .max()
                .unwrap_or(0),
            phases,
            max_work_units: max_work,
            total_work_units: hosts.iter().map(SyncStats::work_units).sum(),
            max_crit_work_units: max_crit,
        }
    }

    /// Projects the end-to-end time of this run on a real cluster: the BSP
    /// compute critical path (work units at `edges_per_sec` per host) plus
    /// the communication charged by the network cost model.
    ///
    /// Communication is charged at the *bottleneck* host — the one that
    /// sent the most bytes/messages — because BSP rounds cannot complete
    /// until the busiest host drains its send queue. Dividing cluster
    /// totals evenly would average a hot host's traffic away and
    /// underestimate skewed runs.
    pub fn projected_secs(&self, model: &gluon_net::CostModel, edges_per_sec: f64) -> f64 {
        let compute = self.max_work_units as f64 / edges_per_sec;
        compute
            + self.max_host_messages as f64 * model.alpha_secs
            + self.max_host_bytes as f64 * model.beta_secs_per_byte
    }

    /// As [`RunStats::projected_secs`], with `cores_per_host` physical
    /// cores available to each host's worker pool.
    ///
    /// Compute is charged as the larger of two lower bounds: the *measured*
    /// critical path of the run's chunked kernels (which already reflects
    /// per-phase parallel efficiency — chunk imbalance shows up here, not
    /// an assumed ideal speedup) and the total work divided by the core
    /// count (no machine can beat perfect scaling). With `cores_per_host
    /// = 1` this degenerates to [`RunStats::projected_secs`].
    pub fn projected_secs_with_cores(
        &self,
        model: &gluon_net::CostModel,
        edges_per_sec: f64,
        cores_per_host: usize,
    ) -> f64 {
        let cores = cores_per_host.max(1) as f64;
        let crit = if self.max_crit_work_units > 0 {
            self.max_crit_work_units as f64
        } else {
            // Runs recorded before pools existed: fall back to sequential.
            self.max_work_units as f64
        };
        let compute = crit.max(self.max_work_units as f64 / cores) / edges_per_sec;
        compute
            + self.max_host_messages as f64 * model.alpha_secs
            + self.max_host_bytes as f64 * model.beta_secs_per_byte
    }

    /// Measured intra-host parallel speedup of the run's compute critical
    /// path: sequential work over pooled critical-path work (1.0 when no
    /// critical-path data was recorded).
    pub fn parallel_speedup(&self) -> f64 {
        if self.max_crit_work_units == 0 {
            1.0
        } else {
            self.max_work_units as f64 / self.max_crit_work_units as f64
        }
    }

    /// The paper's load-imbalance estimate: max compute / mean compute.
    pub fn imbalance(&self) -> f64 {
        if self.mean_compute_secs > 0.0 {
            self.max_compute_secs / self.mean_compute_secs
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(phases: &[(f64, f64, u64)]) -> SyncStats {
        SyncStats {
            phases: phases
                .iter()
                .map(|&(c, m, b)| PhaseStats {
                    compute_secs: c,
                    comm_secs: m,
                    bytes_sent: b,
                    messages_sent: 1,
                    work_units: b,
                    crit_work_units: b,
                })
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn aggregate_takes_per_phase_maximum() {
        let a = host(&[(1.0, 0.1, 10), (2.0, 0.1, 10)]);
        let b = host(&[(3.0, 0.2, 20), (1.0, 0.3, 20)]);
        let run = RunStats::aggregate(&[a, b]);
        assert!((run.max_compute_secs - 5.0).abs() < 1e-12); // max(1,3)+max(2,1)
        assert!((run.mean_compute_secs - 3.5).abs() < 1e-12); // 2 + 1.5
        assert_eq!(run.total_bytes, 60);
        assert_eq!(run.phases, 2);
    }

    #[test]
    fn imbalance_ratio() {
        let a = host(&[(4.0, 0.0, 0)]);
        let b = host(&[(1.0, 0.0, 0)]);
        let run = RunStats::aggregate(&[a, b]);
        assert!((run.imbalance() - 4.0 / 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "disagree on phase count")]
    fn mismatched_phases_panic() {
        let _ = RunStats::aggregate(&[host(&[(1.0, 0.0, 0)]), host(&[])]);
    }

    #[test]
    fn cores_projection_uses_the_measured_critical_path() {
        // One phase: 1000 work units, measured critical path 400 (so the
        // pool achieved 2.5x, not the ideal 4x).
        let h = SyncStats {
            phases: vec![PhaseStats {
                work_units: 1000,
                crit_work_units: 400,
                ..Default::default()
            }],
            ..Default::default()
        };
        let run = RunStats::aggregate(&[h]);
        assert!((run.parallel_speedup() - 2.5).abs() < 1e-12);
        let model = gluon_net::CostModel {
            alpha_secs: 0.0,
            beta_secs_per_byte: 0.0,
        };
        // 4 cores: charged at the measured 400, not the assumed 250.
        let t4 = run.projected_secs_with_cores(&model, 1.0, 4);
        assert!((t4 - 400.0).abs() < 1e-12);
        // 2 cores: perfect scaling (500) beats the measured path, so the
        // work/cores lower bound dominates.
        let t2 = run.projected_secs_with_cores(&model, 1.0, 2);
        assert!((t2 - 500.0).abs() < 1e-12);
        // 1 core degenerates to the sequential projection.
        let t1 = run.projected_secs_with_cores(&model, 1.0, 1);
        assert!((t1 - run.projected_secs(&model, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn projection_charges_the_bottleneck_host() {
        // Skewed traffic: host a sends 1 MB, three silent peers send
        // nothing. The projection must charge the full 1 MB — the BSP
        // round cannot finish before the hot host drains its queue — not
        // the 256 KB an even split across 4 hosts would pretend.
        let hot = 1_000_000u64;
        let a = host(&[(0.0, 0.0, hot)]);
        let quiet = host(&[(0.0, 0.0, 0)]);
        let run = RunStats::aggregate(&[a, quiet.clone(), quiet.clone(), quiet]);
        assert_eq!(run.total_bytes, hot);
        assert_eq!(run.max_host_bytes, hot);
        assert_eq!(run.max_host_messages, 1);

        let model = gluon_net::CostModel {
            alpha_secs: 0.0,
            beta_secs_per_byte: 1e-9,
        };
        let projected = run.projected_secs(&model, f64::INFINITY);
        // Bottleneck charge: 1 MB * 1 ns/byte = 1 ms, not 0.25 ms.
        assert!((projected - hot as f64 * 1e-9).abs() < 1e-15);

        // Uniform traffic is unchanged by the fix: max == total / hosts.
        let even = RunStats::aggregate(&[
            host(&[(0.0, 0.0, 100)]),
            host(&[(0.0, 0.0, 100)]),
            host(&[(0.0, 0.0, 100)]),
            host(&[(0.0, 0.0, 100)]),
        ]);
        assert_eq!(even.max_host_bytes * 4, even.total_bytes);
    }
}
