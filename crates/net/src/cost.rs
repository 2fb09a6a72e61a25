//! Latency–bandwidth (α–β) network cost model.
//!
//! The simulated cluster moves bytes through memory, so wall-clock time does
//! not reflect what a real interconnect would charge. This model projects
//! communication time from the measured traffic: a message of `s` bytes
//! costs `alpha + s * beta`. The defaults approximate the Intel Omni-Path
//! fabric used by the paper's Stampede2 and Bridges clusters (100 Gb/s,
//! ~1 µs latency).

use crate::stats::StatsDelta;
use serde::{Deserialize, Serialize};

/// α–β cost model: `time(msg) = alpha_secs + bytes * beta_secs_per_byte`.
///
/// # Examples
///
/// ```
/// use gluon_net::CostModel;
///
/// let m = CostModel::OMNI_PATH;
/// let one_mib = m.message_time(1 << 20);
/// let two_mib = m.message_time(2 << 20);
/// assert!(two_mib > one_mib);
/// ```
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct CostModel {
    /// Per-message latency in seconds.
    pub alpha_secs: f64,
    /// Per-byte transfer time in seconds (1 / bandwidth).
    pub beta_secs_per_byte: f64,
}

impl CostModel {
    /// Approximation of Intel Omni-Path (100 Gb/s, 1 µs latency), the
    /// interconnect of both clusters in the paper.
    pub const OMNI_PATH: CostModel = CostModel {
        alpha_secs: 1e-6,
        beta_secs_per_byte: 8.0 / 100e9,
    };

    /// A slow commodity network (1 Gb/s, 50 µs), useful for exaggerating
    /// communication effects in demos.
    pub const GIGABIT: CostModel = CostModel {
        alpha_secs: 50e-6,
        beta_secs_per_byte: 8.0 / 1e9,
    };

    /// The model the benchmark harness projects with. The reproduction runs
    /// inputs three to four orders of magnitude smaller than the paper's,
    /// which would leave local compute dominating and mask the
    /// communication effects the paper measures ("performance on large
    /// clusters is limited by communication overhead", §1). Scaling the
    /// per-byte and per-message costs up (250 Mb/s, 20 µs) restores the
    /// paper's compute-to-communication balance at this input scale;
    /// communication *volumes* are unaffected (they are measured exactly).
    pub const REPRO: CostModel = CostModel {
        alpha_secs: 20e-6,
        beta_secs_per_byte: 32e-9,
    };

    /// Projected time to deliver one message of `bytes` bytes.
    pub fn message_time(&self, bytes: u64) -> f64 {
        self.alpha_secs + bytes as f64 * self.beta_secs_per_byte
    }

    /// Projected time for a communication phase described by a stats delta.
    ///
    /// BSP communication completes when the busiest host finishes sending,
    /// so the projection charges the maximum per-host traffic, not the sum.
    pub fn phase_time(&self, delta: &StatsDelta) -> f64 {
        delta.max_host_messages as f64 * self.alpha_secs
            + delta.max_host_bytes as f64 * self.beta_secs_per_byte
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::OMNI_PATH
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_dominates_small_messages() {
        let m = CostModel::OMNI_PATH;
        assert!(m.message_time(1) < 2.0 * m.alpha_secs);
    }

    #[test]
    fn bandwidth_dominates_large_messages() {
        let m = CostModel::OMNI_PATH;
        let t = m.message_time(1 << 30);
        assert!(t > 100.0 * m.alpha_secs);
    }

    #[test]
    fn phase_time_charges_the_straggler() {
        let m = CostModel {
            alpha_secs: 1.0,
            beta_secs_per_byte: 1.0,
        };
        let d = StatsDelta {
            total_bytes: 100,
            total_messages: 10,
            max_host_bytes: 60,
            max_host_messages: 4,
        };
        assert!((m.phase_time(&d) - 64.0).abs() < 1e-12);
    }

    #[test]
    fn gigabit_is_slower_than_omni_path() {
        let bytes = 1 << 20;
        assert!(CostModel::GIGABIT.message_time(bytes) > CostModel::OMNI_PATH.message_time(bytes));
    }
}
