//! The order statistics every timing is printed with: `n / min / p25 /
//! median / p75 / max`.
//!
//! Interference on a small shared box only ever *adds* time and arrives in
//! bursts, so the median of a sample moves with how many bursts it caught
//! while the lower quartile barely does; `report::gated` builds the gated
//! value on it (see `perf/README.md`, "Why the quietest session's p25 is
//! gated").

/// Order statistics of one sample of a timing.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub max: f64,
}

/// The `q`-quantile (`0.0..=1.0`) of an ascending sample, interpolating
/// linearly between the two nearest ranks.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

impl Summary {
    /// Summarises `samples` (any order); `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            min: sorted[0],
            p25: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            p75: quantile(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
        })
    }
}

/// Lower quartile of `samples`, or 0 when there are none.
pub fn p25(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p25)
}

/// Median of `samples`, or 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn summary_sorts_and_counts() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).expect("non-empty");
        assert_eq!((s.n, s.min, s.max), (4, 1.0, 4.0));
        assert_eq!((s.p25, s.median, s.p75), (1.75, 2.5, 3.25));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(p25(&[]), 0.0);
    }

    #[test]
    fn a_burst_moves_the_median_more_than_the_lower_quartile() {
        let quiet: Vec<f64> = (0..16).map(|i| 1.0 + 0.01 * f64::from(i)).collect();
        let mut bursty = quiet.clone();
        for t in bursty.iter_mut().skip(7) {
            *t += 1.0;
        }
        let (q, b) = (Summary::of(&quiet).unwrap(), Summary::of(&bursty).unwrap());
        assert!((b.p25 - q.p25).abs() < 1e-12);
        assert!(b.median - q.median > 0.4);
    }
}
