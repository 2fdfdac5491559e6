//! Bootstrap uncertainty for the paper's metrics.
//!
//! The paper reports point estimates (high power mode, FWHM) from a single
//! representative run. For methodological completeness we provide bootstrap
//! confidence intervals: resample the power samples with replacement,
//! recompute the statistic, and take percentile bounds. The deterministic
//! resampler keeps results reproducible. `vpp trace diff` bootstraps its
//! per-repeat paired deltas through [`bootstrap_ci`].

/// A percentile bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate on the full sample.
    pub estimate: f64,
    /// Lower percentile bound.
    pub lo: f64,
    /// Upper percentile bound.
    pub hi: f64,
    /// Nominal coverage (e.g. 0.95).
    pub level: f64,
}

impl ConfidenceInterval {
    /// Interval width.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether the interval contains `x`.
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        (self.lo..=self.hi).contains(&x)
    }
}

/// Deterministic multiplicative-congruential index stream for resampling.
struct IndexStream(u64);

impl IndexStream {
    fn next_index(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) as usize) % n
    }
}

/// Percentile bootstrap for an arbitrary statistic.
///
/// # Panics
/// If `data` is empty, `resamples == 0`, or `level` outside `(0, 1)`.
#[must_use]
pub fn bootstrap_ci(
    data: &[f64],
    resamples: usize,
    level: f64,
    seed: u64,
    statistic: impl Fn(&[f64]) -> f64,
) -> ConfidenceInterval {
    assert!(!data.is_empty(), "bootstrap of empty data");
    assert!(resamples > 0, "need at least one resample");
    assert!((0.0..1.0).contains(&level) && level > 0.0, "bad level {level}");
    let estimate = statistic(data);
    let mut stream = IndexStream(seed ^ 0xB007_57A9);
    let mut stats: Vec<f64> = (0..resamples)
        .map(|_| {
            let resample: Vec<f64> = (0..data.len())
                .map(|_| data[stream.next_index(data.len())])
                .collect();
            statistic(&resample)
        })
        .collect();
    stats.sort_by(f64::total_cmp);
    let alpha = (1.0 - level) / 2.0;
    let idx = |p: f64| {
        ((p * (stats.len() - 1) as f64).round() as usize).min(stats.len() - 1)
    };
    ConfidenceInterval {
        estimate,
        lo: stats[idx(alpha)],
        hi: stats[idx(1.0 - alpha)],
        level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::mean;
    use crate::modes::high_power_mode;

    /// 95 % CI for the high power mode of a power sample.
    fn mode_ci(data: &[f64], resamples: usize, seed: u64) -> ConfidenceInterval {
        bootstrap_ci(data, resamples, 0.95, seed, |xs| high_power_mode(xs).x)
    }

    fn bimodal() -> Vec<f64> {
        let mut v: Vec<f64> = (0..400).map(|i| 700.0 + (i % 40) as f64).collect();
        v.extend((0..400).map(|i| 1700.0 + (i % 40) as f64));
        v
    }

    #[test]
    fn ci_brackets_the_estimate() {
        let data = bimodal();
        let ci = mode_ci(&data, 200, 1);
        assert!(ci.lo <= ci.estimate && ci.estimate <= ci.hi, "{ci:?}");
        assert!(ci.contains(ci.estimate));
        assert!(ci.width() < 120.0, "mode CI should be tight: {ci:?}");
        assert!((1650.0..1800.0).contains(&ci.estimate));
    }

    #[test]
    fn ci_is_deterministic_per_seed() {
        let data = bimodal();
        let a = mode_ci(&data, 100, 7);
        let b = mode_ci(&data, 100, 7);
        assert_eq!(a, b);
        let c = mode_ci(&data, 100, 8);
        assert!(a != c || a.width() == 0.0);
    }

    #[test]
    fn mean_ci_narrows_with_more_data() {
        let small: Vec<f64> = (0..40).map(|i| 100.0 + (i * 37 % 100) as f64).collect();
        let large: Vec<f64> = (0..4000).map(|i| 100.0 + (i * 37 % 100) as f64).collect();
        let ci_small = bootstrap_ci(&small, 300, 0.95, 3, mean);
        let ci_large = bootstrap_ci(&large, 300, 0.95, 3, mean);
        assert!(ci_large.width() < ci_small.width());
    }

    #[test]
    fn constant_data_has_zero_width() {
        let data = vec![500.0; 50];
        let ci = bootstrap_ci(&data, 100, 0.9, 1, mean);
        assert_eq!(ci.width(), 0.0);
        assert_eq!(ci.estimate, 500.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_data_panics() {
        let _ = bootstrap_ci(&[], 10, 0.95, 0, mean);
    }

    #[test]
    #[should_panic(expected = "bad level")]
    fn bad_level_panics() {
        let _ = bootstrap_ci(&[1.0], 10, 1.5, 0, mean);
    }
}
