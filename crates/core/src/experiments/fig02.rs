//! Fig. 2: the sampling-rate methodology study.
//!
//! Power is captured at 0.1 s and down-sampled to coarser rates. The paper
//! finds that the high power mode is stable at any rate up to 10 s, that
//! the FWHM of the high mode widens as the rate coarsens, and that the
//! maximum may decrease slightly. This experiment reproduces the stable
//! mode but not the widening: averaging whole windows narrows the mode of
//! the nearly unimodal simulated GPU signal, so its FWHM reads 1–6 W with
//! no trend (EXPERIMENTS.md, Known deviation 1).

use crate::benchmarks::si256_hse;
use crate::experiments::{f, render_table};
use crate::protocol::{plan_for, StudyContext};
use vpp_cluster::{execute_node0, JobSpec};
use vpp_stats::{fwhm, high_power_mode};
use vpp_telemetry::Sampler;

/// Distribution statistics of the per-GPU power at one sampling rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateRow {
    pub rate_s: f64,
    pub max_w: f64,
    pub median_w: f64,
    pub min_w: f64,
    pub high_mode_w: f64,
    pub fwhm_w: f64,
    pub n_samples: usize,
}

/// The figure's data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig02 {
    pub rows: Vec<RateRow>,
}

/// The down-sampling factors applied to the 0.1 s capture.
pub const RATES: [f64; 7] = [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0];

/// Capture Si256_hse GPU power at 0.1 s and down-sample across rates.
#[must_use]
pub fn run(ctx: &StudyContext) -> Fig02 {
    let bench = si256_hse();
    let plan = plan_for(&bench, 1, ctx);
    let spec = JobSpec {
        nodes: 1,
        gpu_power_cap_w: None,
        seed: 0xF16_0002,
        start_s: 0.0,
        init_host_s: 6.0,
        straggler: None,
        os_jitter: 0.0,
        phase_slowdown: None,
        collective_slowdown: None,
    };
    let result = execute_node0(&plan, &spec, &ctx.network);
    let gpu = &result.node_traces[0].gpus[0];

    let base = Sampler::ideal(0.1).sample(gpu);
    let rows = RATES
        .iter()
        .map(|&rate| {
            let factor = (rate / 0.1).round() as usize;
            let series = base.downsample(factor);
            let vals = series.values();
            let mode = high_power_mode(vals);
            RateRow {
                rate_s: rate,
                max_w: series.max().unwrap_or(0.0),
                median_w: vpp_stats::describe::median(vals),
                min_w: series.min().unwrap_or(0.0),
                high_mode_w: mode.x,
                fwhm_w: fwhm(vals, mode),
                n_samples: series.len(),
            }
        })
        .collect();
    Fig02 { rows }
}

impl Fig02 {
    /// Spread of the high power mode across all rates, watts.
    #[must_use]
    pub fn mode_stability_w(&self) -> f64 {
        let modes: Vec<f64> = self.rows.iter().map(|r| r.high_mode_w).collect();
        modes.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - modes.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

impl std::fmt::Display for Fig02 {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let header = vec![
            "rate s".to_string(),
            "max W".to_string(),
            "median W".to_string(),
            "min W".to_string(),
            "high mode W".to_string(),
            "FWHM W".to_string(),
            "samples".to_string(),
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    f(r.rate_s, 1),
                    f(r.max_w, 0),
                    f(r.median_w, 0),
                    f(r.min_w, 0),
                    f(r.high_mode_w, 0),
                    f(r.fwhm_w, 1),
                    r.n_samples.to_string(),
                ]
            })
            .collect();
        writeln!(
            fmt,
            "{}",
            render_table(
                "Fig. 2 — per-GPU power statistics vs sampling rate (Si256_hse, 1 node)",
                &header,
                &rows
            )
        )?;
        writeln!(
            fmt,
            "high power mode spread across rates: {:.0} W",
            self.mode_stability_w()
        )
    }
}


impl Fig02 {
    /// Machine-readable export.
    #[must_use]
    pub fn csv(&self) -> String {
        let mut out =
            String::from("rate_s,max_w,median_w,min_w,high_mode_w,fwhm_w,samples\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{:.1},{:.1},{:.1},{:.1},{:.2},{}\n",
                r.rate_s, r.max_w, r.median_w, r.min_w, r.high_mode_w, r.fwhm_w, r.n_samples
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig02 {
        run(&StudyContext::quick())
    }

    #[test]
    fn mode_is_stable_across_rates() {
        let fig = fig();
        assert_eq!(fig.rows.len(), RATES.len());
        // Paper: "the high power mode itself remains unchanged".
        assert!(
            fig.mode_stability_w() < 25.0,
            "mode spread {} W",
            fig.mode_stability_w()
        );
    }

    #[test]
    fn max_never_increases_with_coarser_rates() {
        let fig = fig();
        for w in fig.rows.windows(2) {
            assert!(
                w[1].max_w <= w[0].max_w + 1e-9,
                "max rose from {} to {} between {}s and {}s",
                w[0].max_w,
                w[1].max_w,
                w[0].rate_s,
                w[1].rate_s
            );
        }
    }

    #[test]
    fn sample_counts_shrink_proportionally() {
        let fig = fig();
        let n0 = fig.rows[0].n_samples as f64;
        for r in &fig.rows {
            let expect = n0 * 0.1 / r.rate_s;
            assert!(
                (r.n_samples as f64) >= expect * 0.9 - 2.0
                    && (r.n_samples as f64) <= expect * 1.1 + 2.0,
                "rate {}: {} samples vs expected ~{expect}",
                r.rate_s,
                r.n_samples
            );
        }
    }

    #[test]
    fn mode_sits_near_the_gpu_hot_level() {
        let fig = fig();
        for r in &fig.rows {
            assert!(
                (300.0..400.0).contains(&r.high_mode_w),
                "rate {}: mode {}",
                r.rate_s,
                r.high_mode_w
            );
        }
    }
}
