//! Metric names, the result line, and the statistics behind them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, `(name, unit)`, printed by every untraced run.
/// The failure share is reported as its complement `ok_rate`, because a
/// gated metric must never read 0.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_heap_mb", "MB"),
    ("ok_rate", "fraction"),
];

/// Per-layer metrics, `(name, unit)`, printed by every traced run. A
/// layer the workload never calls reads 0. "/op" units are per timed
/// op of the traced window.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("dft.build_plan.calls", "count/op"),
    ("dft.build_plan.busy_s", "s/op"),
    ("cluster.execute.calls", "count/op"),
    ("cluster.execute.busy_s", "s/op"),
    ("cluster.execute.sim_s", "s/op"),
    ("telemetry.sample.calls", "count/op"),
    ("telemetry.sample.busy_s", "s/op"),
    ("telemetry.sample.points", "count/op"),
    ("telemetry.quarantine.busy_s", "s/op"),
    ("telemetry.recollections", "count/op"),
    ("stats.summary.calls", "count/op"),
    ("stats.summary.busy_s", "s/op"),
    ("core.measure.self_s", "s/op"),
    ("core.handler.p50_ms", "ms"),
    ("pool.wait_s", "s"),
    ("pool.busy_frac", "fraction"),
    ("powercap.generate.busy_s", "s/op"),
    ("powercap.cap_for.calls", "count/op"),
    ("powercap.demand.busy_s", "s/op"),
    ("powercap.partition_engine.calls", "count/op"),
    ("powercap.partition_engine.busy_s", "s/op"),
    ("powercap.run.self_s", "s/op"),
    ("powercap.site_engine.busy_s", "s/op"),
    ("powercap.backfilled", "count/op"),
    ("serve.connect.calls", "count/op"),
    ("serve.connect.p50_ms", "ms"),
    ("serve.post_jobs.p50_ms", "ms"),
    ("serve.get_trace.p50_ms", "ms"),
    ("serve.get_trace.p90_ms", "ms"),
    ("serve.get_job.p50_ms", "ms"),
    ("serve.get_metrics.p50_ms", "ms"),
    ("serve.delete_job.p50_ms", "ms"),
    ("serve.requests_per_job", "count/op"),
    ("serve.trace.events_per_job", "count/op"),
    ("serve.trace.bytes_per_job", "bytes/op"),
    ("serve.slow_requests_frac", "fraction"),
    ("serve.queue_wait.p50_ms", "ms"),
    ("serve.run.p50_ms", "ms"),
    ("trace.job_overhead_frac", "fraction"),
    ("bench.trace_overhead_frac", "fraction"),
];

/// Linear-interpolation quantile (`q` in 0..=1); 0 for no samples.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median; 0 for no samples.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// What one untraced timed window yields, before it becomes metrics.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall time of each repeated set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every timed op, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Ops completed per second of the window.
    pub ops_per_s: f64,
    /// Peak live heap, bytes.
    pub peak_heap_bytes: f64,
    /// Ops attempted and ops whose checks failed.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages (printed to stderr).
    pub failures: Vec<String>,
}

impl Window {
    /// Count one op outcome, keeping a few messages for diagnosis.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }

    /// The six end-to-end metrics, in [`END_TO_END`] order.
    #[must_use]
    pub fn end_to_end(&self) -> Vec<f64> {
        let ok = if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        };
        vec![
            median(&self.setup_s),
            self.ops_per_s,
            quantile(&self.latencies_ms, 0.5),
            quantile(&self.latencies_ms, 0.9),
            self.peak_heap_bytes / 1e6,
            ok,
        ]
    }
}

/// The per-layer values one traced run measured; unnamed layers read 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Set one per-layer metric.
    ///
    /// # Panics
    /// If `name` is not in [`PER_LAYER`] (a typo would silently read 0).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, 0 when unmeasured.
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// One run's result line.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The untraced run's report.
    #[must_use]
    pub fn untraced(w: &Window) -> Report {
        let values = w.end_to_end();
        Report {
            attempted: w.attempted,
            failed: w.failed,
            failures: w.failures.clone(),
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(&(n, u), v)| (n, v, u))
                .collect(),
        }
    }

    /// The traced run's report: op accounting summed over `parts`,
    /// metrics from `layers`.
    #[must_use]
    pub fn traced(parts: &[&Window], layers: &Layers) -> Report {
        Report {
            attempted: parts.iter().map(|w| w.attempted).sum(),
            failed: parts.iter().map(|w| w.failed).sum(),
            failures: parts.iter().flat_map(|w| w.failures.clone()).collect(),
            metrics: PER_LAYER
                .iter()
                .map(|&(n, u)| (n, layers.get(n), u))
                .collect(),
        }
    }

    /// True when every op passed its checks.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result object.
    #[must_use]
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_every_metric() {
        let mut w = Window::default();
        w.check(Ok(()));
        w.setup_s = vec![0.5];
        let line = Report::untraced(&w).json_line();
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{line}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        let traced = Report::traced(&[&w, &w], &Layers::default());
        assert_eq!(traced.attempted, 2);
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
    }
}
