//! Analysis queries over the archive — the role of NERSC's OMNI querying
//! scripts (\[20\] in the paper): per-job energy integration, fleet
//! aggregation across nodes, job-total power series, and CSV export.

use crate::series::TimeSeries;
use crate::store::{Channel, Store};

/// Aggregate statistics of one channel across all nodes of a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetStats {
    pub nodes: usize,
    /// Mean of the per-node mean powers, watts.
    pub mean_w: f64,
    /// Lowest per-node mean, watts.
    pub min_node_mean_w: f64,
    /// Highest per-node mean, watts.
    pub max_node_mean_w: f64,
    /// Spread (max − min) of per-node means — Fig. 1's variability, watts.
    pub spread_w: f64,
}

/// Query interface layered over a [`Store`].
#[derive(Debug)]
pub struct Query<'a> {
    store: &'a Store,
}

impl<'a> Query<'a> {
    /// Wrap an archive.
    #[must_use]
    pub fn new(store: &'a Store) -> Self {
        Self { store }
    }

    /// Energy of one channel over a whole job (all nodes), joules.
    /// Returns `None` when the job is unknown.
    #[must_use]
    pub fn job_energy_j(&self, job: &str, channel: Channel) -> Option<f64> {
        let nodes = self.store.nodes_of(job);
        if nodes.is_empty() {
            return None;
        }
        Some(
            nodes
                .iter()
                .filter_map(|&n| self.store.query(job, n, channel))
                .map(|s| s.energy_estimate_j())
                .sum(),
        )
    }

    /// Per-node variability of one channel (Fig. 1-style comparison).
    #[must_use]
    pub fn fleet_stats(&self, job: &str, channel: Channel) -> Option<FleetStats> {
        let nodes = self.store.nodes_of(job);
        let means: Vec<f64> = nodes
            .iter()
            .filter_map(|&n| self.store.query(job, n, channel))
            .map(|s| s.mean())
            .collect();
        if means.is_empty() {
            return None;
        }
        let min = means.iter().copied().fold(f64::INFINITY, f64::min);
        let max = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(FleetStats {
            nodes: means.len(),
            mean_w: means.iter().sum::<f64>() / means.len() as f64,
            min_node_mean_w: min,
            max_node_mean_w: max,
            spread_w: max - min,
        })
    }

    /// Job-total power series: per-node series of one channel summed on
    /// their common timestamps (samples that any node dropped are skipped,
    /// as a production join would).
    #[must_use]
    pub fn job_total_series(&self, job: &str, channel: Channel) -> Option<TimeSeries> {
        let nodes = self.store.nodes_of(job);
        if nodes.is_empty() {
            return None;
        }
        let series: Vec<TimeSeries> = nodes
            .iter()
            .filter_map(|&n| self.store.query(job, n, channel))
            .collect();
        if series.len() != nodes.len() {
            return None;
        }
        // Intersect timestamps (bitwise-identical sampling grids).
        let mut common: Vec<f64> = series[0].times().to_vec();
        for s in &series[1..] {
            let set: std::collections::BTreeSet<u64> =
                s.times().iter().map(|t| t.to_bits()).collect();
            common.retain(|t| set.contains(&t.to_bits()));
        }
        let mut values = vec![0.0f64; common.len()];
        for s in &series {
            let lookup: std::collections::BTreeMap<u64, f64> = s
                .times()
                .iter()
                .zip(s.values())
                .map(|(t, v)| (t.to_bits(), *v))
                .collect();
            for (i, t) in common.iter().enumerate() {
                values[i] += lookup[&t.to_bits()];
            }
        }
        Some(TimeSeries::new(common, values))
    }

    /// Share of a job's node energy attributable to its GPUs — the
    /// paper's ">70 % for hot workloads" metric (Fig. 3).
    #[must_use]
    pub fn gpu_energy_share(&self, job: &str) -> Option<f64> {
        let node = self.job_energy_j(job, Channel::Node)?;
        if node <= 0.0 {
            return None;
        }
        let gpus: f64 = (0..4)
            .map(|g| self.job_energy_j(job, Channel::Gpu(g)).unwrap_or(0.0))
            .sum();
        Some(gpus / node)
    }
}

/// Render a series as CSV (`time_s,watts` with a header).
#[must_use]
pub fn to_csv(series: &TimeSeries) -> String {
    let mut out = String::with_capacity(series.len() * 24 + 16);
    out.push_str("time_s,watts\n");
    for (t, v) in series.times().iter().zip(series.values()) {
        out.push_str(&format!("{t:.3},{v:.3}\n"));
    }
    out
}

/// Parse CSV produced by [`to_csv`] back into a series.
///
/// # Errors
/// Returns a message naming the offending line.
pub fn from_csv(text: &str) -> Result<TimeSeries, String> {
    let mut times = Vec::new();
    let mut values = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if i == 0 {
            if line.trim() != "time_s,watts" {
                return Err(format!("line 1: bad header '{line}'"));
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let (t, v) = line
            .split_once(',')
            .ok_or_else(|| format!("line {}: missing comma", i + 1))?;
        times.push(
            t.trim()
                .parse()
                .map_err(|_| format!("line {}: bad time '{t}'", i + 1))?,
        );
        values.push(
            v.trim()
                .parse()
                .map_err(|_| format!("line {}: bad value '{v}'", i + 1))?,
        );
    }
    if !times.windows(2).all(|w| w[0] < w[1]) {
        return Err("timestamps not strictly increasing".into());
    }
    Ok(TimeSeries::new(times, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::Sampler;
    use vpp_node::ComponentTraces;
    use vpp_sim::PowerTrace;

    fn archive() -> Store {
        let store = Store::new();
        let mk = |w: f64| {
            ComponentTraces::assemble(
                PowerTrace::from_segments(0.0, [(100.0, 100.0)]),
                PowerTrace::from_segments(0.0, [(100.0, 30.0)]),
                (0..4)
                    .map(|i| PowerTrace::from_segments(0.0, [(100.0, w + i as f64)]))
                    .collect(),
                PowerTrace::from_segments(0.0, [(100.0, 150.0)]),
            )
        };
        store.ingest_job("j", &[mk(300.0), mk(310.0)], &Sampler::ideal(1.0));
        store
    }

    #[test]
    fn job_energy_sums_nodes() {
        let store = archive();
        let q = Query::new(&store);
        let cpu = q.job_energy_j("j", Channel::Cpu).unwrap();
        // 2 nodes × 100 W × ~100 s (rectangle estimate).
        assert!((cpu - 20_000.0).abs() < 500.0, "cpu energy {cpu}");
        assert!(q.job_energy_j("nope", Channel::Cpu).is_none());
    }

    #[test]
    fn fleet_stats_capture_node_spread() {
        let store = archive();
        let q = Query::new(&store);
        let s = q.fleet_stats("j", Channel::Gpu(0)).unwrap();
        assert_eq!(s.nodes, 2);
        assert!((s.min_node_mean_w - 300.0).abs() < 1e-6);
        assert!((s.max_node_mean_w - 310.0).abs() < 1e-6);
        assert!((s.spread_w - 10.0).abs() < 1e-6);
    }

    #[test]
    fn job_total_series_sums_common_samples() {
        let store = archive();
        let q = Query::new(&store);
        let total = q.job_total_series("j", Channel::Node).unwrap();
        assert!(!total.is_empty());
        // node totals: (100+30+4·301.5+150) + (... +311.5 ...) per sample.
        let expect = (100.0 + 30.0 + 4.0 * 301.5 + 150.0)
            + (100.0 + 30.0 + 4.0 * 311.5 + 150.0);
        assert!((total.values()[0] - expect).abs() < 1e-6);
    }

    #[test]
    fn gpu_share_is_most_of_a_hot_job() {
        let store = archive();
        let q = Query::new(&store);
        let share = q.gpu_energy_share("j").unwrap();
        assert!(share > 0.70 && share < 0.85, "share {share}");
    }

    #[test]
    fn csv_round_trips() {
        let s = TimeSeries::new(vec![1.0, 2.0, 3.5], vec![100.0, 200.5, 50.25]);
        let csv = to_csv(&s);
        let back = from_csv(&csv).unwrap();
        assert_eq!(back.len(), 3);
        assert!((back.values()[1] - 200.5).abs() < 1e-9);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(from_csv("nope\n1,2\n").is_err());
        assert!(from_csv("time_s,watts\n1;2\n").is_err());
        assert!(from_csv("time_s,watts\n1,abc\n").is_err());
        assert!(from_csv("time_s,watts\n2,1\n1,1\n").is_err());
    }
}
