//! Fig. 3: component power timelines for Si256_hse, GaAsBi-64 and
//! Si128_acfdtr on one node, with the node-level distribution statistics
//! the paper prints in each panel's text box.

use crate::benchmarks::{gaasbi64, si128_acfdtr, si256_hse, Benchmark};
use crate::experiments::{f, render_table};
use crate::protocol::{measure, plan_for, RunConfig, StudyContext};
use vpp_cluster::execute_node0;
use vpp_telemetry::TimeSeries;

/// One panel of the figure.
#[derive(Debug, Clone)]
pub struct Panel {
    pub name: String,
    pub runtime_s: f64,
    /// Node stats (the text box): max / median / min / high mode.
    pub max_w: f64,
    pub median_w: f64,
    pub min_w: f64,
    pub high_mode_w: f64,
    /// Mean power share of the four GPUs over the run.
    pub gpu_share: f64,
    /// Mean power share of CPU + DDR.
    pub cpu_mem_share: f64,
    /// Down-sampled node power timeline for plotting (time, watts).
    pub timeline: Vec<(f64, f64)>,
    /// Node power histogram (edges, counts) over the run.
    pub histogram: (Vec<f64>, Vec<usize>),
}

/// The figure's data: three panels.
#[derive(Debug, Clone)]
pub struct Fig03 {
    pub panels: Vec<Panel>,
}

fn timeline_points(series: &TimeSeries, n_points: usize) -> Vec<(f64, f64)> {
    let factor = (series.len() / n_points).max(1);
    let d = series.downsample(factor);
    d.times().iter().copied().zip(d.values().iter().copied()).collect()
}

fn panel(bench: &Benchmark, ctx: &StudyContext) -> Panel {
    let m = measure(bench, &RunConfig::nodes(1), ctx);
    // The component traces come from re-running the representative repeat.
    let plan = plan_for(bench, m.nodes, ctx);
    let run = execute_node0(&plan, &m.spec, &ctx.network);
    let c = &run.node_traces[0];
    // Shares over the steady part of the run (skip init/final barriers).
    let t0 = c.node.start() + 8.0;
    let t1 = c.node.end() - 2.0;
    let node_e = c.node.energy_between(t0, t1).max(f64::MIN_POSITIVE);
    let gpu_e: f64 = c.gpus.iter().map(|g| g.energy_between(t0, t1)).sum();
    let cpu_mem_e = c.cpu.energy_between(t0, t1) + c.mem.energy_between(t0, t1);
    let vals = m.node_series.values();
    let (lo, hi) = (400.0, 2350.0);
    Panel {
        name: m.name.clone(),
        runtime_s: m.runtime_s,
        max_w: m.node_summary.max_w,
        median_w: m.node_summary.median_w,
        min_w: m.node_summary.min_w,
        high_mode_w: m.node_summary.high_mode_w,
        gpu_share: gpu_e / node_e,
        cpu_mem_share: cpu_mem_e / node_e,
        timeline: timeline_points(&m.node_series, 48),
        histogram: vpp_stats::describe::histogram(vals, lo, hi, 30),
    }
}

/// Run the three panels.
#[must_use]
pub fn run(ctx: &StudyContext) -> Fig03 {
    Fig03 {
        panels: vec![
            panel(&si256_hse(), ctx),
            panel(&gaasbi64(), ctx),
            panel(&si128_acfdtr(), ctx),
        ],
    }
}

impl std::fmt::Display for Fig03 {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let header = vec![
            "benchmark".to_string(),
            "runtime s".to_string(),
            "max W".to_string(),
            "median W".to_string(),
            "min W".to_string(),
            "high mode W".to_string(),
            "GPU share".to_string(),
            "CPU+mem share".to_string(),
        ];
        let rows: Vec<Vec<String>> = self
            .panels
            .iter()
            .map(|p| {
                vec![
                    p.name.clone(),
                    f(p.runtime_s, 0),
                    f(p.max_w, 0),
                    f(p.median_w, 0),
                    f(p.min_w, 0),
                    f(p.high_mode_w, 0),
                    format!("{:.0}%", p.gpu_share * 100.0),
                    format!("{:.0}%", p.cpu_mem_share * 100.0),
                ]
            })
            .collect();
        writeln!(
            fmt,
            "{}",
            render_table(
                "Fig. 3 — node power timelines & distributions (1 node)",
                &header,
                &rows
            )
        )?;
        for p in &self.panels {
            let values: Vec<f64> = p.timeline.iter().map(|&(_, w)| w).collect();
            writeln!(fmt, "{} node power (W) over the run:", p.name)?;
            write!(fmt, "{}", crate::plot::timeline_chart(&values, 4, 400.0, 2000.0))?;
        }
        Ok(())
    }
}


impl Fig03 {
    /// Machine-readable export: the per-panel stats plus each panel's
    /// down-sampled node-power timeline.
    #[must_use]
    pub fn csv(&self) -> String {
        let mut out = String::from(
            "benchmark,runtime_s,max_w,median_w,min_w,high_mode_w,gpu_share,cpu_mem_share\n",
        );
        for p in &self.panels {
            out.push_str(&format!(
                "{},{:.1},{:.1},{:.1},{:.1},{:.1},{:.3},{:.3}\n",
                p.name,
                p.runtime_s,
                p.max_w,
                p.median_w,
                p.min_w,
                p.high_mode_w,
                p.gpu_share,
                p.cpu_mem_share
            ));
        }
        out.push_str("\nbenchmark,time_s,node_w\n");
        for p in &self.panels {
            for &(t, w) in &p.timeline {
                out.push_str(&format!("{},{t:.1},{w:.1}\n", p.name));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panels_reproduce_paper_structure() {
        let fig = run(&StudyContext::quick());
        assert_eq!(fig.panels.len(), 3);
        let si256 = &fig.panels[0];
        let gaasbi = &fig.panels[1];
        let si128 = &fig.panels[2];

        // Paper: high power mode per node ranges from 766 to 1814 W; the
        // HSE/RPA panels are hot, GaAsBi-64 is low.
        assert!(si256.high_mode_w > 1600.0, "{}", si256.high_mode_w);
        assert!(gaasbi.high_mode_w < 1000.0, "{}", gaasbi.high_mode_w);
        assert!(si128.high_mode_w > 1500.0, "{}", si128.high_mode_w);

        // Paper: for the hot panels GPUs are >70 % of node power and
        // CPU+memory <10 %... GaAsBi-64 "uses much less power".
        assert!(si256.gpu_share > 0.70, "{}", si256.gpu_share);
        assert!(si256.cpu_mem_share < 0.12, "{}", si256.cpu_mem_share);
        assert!(gaasbi.gpu_share < si256.gpu_share);

        // Si128_acfdtr: substantial variation (CPU-only diag stage).
        assert!(
            si128.max_w - si128.min_w > 700.0,
            "spread {}",
            si128.max_w - si128.min_w
        );
    }

    #[test]
    fn histograms_cover_all_samples() {
        let fig = run(&StudyContext::quick());
        for p in &fig.panels {
            let total: usize = p.histogram.1.iter().sum();
            assert!(total > 0, "{} histogram empty", p.name);
        }
    }
}
