//! Fig. 9: power distributions (violins) of the seven methods applied to
//! Si128 and Si256 supercells on one node.
//!
//! The paper's finding: the higher-order methods (HSE, ACFDT/RPA) run over
//! 600 W per node hotter than the basic DFT schemes, and every method runs
//! hotter on the larger supercell.

use crate::experiments::{f, render_table};
use crate::protocol::StudyContext;
use vpp_cluster::{execute_node0, JobSpec};
use vpp_dft::{build_plan, Method, ParallelLayout, Supercell, SystemParams};
use vpp_stats::{high_power_mode, ViolinStats};
use vpp_telemetry::Sampler;

/// One violin: a method applied to one supercell size.
#[derive(Debug, Clone)]
pub struct MethodRow {
    pub method: &'static str,
    pub atoms: usize,
    pub higher_order: bool,
    pub high_mode_w: f64,
    pub violin: ViolinStats,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig09 {
    pub rows: Vec<MethodRow>,
}

/// The two supercell sizes compared.
pub const SIZES: [usize; 2] = [128, 256];

/// Run all methods on both sizes.
#[must_use]
pub fn run(ctx: &StudyContext) -> Fig09 {
    let sampler = Sampler::ideal(0.5);
    let mut rows = Vec::new();
    for &atoms in &SIZES {
        for method in Method::all() {
            let cell = Supercell::silicon(atoms);
            let p = SystemParams::derive(&cell, &method.deck());
            let plan = build_plan(&p, &ParallelLayout::nodes(1), &ctx.cost);
            let spec = JobSpec {
                nodes: 1,
                gpu_power_cap_w: None,
                seed: 0xF16_0009 + atoms as u64,
                start_s: 0.0,
                init_host_s: 2.0,
                straggler: None,
                os_jitter: 0.0,
                phase_slowdown: None,
                collective_slowdown: None,
            };
            let res = execute_node0(&plan, &spec, &ctx.network);
            let series = sampler.sample(&res.node_traces[0].node);
            rows.push(MethodRow {
                method: method.label(),
                atoms,
                higher_order: method.is_higher_order(),
                high_mode_w: high_power_mode(series.values()).x,
                violin: ViolinStats::from_samples(series.values(), 128),
            });
        }
    }
    Fig09 { rows }
}

impl Fig09 {
    /// Mean high-power-mode gap between higher-order and DFT methods, watts.
    #[must_use]
    pub fn higher_order_gap_w(&self) -> f64 {
        let mean = |pred: &dyn Fn(&MethodRow) -> bool| {
            let vals: Vec<f64> = self
                .rows
                .iter()
                .filter(|r| pred(r))
                .map(|r| r.high_mode_w)
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        mean(&|r| r.higher_order) - mean(&|r| !r.higher_order)
    }
}

impl std::fmt::Display for Fig09 {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let header = vec![
            "method".to_string(),
            "atoms".to_string(),
            "q1 W".to_string(),
            "median W".to_string(),
            "q3 W".to_string(),
            "high mode W".to_string(),
            "modes".to_string(),
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.method.to_string(),
                    r.atoms.to_string(),
                    f(r.violin.q1, 0),
                    f(r.violin.median, 0),
                    f(r.violin.q3, 0),
                    f(r.high_mode_w, 0),
                    r.violin.outline_mode_count().to_string(),
                ]
            })
            .collect();
        writeln!(
            fmt,
            "{}",
            render_table(
                "Fig. 9 — power distributions per method (Si128 & Si256, 1 node)",
                &header,
                &rows
            )
        )?;
        writeln!(
            fmt,
            "mean higher-order vs DFT high-power-mode gap: {:.0} W",
            self.higher_order_gap_w()
        )
    }
}


impl Fig09 {
    /// Machine-readable export.
    #[must_use]
    pub fn csv(&self) -> String {
        let mut out = String::from(
            "method,atoms,higher_order,q1_w,median_w,q3_w,high_mode_w,outline_modes\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{:.1},{:.1},{:.1},{:.1},{}\n",
                r.method,
                r.atoms,
                r.higher_order,
                r.violin.q1,
                r.violin.median,
                r.violin.q3,
                r.high_mode_w,
                r.violin.outline_mode_count()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig09 {
        run(&StudyContext::quick())
    }

    #[test]
    fn higher_order_methods_run_hundreds_of_watts_hotter() {
        let fig = fig();
        assert_eq!(fig.rows.len(), 14);
        let gap = fig.higher_order_gap_w();
        assert!(gap > 300.0, "paper: >600 W on average; got {gap}");
    }

    #[test]
    fn larger_supercell_is_hotter_for_every_method() {
        let fig = fig();
        for method in vpp_dft::Method::all() {
            let get = |atoms: usize| {
                fig.rows
                    .iter()
                    .find(|r| r.method == method.label() && r.atoms == atoms)
                    .unwrap()
                    .high_mode_w
            };
            assert!(
                get(256) > get(128) - 25.0,
                "{}: Si128 {} W vs Si256 {} W",
                method.label(),
                get(128),
                get(256)
            );
        }
    }
}
