//! Fig. 6: power vs system size — silicon supercells from 16 to 4096 atoms
//! under the default DFT iteration scheme, one node.
//!
//! The paper's finding: power rises with size and plateaus once the GPUs
//! approach their TDP, at ≈2048 atoms.

use crate::experiments::{f, render_table};
use crate::protocol::StudyContext;
use vpp_cluster::{execute_node0, JobSpec};
use vpp_dft::{build_plan, Incar, ParallelLayout, Supercell, SystemParams};
use vpp_sim::PowerTrace;
use vpp_stats::{fwhm, high_power_mode};
use vpp_telemetry::Sampler;

/// One supercell size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeRow {
    pub atoms: usize,
    pub nplwv: usize,
    pub nbands: usize,
    pub node_mode_w: f64,
    pub node_fwhm_w: f64,
    pub gpu4_mode_w: f64,
    pub gpu4_fwhm_w: f64,
}

/// The figure's data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig06 {
    pub rows: Vec<SizeRow>,
}

/// The sweep sizes.
pub const SIZES: [usize; 9] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Run the size sweep.
#[must_use]
pub fn run(ctx: &StudyContext) -> Fig06 {
    // Small cells iterate in fractions of a second; sample at 0.5 s so even
    // they yield enough samples (Fig. 2 shows rates ≤5 s are equivalent for
    // the high power mode).
    let sampler = Sampler::ideal(0.5);
    let rows = SIZES
        .iter()
        .map(|&atoms| {
            let cell = Supercell::silicon(atoms);
            let deck = Incar::default_deck();
            let p = SystemParams::derive(&cell, &deck);
            let plan = build_plan(&p, &ParallelLayout::nodes(1), &ctx.cost);
            let spec = JobSpec {
                nodes: 1,
                gpu_power_cap_w: None,
                seed: 0xF16_0006 + atoms as u64,
                start_s: 0.0,
                init_host_s: 2.0,
                straggler: None,
                os_jitter: 0.0,
                phase_slowdown: None,
                collective_slowdown: None,
            };
            let res = execute_node0(&plan, &spec, &ctx.network);
            let c = &res.node_traces[0];
            let node_series = sampler.sample(&c.node);
            let gpu4 = PowerTrace::sum(&c.gpus.iter().collect::<Vec<_>>());
            let gpu4_series = sampler.sample(&gpu4);
            let node_mode = high_power_mode(node_series.values());
            let gpu4_mode = high_power_mode(gpu4_series.values());
            SizeRow {
                atoms,
                nplwv: p.nplwv,
                nbands: p.nbands,
                node_mode_w: node_mode.x,
                node_fwhm_w: fwhm(node_series.values(), node_mode),
                gpu4_mode_w: gpu4_mode.x,
                gpu4_fwhm_w: fwhm(gpu4_series.values(), gpu4_mode),
            }
        })
        .collect();
    Fig06 { rows }
}

impl Fig06 {
    /// Atom count where 4-GPU power first reaches 90 % of its plateau.
    #[must_use]
    pub fn saturation_atoms(&self) -> usize {
        let plateau = self
            .rows
            .iter()
            .map(|r| r.gpu4_mode_w)
            .fold(f64::NEG_INFINITY, f64::max);
        self.rows
            .iter()
            .find(|r| r.gpu4_mode_w >= 0.9 * plateau)
            .map_or(0, |r| r.atoms)
    }
}

impl std::fmt::Display for Fig06 {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let header = vec![
            "atoms".to_string(),
            "NPLWV".to_string(),
            "NBANDS".to_string(),
            "node mode W".to_string(),
            "±FWHM".to_string(),
            "4-GPU mode W".to_string(),
            "±FWHM".to_string(),
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.atoms.to_string(),
                    r.nplwv.to_string(),
                    r.nbands.to_string(),
                    f(r.node_mode_w, 0),
                    f(r.node_fwhm_w, 0),
                    f(r.gpu4_mode_w, 0),
                    f(r.gpu4_fwhm_w, 0),
                ]
            })
            .collect();
        writeln!(
            fmt,
            "{}",
            render_table(
                "Fig. 6 — power vs silicon supercell size (DFT default, 1 node)",
                &header,
                &rows
            )
        )?;
        writeln!(
            fmt,
            "GPU saturation (90% of plateau) at {} atoms; node TDP 2350 W, 4-GPU TDP 1600 W",
            self.saturation_atoms()
        )
    }
}


impl Fig06 {
    /// Machine-readable export.
    #[must_use]
    pub fn csv(&self) -> String {
        let mut out = String::from(
            "atoms,nplwv,nbands,node_mode_w,node_fwhm_w,gpu4_mode_w,gpu4_fwhm_w\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{:.1},{:.1},{:.1},{:.1}\n",
                r.atoms, r.nplwv, r.nbands, r.node_mode_w, r.node_fwhm_w, r.gpu4_mode_w,
                r.gpu4_fwhm_w
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(sizes: &[usize]) -> Vec<SizeRow> {
        // Reduced sweep for test speed.
        let ctx = StudyContext::quick();
        let full = run(&ctx);
        full.rows
            .into_iter()
            .filter(|r| sizes.contains(&r.atoms))
            .collect()
    }

    #[test]
    fn power_rises_with_size_then_plateaus() {
        let rows = sweep(&[64, 256, 1024, 2048, 4096]);
        // Monotone (within a small tolerance) up the sweep.
        for w in rows.windows(2) {
            assert!(
                w[1].gpu4_mode_w >= w[0].gpu4_mode_w - 40.0,
                "{} atoms {} W → {} atoms {} W",
                w[0].atoms,
                w[0].gpu4_mode_w,
                w[1].atoms,
                w[1].gpu4_mode_w
            );
        }
        // Plateau: the last doubling changes little...
        let last = rows[rows.len() - 1].gpu4_mode_w;
        let prev = rows[rows.len() - 2].gpu4_mode_w;
        assert!((last - prev).abs() / last < 0.08, "{prev} → {last}");
        // ...near (but below) the combined GPU TDP.
        assert!(last > 1150.0 && last < 1600.0, "plateau at {last}");
        // And the small end is far below it.
        assert!(rows[0].gpu4_mode_w < 0.55 * last);
    }

    #[test]
    fn both_nplwv_and_nbands_grow_with_size() {
        let rows = sweep(&[64, 512, 4096]);
        for w in rows.windows(2) {
            assert!(w[1].nplwv > w[0].nplwv);
            assert!(w[1].nbands > w[0].nbands);
        }
    }
}
