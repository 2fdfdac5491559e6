//! Lowering a MILC-like HMC run to the executor's op stream.

use vpp_cluster::NetworkModel;
use vpp_dft::{CollectiveKind, CostModel, Op, ParallelLayout, ScfPlan};
use vpp_gpu::{Kernel, KernelKind};

/// Multi-mass CG solver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverParams {
    /// CG iterations per solve (set by the residual target).
    pub cg_iters: usize,
    /// Solves per molecular-dynamics step (multi-mass + accept/reject).
    pub solves_per_step: usize,
}

impl SolverParams {
    /// Production-like defaults.
    #[must_use]
    pub fn production() -> Self {
        Self {
            cg_iters: 1200,
            solves_per_step: 2,
        }
    }
}

/// One MILC-style HMC workload: a 4-D staggered-fermion lattice evolved
/// for a number of trajectories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MilcWorkload {
    /// Lattice extents `[nx, ny, nz, nt]`.
    pub lattice: [usize; 4],
    /// HMC trajectories.
    pub trajectories: usize,
    /// Molecular-dynamics steps per trajectory.
    pub md_steps: usize,
    pub solver: SolverParams,
}

/// HISQ-style staggered dslash cost, flops per site per CG iteration.
const DSLASH_FLOPS_PER_SITE: f64 = 1146.0;
/// Gauge force + link update cost, flops per site per MD step.
const FORCE_FLOPS_PER_SITE: f64 = 9500.0;
/// CG iterations aggregated per emitted kernel block (keeps op counts
/// manageable; the per-iteration reductions are accounted exactly below).
const ITERS_PER_CHUNK: usize = 100;

impl MilcWorkload {
    /// A medium production lattice (64³×96, the scale MILC runs at NERSC).
    #[must_use]
    pub fn production(trajectories: usize) -> Self {
        Self {
            lattice: [64, 64, 64, 96],
            trajectories,
            md_steps: 20,
            solver: SolverParams::production(),
        }
    }

    /// Total lattice sites.
    #[must_use]
    pub fn sites(&self) -> usize {
        self.lattice.iter().product()
    }

    /// Lower the run for a node layout. `network` is used to account the
    /// per-CG-iteration global reductions (latency-bound) exactly: each
    /// chunk carries its accumulated reduction time as an SM-light comm
    /// kernel, plus one true synchronising collective.
    ///
    /// # Panics
    /// If the lattice is empty or has fewer sites than ranks.
    #[must_use]
    pub fn build_plan(
        &self,
        layout: &ParallelLayout,
        network: &NetworkModel,
        cm: &CostModel,
    ) -> ScfPlan {
        let ranks = layout.ranks();
        assert!(self.sites() > 0, "empty lattice");
        assert!(
            self.sites() >= ranks,
            "lattice smaller than the rank count"
        );
        let sites_per_rank = self.sites() as f64 / ranks as f64;

        // One CG chunk: dslash sweeps + accumulated reductions.
        let t_dslash_chunk =
            ITERS_PER_CHUNK as f64 * DSLASH_FLOPS_PER_SITE * sites_per_rank / cm.mem_flops;
        // Halo exchange per iteration (surface/volume) rides on the dot
        // products; both are charged through the reduction term.
        let t_reduce_one = network.collective_time(
            CollectiveKind::AllReduce,
            16.0,
            layout.nodes,
            layout.gpus_per_node,
        );
        let t_reduce_chunk = (ITERS_PER_CHUNK.saturating_sub(1)) as f64 * t_reduce_one;
        let dslash_width = sites_per_rank * 4.0;

        let chunks_per_solve = self.solver.cg_iters.div_ceil(ITERS_PER_CHUNK);
        let t_force =
            FORCE_FLOPS_PER_SITE * sites_per_rank / cm.gemm_flops;

        let mut ops = Vec::new();
        for _traj in 0..self.trajectories {
            for _step in 0..self.md_steps {
                for _solve in 0..self.solver.solves_per_step {
                    for _chunk in 0..chunks_per_solve {
                        ops.push(Op::Gpu(Kernel::with_duty(
                            KernelKind::MemBound,
                            dslash_width,
                            t_dslash_chunk,
                            cm.duty(t_dslash_chunk / ITERS_PER_CHUNK as f64),
                        )));
                        if t_reduce_chunk > 0.0 {
                            ops.push(Op::Gpu(Kernel::new(
                                KernelKind::NcclComm,
                                16.0,
                                t_reduce_chunk,
                            )));
                        }
                        // True synchronisation point once per chunk.
                        ops.push(Op::Collective {
                            bytes: 16.0,
                            kind: CollectiveKind::AllReduce,
                        });
                    }
                }
                // Gauge force + link update: the compute-heavy burst.
                ops.push(Op::Gpu(Kernel::with_duty(
                    KernelKind::Gemm,
                    dslash_width * 2.0,
                    t_force,
                    cm.duty(t_force / 4.0),
                )));
            }
            // Accept/reject + measurement I/O on the host.
            ops.push(Op::Host {
                duration_s: 0.8,
                cpu_active: 0.30,
                mem_active: 0.35,
            });
        }

        ScfPlan {
            name: format!(
                "milc_{}x{}x{}x{}",
                self.lattice[0], self.lattice[1], self.lattice[2], self.lattice[3]
            ),
            ops,
            iterations: self.trajectories,
            // MILC trajectories don't map onto the VASP phase vocabulary;
            // the executor emits no phase spans for an empty table.
            phases: vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpp_cluster::{execute_node0, JobSpec};
    use vpp_stats::high_power_mode;
    use vpp_telemetry::Sampler;

    fn small() -> MilcWorkload {
        MilcWorkload {
            lattice: [32, 32, 32, 48],
            trajectories: 2,
            md_steps: 6,
            solver: SolverParams {
                cg_iters: 400,
                solves_per_step: 2,
            },
        }
    }

    fn run(w: &MilcWorkload, nodes: usize, cap: Option<f64>) -> vpp_cluster::JobResult {
        let layout = ParallelLayout::nodes(nodes);
        let net = NetworkModel::perlmutter();
        let plan = w.build_plan(&layout, &net, &CostModel::calibrated());
        let mut spec = JobSpec::new(nodes);
        spec.gpu_power_cap_w = cap;
        spec.init_host_s = 2.0;
        execute_node0(&plan, &spec, &net)
    }

    #[test]
    fn milc_node_power_is_mid_range_and_bandwidth_like() {
        let res = run(&small(), 1, None);
        let series = Sampler::ideal(1.0).sample(&res.node_traces[0].node);
        let mode = high_power_mode(series.values()).x;
        // Bandwidth-bound: well above idle, well below VASP's HSE levels.
        assert!((750.0..1500.0).contains(&mode), "MILC node mode {mode}");
    }

    #[test]
    fn milc_is_cap_tolerant_even_at_the_floor() {
        // The companion study's finding (Acun et al.): MILC tolerates deep
        // caps. Memory-bound dslash barely follows the graphics clock.
        let w = small();
        let base = run(&w, 1, None).runtime_s;
        let capped = run(&w, 1, Some(100.0)).runtime_s;
        let loss = capped / base - 1.0;
        assert!(loss < 0.12, "100 W cap should cost <12%: {loss}");
        let at200 = run(&w, 1, Some(200.0)).runtime_s;
        assert!(at200 / base - 1.0 < 0.02, "200 W is free for MILC");
    }

    #[test]
    fn milc_scaling_is_latency_limited() {
        // A production-scale lattice still scales, but the per-iteration
        // reductions clearly cost; the small test lattice collapses.
        let big = MilcWorkload {
            lattice: [48, 48, 48, 64],
            ..small()
        };
        let t1 = run(&big, 1, None).runtime_s;
        let t4 = run(&big, 4, None).runtime_s;
        let pe = vpp_stats::parallel_efficiency(t1, 4.0, t4);
        assert!(pe > 0.30, "still scales somewhat: {pe}");
        assert!(pe < 0.90, "latency-bound reductions must show: {pe}");

        let t4_small = run(&small(), 4, None).runtime_s;
        let pe_small =
            vpp_stats::parallel_efficiency(run(&small(), 1, None).runtime_s, 4.0, t4_small);
        assert!(pe_small < pe, "small lattices scale worse: {pe_small} vs {pe}");
    }

    #[test]
    fn trajectory_structure_shows_in_the_plan() {
        let w = small();
        let plan = w.build_plan(
            &ParallelLayout::nodes(1),
            &NetworkModel::perlmutter(),
            &CostModel::calibrated(),
        );
        let hosts = plan
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Host { .. }))
            .count();
        assert_eq!(hosts, w.trajectories, "one host stage per trajectory");
        let forces = plan
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Gpu(k) if k.kind == KernelKind::Gemm))
            .count();
        assert_eq!(forces, w.trajectories * w.md_steps);
    }

    #[test]
    fn bigger_lattices_run_longer_and_hotter() {
        let small_res = run(&small(), 1, None);
        let big = MilcWorkload {
            lattice: [48, 48, 48, 64],
            ..small()
        };
        let big_res = run(&big, 1, None);
        assert!(big_res.runtime_s > small_res.runtime_s);
        let mode = |r: &vpp_cluster::JobResult| {
            high_power_mode(Sampler::ideal(1.0).sample(&r.node_traces[0].node).values()).x
        };
        assert!(mode(&big_res) >= mode(&small_res) - 20.0);
    }

    #[test]
    #[should_panic(expected = "lattice smaller")]
    fn lattice_must_cover_ranks() {
        let w = MilcWorkload {
            lattice: [1, 1, 1, 2],
            ..small()
        };
        let _ = w.build_plan(
            &ParallelLayout::nodes(1),
            &NetworkModel::perlmutter(),
            &CostModel::calibrated(),
        );
    }
}
