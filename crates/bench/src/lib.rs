//! Shared fixtures for the in-tree benchmark harness ([`vpp_substrate::Harness`]).
//!
//! Each bench in `benches/figures.rs` regenerates one paper table/figure at
//! a *reduced scale* (single protocol repeat, trimmed sweeps) so the whole
//! suite completes in minutes; the `repro` binary runs the full-scale
//! versions. `benches/ablations.rs` measures the design alternatives
//! DESIGN.md calls out, and `benches/substrate.rs` covers the hot paths of
//! the simulation substrate itself.

use vpp_cluster::{execute_node0, JobResult, JobSpec, NetworkModel};
use vpp_core::benchmarks::Benchmark;
use vpp_core::protocol::StudyContext;
use vpp_dft::{build_plan, ParallelLayout, ScfPlan};

/// Single-repeat context used by every figure bench.
#[must_use]
pub fn bench_ctx() -> StudyContext {
    StudyContext::single()
}

/// Build a benchmark's plan at a node count with the bench context.
#[must_use]
pub fn plan(bench: &Benchmark, nodes: usize) -> ScfPlan {
    build_plan(
        &bench.params(),
        &ParallelLayout::nodes(nodes),
        &bench_ctx().cost,
    )
}

/// Run a plan once on a fresh fleet, keeping node 0's channels (the
/// runtime and energy still cover every node).
#[must_use]
pub fn run(plan: &ScfPlan, nodes: usize, cap_w: Option<f64>) -> JobResult {
    let mut spec = JobSpec::new(nodes);
    spec.gpu_power_cap_w = cap_w;
    execute_node0(plan, &spec, &NetworkModel::perlmutter())
}

/// A compact silicon workload used where the benchmark identity is not the
/// point (substrate and ablation benches).
#[must_use]
pub fn small_workload() -> ScfPlan {
    let mut deck = vpp_dft::Incar::default_deck();
    deck.nelm = 8;
    let p = vpp_dft::SystemParams::derive(&vpp_dft::Supercell::silicon(128), &deck);
    build_plan(&p, &ParallelLayout::nodes(1), &bench_ctx().cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_produce_runnable_plans() {
        let p = small_workload();
        assert!(!p.ops.is_empty());
        let r = run(&p, 1, None);
        assert!(r.runtime_s > 0.0);
    }

    #[test]
    fn capped_fixture_run_applies_cap() {
        let p = small_workload();
        let r = run(&p, 1, Some(150.0));
        let max = r.node_traces[0]
            .gpus
            .iter()
            .filter_map(|g| g.max_power())
            .fold(0.0, f64::max);
        assert!(max <= 150.0 + 1e-9);
    }
}
