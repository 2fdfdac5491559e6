//! Cross-crate integration: the full measurement chain
//! (plan → cluster execution → telemetry → statistics)
//! wired exactly as the experiments use it.

use vasp_power_profiles::cluster::{execute_node0, JobSpec, NetworkModel};
use vasp_power_profiles::core::benchmarks;
use vasp_power_profiles::dft::{build_plan, CostModel, ParallelLayout};
use vasp_power_profiles::stats::PowerSummary;
use vasp_power_profiles::telemetry::Sampler;

#[test]
fn full_chain_from_benchmark_to_summary() {
    let bench = benchmarks::pdo2();
    let plan = build_plan(
        &bench.params(),
        &ParallelLayout::nodes(2),
        &CostModel::calibrated(),
    );
    let result = execute_node0(&plan, &JobSpec::new(2), &NetworkModel::perlmutter());

    // Sample node 0 at the production LDMS rate and analyse it with the
    // paper's methodology.
    let node0 = Sampler::ldms_production().sample(&result.node_traces[0].node);
    let summary = PowerSummary::from_samples(node0.values());
    assert!(summary.high_mode_w > 500.0 && summary.high_mode_w < 2350.0);
    assert!(summary.min_w >= 350.0, "never below idle-ish: {}", summary.min_w);

    // Energy bookkeeping is consistent between the trace and the series.
    let trace_energy = result.node_traces[0].node.energy();
    let series_energy = node0.energy_estimate_j();
    let rel = (series_energy - trace_energy).abs() / trace_energy;
    assert!(rel < 0.10, "sampled energy estimate off by {rel}");
}

#[test]
fn component_channels_sum_below_node_channel() {
    // Node total includes unmetered peripherals: cpu + mem + gpus < node.
    let bench = benchmarks::b_hr105_hse();
    let plan = build_plan(
        &bench.params(),
        &ParallelLayout::nodes(1),
        &CostModel::calibrated(),
    );
    let result = execute_node0(&plan, &JobSpec::new(1), &NetworkModel::perlmutter());
    let c = &result.node_traces[0];
    let mid = 0.5 * (c.node.start() + c.node.end());
    let metered: f64 = c.cpu.power_at(mid)
        + c.mem.power_at(mid)
        + c.gpus.iter().map(|g| g.power_at(mid)).sum::<f64>();
    let node = c.node.power_at(mid);
    assert!(node > metered, "gap must be positive: node {node} vs {metered}");
    assert!(node - metered < 250.0, "gap is peripherals-sized: {}", node - metered);
}

#[test]
fn per_gpu_channels_differ_but_agree_in_scale() {
    let bench = benchmarks::pdo4();
    let plan = build_plan(
        &bench.params(),
        &ParallelLayout::nodes(1),
        &CostModel::calibrated(),
    );
    let result = execute_node0(&plan, &JobSpec::new(1), &NetworkModel::perlmutter());
    let sampler = Sampler::ideal(1.0);
    let means: Vec<f64> = result.node_traces[0]
        .gpus
        .iter()
        .map(|g| sampler.sample(g).mean())
        .collect();
    let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(hi - lo > 0.5, "boards must differ: {means:?}");
    assert!(hi / lo < 1.25, "but only slightly: {means:?}");
}

#[test]
fn capped_job_never_exceeds_cap_anywhere() {
    let bench = benchmarks::si128_acfdtr();
    let plan = build_plan(
        &bench.params(),
        &ParallelLayout::nodes(1),
        &CostModel::calibrated(),
    );
    let mut spec = JobSpec::new(1);
    spec.gpu_power_cap_w = Some(250.0);
    let result = execute_node0(&plan, &spec, &NetworkModel::perlmutter());
    for (i, g) in result.node_traces[0].gpus.iter().enumerate() {
        let max = g.max_power().unwrap();
        assert!(max <= 250.0 + 1e-9, "GPU {i} drew {max} W under a 250 W cap");
    }
}

#[test]
fn rpa_timeline_shows_the_cpu_only_stage() {
    // Fig. 3 bottom panel: a flat low-GPU stretch in the middle of
    // Si128_acfdtr where the exact diagonalisation runs on CPUs.
    let bench = benchmarks::si128_acfdtr();
    let plan = build_plan(
        &bench.params(),
        &ParallelLayout::nodes(1),
        &CostModel::calibrated(),
    );
    let result = execute_node0(&plan, &JobSpec::new(1), &NetworkModel::perlmutter());
    let c = &result.node_traces[0];
    // Find a 30-second window where GPUs idle but CPU works hard.
    let mut found = false;
    let mut t = c.node.start();
    while t + 30.0 < c.node.end() {
        let gpu_mean: f64 = c
            .gpus
            .iter()
            .map(|g| g.mean_power(t, t + 30.0))
            .sum::<f64>()
            / 4.0;
        let cpu_mean = c.cpu.mean_power(t, t + 30.0);
        if gpu_mean < 80.0 && cpu_mean > 200.0 {
            found = true;
            break;
        }
        t += 10.0;
    }
    assert!(found, "no CPU-only diagonalisation stage in the timeline");
}
