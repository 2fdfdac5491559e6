//! The paper's headline quantitative claims, asserted end-to-end against
//! the full simulation pipeline. These are the "shape" checks DESIGN.md §4
//! promises: who wins, by roughly what factor, where the knees fall.

use vasp_power_profiles::cluster::execute;
use vasp_power_profiles::core::{benchmarks, protocol};
use vasp_power_profiles::stats::parallel_efficiency;

fn measure_1node(bench: &benchmarks::Benchmark) -> protocol::Measured {
    protocol::measure(bench, &protocol::RunConfig::nodes(1), &protocol::StudyContext::quick())
}

#[test]
fn workload_power_range_matches_paper() {
    // Paper §III-D: high power mode per node ranges from 766 to 1810 W.
    let modes: Vec<(String, f64)> = benchmarks::suite()
        .iter()
        .map(|b| {
            let m = measure_1node(b);
            (m.name.clone(), m.node_summary.high_mode_w)
        })
        .collect();
    let lo = modes.iter().map(|&(_, w)| w).fold(f64::INFINITY, f64::min);
    let hi = modes.iter().map(|&(_, w)| w).fold(f64::NEG_INFINITY, f64::max);
    assert!((700.0..950.0).contains(&lo), "lowest workload {lo} (paper: 766)");
    assert!((1600.0..2000.0).contains(&hi), "highest workload {hi} (paper: 1810)");
    assert!(hi / lo > 1.8, "range must span ~2.4x: {modes:?}");
}

#[test]
fn gaasbi_is_the_lowest_power_workload() {
    let suite = benchmarks::suite();
    let modes: Vec<(String, f64)> = suite
        .iter()
        .map(|b| {
            let m = measure_1node(b);
            (m.name.clone(), m.node_summary.high_mode_w)
        })
        .collect();
    let min = modes
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    assert_eq!(min.0, "GaAsBi-64", "paper Fig. 5: GaAsBi-64 at 766 W is lowest: {modes:?}");
}

#[test]
fn hse_benchmarks_outdraw_their_dft_counterparts() {
    // Paper: B.hR105_hse uses ~380 W less than Si256_hse, and both HSE
    // benchmarks outdraw the plain-DFT ones; PdO4 vs PdO2 differ >150 W.
    let si256 = measure_1node(&benchmarks::si256_hse()).node_summary.high_mode_w;
    let b105 = measure_1node(&benchmarks::b_hr105_hse()).node_summary.high_mode_w;
    let pdo4 = measure_1node(&benchmarks::pdo4()).node_summary.high_mode_w;
    let pdo2 = measure_1node(&benchmarks::pdo2()).node_summary.high_mode_w;
    assert!(si256 > b105, "Si256_hse {si256} vs B.hR105 {b105}");
    assert!(
        (150.0..650.0).contains(&(si256 - b105)),
        "paper gap ~380 W, got {}",
        si256 - b105
    );
    assert!(pdo4 - pdo2 > 150.0, "paper: >150 W; got {}", pdo4 - pdo2);
    assert!(b105 > pdo4, "HSE outdraws basic DFT: {b105} vs {pdo4}");
}

#[test]
fn fifty_percent_tdp_cap_costs_under_ten_percent() {
    // The paper's headline: a 200 W (50% TDP) cap costs <10% on every
    // benchmark; 300 W is free.
    let ctx = protocol::StudyContext::quick();
    for bench in benchmarks::suite() {
        let nodes = bench.cap_study_nodes;
        let base = protocol::measure(&bench, &protocol::RunConfig::nodes(nodes), &ctx);
        let c300 = protocol::measure(&bench, &protocol::RunConfig::capped(nodes, 300.0), &ctx);
        let c200 = protocol::measure(&bench, &protocol::RunConfig::capped(nodes, 200.0), &ctx);
        let p300 = base.runtime_s / c300.runtime_s;
        let p200 = base.runtime_s / c200.runtime_s;
        assert!(p300 > 0.97, "{}: 300 W should be free, perf {p300}", bench.name());
        assert!(
            p200 > 0.885,
            "{}: 200 W must stay within ~10% (paper: ≤9%), perf {p200}",
            bench.name()
        );
    }
}

#[test]
fn hundred_watt_cap_splits_the_suite() {
    // Paper Fig. 12: >60% loss for Si256_hse/Si128_acfdtr at 100 W, but
    // <5% for GaAsBi-64 and PdO2.
    let ctx = protocol::StudyContext::quick();
    let perf_at_100 = |bench: &benchmarks::Benchmark| {
        let nodes = bench.cap_study_nodes;
        let base = protocol::measure(bench, &protocol::RunConfig::nodes(nodes), &ctx);
        let c = protocol::measure(bench, &protocol::RunConfig::capped(nodes, 100.0), &ctx);
        base.runtime_s / c.runtime_s
    };
    let hungry = perf_at_100(&benchmarks::si256_hse());
    assert!(hungry < 0.5, "Si256_hse at 100 W: perf {hungry} (paper ~0.4)");
    let light = perf_at_100(&benchmarks::gaasbi64());
    assert!(light > 0.93, "GaAsBi-64 at 100 W: perf {light} (paper >0.95)");
    let pdo2 = perf_at_100(&benchmarks::pdo2());
    assert!(pdo2 > 0.90, "PdO2 at 100 W: perf {pdo2} (paper >0.95)");
}

#[test]
fn power_flat_while_efficiency_holds() {
    // Paper §IV-C: power stays steady over node counts with PE ≥ 70%.
    let ctx = protocol::StudyContext::quick();
    let bench = benchmarks::si256_hse();
    let m1 = protocol::measure(&bench, &protocol::RunConfig::nodes(1), &ctx);
    let m4 = protocol::measure(&bench, &protocol::RunConfig::nodes(4), &ctx);
    let pe = parallel_efficiency(m1.runtime_s, 4.0, m4.runtime_s);
    assert!(pe > 0.70, "Si256_hse must stay efficient at 4 nodes: {pe}");
    let drift =
        (m4.node_summary.high_mode_w - m1.node_summary.high_mode_w).abs()
            / m1.node_summary.high_mode_w;
    assert!(drift < 0.10, "power should be ~flat: drift {drift}");
}

#[test]
fn gpus_carry_over_seventy_percent_of_hot_workloads() {
    // Paper Fig. 3.
    let bench = benchmarks::si256_hse();
    let m = measure_1node(&bench);
    let ctx = protocol::StudyContext::quick();
    let plan = protocol::plan_for(&bench, m.nodes, &ctx);
    let run = execute(&plan, &m.spec, &ctx.network);
    let c = &run.node_traces[0];
    let t0 = c.node.start() + 8.0;
    let t1 = c.node.end() - 2.0;
    let gpu: f64 = c.gpus.iter().map(|g| g.energy_between(t0, t1)).sum();
    let share = gpu / c.node.energy_between(t0, t1);
    assert!(share > 0.70, "GPU share {share}");
}

#[test]
fn node_idle_power_in_observed_band() {
    // Paper §III-B.2: idle 410–510 W across sampled nodes.
    use vasp_power_profiles::node::NodeInstance;
    use vasp_power_profiles::sim::Rng;
    for seed in 0..24 {
        let idle = NodeInstance::sample(&mut Rng::new(seed)).idle_w();
        assert!((395.0..525.0).contains(&idle), "seed {seed}: idle {idle}");
    }
}
