//! Integration tests for the beyond-the-paper extensions: the MILC
//! deployment step (§VI-B), thermal verification, phase segmentation on
//! real pipeline output, straggler screening and the energy objectives.

use vasp_power_profiles::cluster::{execute, JobSpec, NetworkModel};
use vasp_power_profiles::core::{benchmarks, protocol};
use vasp_power_profiles::dft::{CostModel, ParallelLayout};
use vasp_power_profiles::gpu::ThermalModel;
use vasp_power_profiles::lqcd::{MilcWorkload, SolverParams};
use vasp_power_profiles::stats::Segmenter;
use vasp_power_profiles::telemetry::Sampler;

fn milc_small() -> MilcWorkload {
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

#[test]
fn milc_and_vasp_split_under_the_100w_floor() {
    // The §VI-B finding: the same cap that devastates HSE barely touches
    // MILC — the basis for per-application cap policies.
    let net = NetworkModel::perlmutter();
    let cm = CostModel::calibrated();
    let plan = milc_small().build_plan(&ParallelLayout::nodes(1), &net, &cm);
    let base = execute(&plan, &JobSpec::new(1), &net).runtime_s;
    let mut capped_spec = JobSpec::new(1);
    capped_spec.gpu_power_cap_w = Some(100.0);
    let capped = execute(&plan, &capped_spec, &net).runtime_s;
    let milc_perf = base / capped;

    let ctx = protocol::StudyContext::quick();
    let vasp_base = protocol::measure(
        &benchmarks::si256_hse(),
        &protocol::RunConfig::nodes(1),
        &ctx,
    );
    let vasp_capped = protocol::measure(
        &benchmarks::si256_hse(),
        &protocol::RunConfig::capped(1, 100.0),
        &ctx,
    );
    let vasp_perf = vasp_base.runtime_s / vasp_capped.runtime_s;

    assert!(milc_perf > 0.88, "MILC tolerates the floor: {milc_perf}");
    assert!(vasp_perf < 0.5, "HSE collapses at the floor: {vasp_perf}");
}

#[test]
fn no_reproduced_workload_thermally_throttles() {
    // The thermal model's purpose: verify Perlmutter's liquid cooling keeps
    // every reproduced workload below the slowdown temperature, so power
    // capping is the *only* throttling mechanism in play (as the paper
    // implicitly assumes).
    let thermal = ThermalModel::liquid_cooled();
    let ctx = protocol::StudyContext::quick();
    for bench in [benchmarks::si256_hse(), benchmarks::si128_acfdtr()] {
        let m = protocol::measure(&bench, &protocol::RunConfig::nodes(1), &ctx);
        let plan = protocol::plan_for(&bench, m.nodes, &ctx);
        let run = execute(&plan, &m.spec, &ctx.network);
        for (i, gpu) in run.node_traces[0].gpus.iter().enumerate() {
            let frac = thermal.throttle_fraction(gpu);
            assert_eq!(frac, 0.0, "{} GPU {i} thermally throttled", bench.name());
            let peak = thermal.peak_temperature_c(gpu);
            assert!(peak < 75.0, "{} GPU {i} peaked at {peak} °C", bench.name());
        }
    }
}

#[test]
fn segmentation_recovers_the_rpa_structure_from_pipeline_output() {
    let ctx = protocol::StudyContext::quick();
    let m = protocol::measure(
        &benchmarks::si128_acfdtr(),
        &protocol::RunConfig::nodes(1),
        &ctx,
    );
    let seg = Segmenter::node_power();
    let low = seg
        .longest_low_phase(m.node_series.values(), 900.0)
        .expect("the CPU-only diagonalisation must be detected");
    let interval = m.node_series.mean_interval_s().unwrap();
    let dur = low.len() as f64 * interval;
    assert!(
        (40.0..200.0).contains(&dur),
        "diag stage duration {dur}s at {:.0} W",
        low.mean_w
    );
    assert!(low.mean_w < 800.0);
}

#[test]
fn screening_catches_an_injected_straggler() {
    // Run a 4-node job with one slow node; the §III-B.1 screen (automated
    // in vpp-telemetry::screening) must flag exactly that node. The
    // straggler keeps computing while the healthy nodes wait at barriers,
    // so its mean power stands out above the fleet.
    use vasp_power_profiles::cluster::Straggler;
    use vasp_power_profiles::telemetry::Screener;

    let bench = benchmarks::pdo4();
    let plan = vasp_power_profiles::core::protocol::plan_for(
        &bench,
        4,
        &protocol::StudyContext::quick(),
    );
    let mut spec = JobSpec::new(4);
    spec.straggler = Some(Straggler {
        node: 2,
        slowdown: 1.35,
    });
    let res = execute(&plan, &spec, &NetworkModel::perlmutter());
    let sampler = Sampler::ideal(1.0);
    let per_node: Vec<_> = res
        .node_traces
        .iter()
        .map(|c| sampler.sample(&c.node))
        .collect();
    let verdicts = Screener::default_threshold().screen(&per_node);
    let outliers: Vec<usize> = verdicts.iter().filter(|v| v.outlier).map(|v| v.node).collect();
    assert_eq!(outliers, vec![2], "verdicts: {verdicts:?}");
    // And the straggler is the *hot* one (works while others wait).
    assert!(verdicts[2].z_score > 0.0, "{verdicts:?}");
}

#[test]
fn energy_objectives_split_hungry_and_tolerant_workloads() {
    use vasp_power_profiles::stats::energy_metrics::{best_point, Objective, OperatingPoint};

    let ctx = protocol::StudyContext::quick();
    let points = |bench: &benchmarks::Benchmark| -> Vec<OperatingPoint> {
        let nodes = bench.cap_study_nodes;
        [400.0, 200.0, 100.0]
            .iter()
            .map(|&cap| {
                let m = if cap >= 400.0 {
                    protocol::measure(bench, &protocol::RunConfig::nodes(nodes), &ctx)
                } else {
                    protocol::measure(bench, &protocol::RunConfig::capped(nodes, cap), &ctx)
                };
                OperatingPoint {
                    cap_w: cap,
                    energy_j: m.energy_j,
                    runtime_s: m.runtime_s,
                }
            })
            .collect()
    };

    // Cap-tolerant PdO2: even ED²P caps deep.
    let pdo2 = points(&benchmarks::pdo2());
    assert!(
        best_point(&pdo2, Objective::Ed2p).cap_w <= 200.0,
        "{pdo2:?}"
    );
    // Hungry Si256_hse: ED²P refuses the 100 W floor.
    let hse = points(&benchmarks::si256_hse());
    assert!(
        best_point(&hse, Objective::Ed2p).cap_w > 100.0,
        "{hse:?}"
    );
}
