//! The Fig. 2 methodology study as a standalone tool: how does the choice
//! of power-sampling rate affect the measured distribution?
//!
//! ```text
//! cargo run --release --example sampling_rates [benchmark]
//! ```
//!
//! Captures the per-GPU power at 0.1 s, down-samples to coarser rates, and
//! prints the distribution statistics at each rate. Finding (as in the
//! paper): any rate up to 10 s captures the high power mode; resolving the
//! timeline's structure needs ≤5 s.

use vasp_power_profiles::cluster::{execute_node0, JobSpec, NetworkModel};
use vasp_power_profiles::core::benchmarks;
use vasp_power_profiles::dft::{build_plan, CostModel, ParallelLayout};
use vasp_power_profiles::stats::{fwhm, high_power_mode};
use vasp_power_profiles::telemetry::Sampler;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "Si256_hse".into());
    let suite = benchmarks::suite();
    let Some(bench) = suite.iter().find(|b| b.name() == name) else {
        eprintln!("unknown benchmark '{name}'");
        std::process::exit(2);
    };

    let plan = build_plan(
        &bench.params(),
        &ParallelLayout::nodes(1),
        &CostModel::calibrated(),
    );
    let result = execute_node0(&plan, &JobSpec::new(1), &NetworkModel::perlmutter());
    let gpu = &result.node_traces[0].gpus[0];
    let base = Sampler::high_rate().sample(gpu);

    println!("sampling-rate study: {name}, GPU 0, {:.0} s run\n", result.runtime_s);
    println!(
        "{:>7}  {:>8}  {:>6}  {:>8}  {:>6}  {:>11}  {:>7}",
        "rate s", "samples", "max W", "median W", "min W", "high mode W", "FWHM W"
    );
    for rate in [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0] {
        let series = base.downsample((rate / 0.1_f64).round() as usize);
        let vals = series.values();
        let mode = high_power_mode(vals);
        println!(
            "{:>7.1}  {:>8}  {:>6.0}  {:>8.0}  {:>6.0}  {:>11.0}  {:>7.1}",
            rate,
            series.len(),
            series.max().unwrap_or(0.0),
            vasp_power_profiles::stats::describe::median(vals),
            series.min().unwrap_or(0.0),
            mode.x,
            fwhm(vals, mode),
        );
    }
}
