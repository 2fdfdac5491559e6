//! Dirty-telemetry demonstration: inject every fault class the collector
//! hardening covers, run the stream through the quarantine screen, and
//! compare the summaries of the clean, dirty, and screened series.
//!
//! ```text
//! cargo run --release --example dirty_telemetry [seed]
//! ```
//!
//! This is also the fault-injection smoke run wired into
//! `scripts/verify.sh`: it exits non-zero if the quarantine accounting
//! does not balance or the screened summary drifts from the clean one.

use vasp_power_profiles::cluster::{execute_node0, JobSpec, NetworkModel};
use vasp_power_profiles::core::benchmarks;
use vasp_power_profiles::dft::{build_plan, CostModel, ParallelLayout};
use vasp_power_profiles::stats::PowerSummary;
use vasp_power_profiles::telemetry::{quarantine, FaultPlan, QualityConfig, Sampler};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be an integer"))
        .unwrap_or(0x00D1_57E0);

    // A real node-power timeline from the smallest benchmark.
    let bench = benchmarks::b_hr105_hse();
    let plan = build_plan(
        &bench.params(),
        &ParallelLayout::nodes(1),
        &CostModel::calibrated(),
    );
    let result = execute_node0(&plan, &JobSpec::new(1), &NetworkModel::perlmutter());
    let interval_s = 0.25;
    let clean = Sampler::ideal(interval_s).sample(&result.node_traces[0].node);

    println!(
        "dirty-telemetry demo: {}, node 0, {:.0} s run, {} samples at {interval_s} s\n",
        bench.name(),
        result.runtime_s,
        clean.len()
    );

    // Inject the combined chaos plan: dropout bursts, stuck sensors,
    // NaN/spike glitches, counter resets, clock jitter + skew, reordering
    // and duplicate delivery — all seeded, all disjoint.
    let (raw, log) = FaultPlan::chaos(seed).inject(&clean);
    println!("injected ({} raw arrivals): {log:?}\n", raw.len());

    // Quarantine screen. Stuck detection stays ON here: the injector's
    // bitwise-equal held runs are exactly what it exists to catch.
    let cfg = QualityConfig::new(interval_s);
    let screened = quarantine(&raw, &cfg);
    let q = screened.quality;
    println!("quality report:\n{q}\n");

    assert_eq!(
        q.n_raw,
        q.n_kept + q.removed(),
        "quarantine accounting must balance"
    );
    assert_eq!(q.duplicates_resolved, log.duplicates);
    assert_eq!(q.order_violations, log.swaps);

    // Summaries: the screen should recover the clean distribution even
    // though the dirty stream carries NaNs and kW-scale spikes.
    let clean_sum = PowerSummary::from_samples(clean.values());
    let dirty_vals: Vec<f64> = raw.points().iter().map(|p| p.1).collect();
    let dirty_sum = PowerSummary::from_screened(&dirty_vals).expect("some finite samples");
    let screened_sum = PowerSummary::from_samples(screened.series.values());

    println!("clean    : {clean_sum}");
    println!(
        "dirty    : {} ({} non-finite rejected just to print this)",
        dirty_sum.summary, dirty_sum.n_rejected
    );
    println!("screened : {screened_sum}");

    let mode_err = (screened_sum.high_mode_w - clean_sum.high_mode_w).abs();
    assert!(
        mode_err < 0.05 * clean_sum.high_mode_w,
        "screened high power mode drifted {mode_err:.1} W from clean"
    );
    assert!(
        screened_sum.max_w < 50_000.0,
        "a spike survived the screen"
    );
    println!(
        "\nhigh-power-mode drift after screening: {mode_err:.1} W (coverage {:.2})",
        q.coverage
    );
    println!("dirty_telemetry: OK");
}
