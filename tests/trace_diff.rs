//! End-to-end flight-recorder triage: capture a baseline, re-run, diff.
//!
//! The simulator is deterministic per seed, so an unperturbed re-run must
//! reproduce the baseline's sim-time/energy aggregates exactly and the
//! diff must be clean; injecting a slowdown into one traced phase must
//! surface exactly that phase as the top-ranked regression, with the
//! telemetry counter deltas alongside.

use vasp_power_profiles::core::{benchmarks, flight};
use vasp_power_profiles::dft::PhaseKind;
use vasp_power_profiles::powercap::campaign;
use vasp_power_profiles::stats::{trace_diff, DiffConfig};
use vasp_power_profiles::substrate::bench::{load_baseline, TraceBaseline};

/// The committed report, whose baselines `vpp trace accept` blessed.
const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_results.json");

/// Assert `fresh` equals `stored` in every field but `wall_ns`, the one
/// field that is host noise.
fn assert_same_but_wall(name: &str, mut fresh: TraceBaseline, mut stored: TraceBaseline) {
    for b in [&mut fresh, &mut stored] {
        for agg in std::iter::once(&mut b.aggregate).chain(&mut b.samples) {
            for s in &mut agg.spans {
                s.wall_ns = 0;
            }
        }
    }
    assert_eq!(fresh.samples.len(), stored.samples.len(), "{name}: samples");
    let pairs = std::iter::once((&fresh.aggregate, &stored.aggregate))
        .chain(fresh.samples.iter().zip(&stored.samples));
    for (i, (f, s)) in pairs.enumerate() {
        assert_eq!(f.spans, s.spans, "{name}: spans of aggregate {i} (0 = whole run)");
        assert_eq!(f.counters, s.counters, "{name}: counters of aggregate {i}");
    }
    assert_eq!(fresh.tolerances, stored.tolerances, "{name}: tolerances");
}

#[test]
fn fresh_captures_equal_the_committed_baselines() {
    for bench in [benchmarks::si256_hse(), benchmarks::b_hr105_hse()] {
        let stored = load_baseline(COMMITTED, bench.name()).expect("committed baseline");
        let fresh = flight::capture(&bench, &flight::baseline_cfg(), &flight::baseline_ctx());
        assert_same_but_wall(bench.name(), fresh, stored);
    }
    let stored = load_baseline(COMMITTED, campaign::BASELINE_NAME).expect("committed baseline");
    let fresh = TraceBaseline::capture(campaign::SAMPLE_SPAN, campaign::baseline_body);
    assert_same_but_wall(campaign::BASELINE_NAME, fresh, stored);
}

#[test]
fn unperturbed_rerun_matches_its_baseline() {
    let bench = benchmarks::b_hr105_hse();
    let ctx = flight::baseline_ctx();
    let base = flight::capture(&bench, &flight::baseline_cfg(), &ctx);
    let rerun = flight::capture(&bench, &flight::baseline_cfg(), &ctx);
    let d = trace_diff(&base, &rerun, &DiffConfig::default());
    assert_eq!(d.paired_repeats, flight::BASELINE_REPEATS);
    assert!(!d.has_regressions(), "{:?}", d.top_regression());
    assert!(d.significant().is_empty(), "{:?}", d.significant());
    assert!(d.counter_deltas.is_empty(), "{:?}", d.counter_deltas);
}

#[test]
fn collective_and_compute_perturbations_move_disjoint_spans() {
    let bench = benchmarks::b_hr105_hse();
    let ctx = flight::baseline_ctx();
    let base = flight::capture(&bench, &flight::baseline_cfg(), &ctx);

    // Direction 1: stretching only network time must surface exactly the
    // collective span's pure-communication window, scaled by the factor.
    let slowed_net = flight::baseline_cfg().perturbed_collective(1.6);
    let net = flight::capture(&bench, &slowed_net, &ctx);
    let d = trace_diff(&base, &net, &DiffConfig::default());
    assert!(d.has_regressions());
    let top = d.top_regression().expect("collective regression ranked first");
    assert_eq!(top.span, "job.collective", "culprit span named: {top:?}");
    assert_eq!(top.metric, "sim_s", "{top:?}");
    // The collective sim window is [t_sync, t_sync + comm_s * factor), so
    // the aggregated sim_s scales exactly — not approximately — by 1.6.
    assert!((top.rel_delta - 0.6).abs() < 1e-6, "{top:?}");
    // Compute phases keep their op mix and per-op compute times.
    assert!(
        d.counter_deltas.iter().all(|c| !c.name.starts_with("job.ops")),
        "{:?}",
        d.counter_deltas
    );

    // Direction 2: a compute-phase slowdown must leave the collective's
    // communication window untouched (waits are excluded from it).
    let slowed_compute = flight::baseline_cfg().perturbed(PhaseKind::ScfIter, 1.6);
    let compute = flight::capture(&bench, &slowed_compute, &ctx);
    let d = trace_diff(&base, &compute, &DiffConfig::default());
    let row = d
        .rows
        .iter()
        .find(|r| r.span == "job.collective" && r.metric == "sim_s")
        .expect("collective sim row present");
    assert!(
        !row.significant,
        "compute perturbation leaked into the collective window: {row:?}"
    );
    assert!(row.rel_delta.abs() < 1e-9, "{row:?}");
}

#[test]
fn slowed_phase_is_named_top_ranked_with_counter_deltas() {
    let bench = benchmarks::b_hr105_hse();
    let ctx = flight::baseline_ctx();
    let base = flight::capture(&bench, &flight::baseline_cfg(), &ctx);
    let slowed_cfg = flight::baseline_cfg().perturbed(PhaseKind::ScfIter, 1.6);
    let slowed = flight::capture(&bench, &slowed_cfg, &ctx);

    let d = trace_diff(&base, &slowed, &DiffConfig::default());
    assert!(d.has_regressions());
    let top = d.top_regression().expect("a regression is ranked first");
    assert_eq!(top.span, "phase.scf_iter", "culprit phase named: {top:?}");
    assert!(top.rel_delta > 0.3, "{top:?}");
    // Every significant sim/energy row blames the perturbed phase or a
    // wrapper that contains it — never the untouched init phase.
    for r in d.significant() {
        assert_ne!(r.span, "phase.init", "{r:?}");
    }
    // A pure slowdown stretches durations without changing the op mix:
    // the structural counters must not register deltas. (Longer runs like
    // Si256_hse additionally move the telemetry ingest counters — the
    // verify.sh smoke covers that side.)
    assert!(
        d.counter_deltas
            .iter()
            .all(|c| !c.name.starts_with("job.ops")),
        "{:?}",
        d.counter_deltas
    );
    // Triage is deterministic: the same comparison ranks identically.
    let again = trace_diff(&base, &slowed, &DiffConfig::default());
    let key = |t: &vasp_power_profiles::stats::TraceDiff| -> Vec<(String, &'static str, bool)> {
        t.rows
            .iter()
            .map(|r| (r.span.clone(), r.metric, r.significant))
            .collect()
    };
    assert_eq!(key(&d), key(&again));
}
