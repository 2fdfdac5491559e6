//! End-to-end fault-injection suite: for every pathology class in
//! [`FaultPlan`], drive the full pipeline — sampler → quarantine → stats
//! summary — and check that (a) nothing panics and (b) the [`DataQuality`]
//! report's counts match the injected [`FaultLog`] exactly. The injector
//! is the ground truth the quarantine is audited against.

use vpp_sim::PowerTrace;
use vpp_stats::PowerSummary;
use vpp_telemetry::{
    quarantine, CleanSeries, FaultLog, FaultPlan, QualityConfig, RawSeries, Sampler,
};

const INTERVAL_S: f64 = 1.0;
const N: usize = 400;

/// A trace whose 1-s window means are all distinct (power varies every
/// segment), so no accidental stuck runs or duplicate values exist before
/// injection.
fn varied_trace() -> PowerTrace {
    let segs: Vec<(f64, f64)> = (0..N).map(|i| (1.0, 1000.0 + (i % 97) as f64 * 3.0)).collect();
    PowerTrace::from_segments(0.0, segs)
}

fn cfg() -> QualityConfig {
    QualityConfig::new(INTERVAL_S)
}

/// Run the whole pipeline: sample the trace, corrupt the series with
/// `plan`, and quarantine the dirty stream. Returns the clean series + the
/// injection log.
fn pipeline(plan: &FaultPlan) -> (CleanSeries, FaultLog) {
    let series = Sampler::ideal(INTERVAL_S).sample(&varied_trace());
    assert_eq!(series.len(), N);
    let (raw, log) = plan.inject(&series);
    (quarantine(&raw, &cfg()), log)
}

/// The summary stage must accept whatever survived quarantine.
fn summarise(clean: &CleanSeries) {
    if let Some(s) = PowerSummary::from_screened(clean.series.values()) {
        assert!(s.summary.high_mode_w.is_finite());
        assert_eq!(s.n_rejected, 0, "quarantine already removed non-finite");
    } else {
        assert!(clean.series.is_empty());
    }
}

#[test]
fn dropout_bursts_surface_as_gaps_with_exact_counts() {
    let (clean, log) = pipeline(&FaultPlan::none(0xD0).with_dropouts(3, 4));
    let q = clean.quality;
    assert_eq!(log.dropout_bursts, 3);
    assert_eq!(log.dropped_samples, 12);
    assert_eq!(q.dropout_gaps, log.dropout_bursts);
    assert_eq!(q.n_kept, N - log.dropped_samples);
    let expected_coverage = (N - log.dropped_samples) as f64 / N as f64;
    assert!((q.coverage - expected_coverage).abs() < 1e-12, "{q:?}");
    summarise(&clean);
}

#[test]
fn stuck_sensor_runs_are_detected_with_exact_counts() {
    let (clean, log) = pipeline(&FaultPlan::none(0x57).with_stuck(2, 5));
    let q = clean.quality;
    assert_eq!(log.stuck_runs, 2);
    assert_eq!(log.stuck_extra, 8);
    assert_eq!(q.stuck_runs, log.stuck_runs);
    assert_eq!(q.stuck_removed, log.stuck_extra);
    assert_eq!(q.n_kept, N - log.stuck_extra);
    summarise(&clean);
}

#[test]
fn nan_glitches_are_screened_with_exact_counts() {
    let (clean, log) = pipeline(&FaultPlan::none(0x4E).with_nans(5));
    let q = clean.quality;
    assert_eq!(log.nan_glitches, 5);
    assert_eq!(q.non_finite_removed, log.nan_glitches);
    assert_eq!(q.n_kept, N - 5);
    assert!(clean.series.values().iter().all(|v| v.is_finite()));
    summarise(&clean);
}

#[test]
fn spike_glitches_are_screened_with_exact_counts() {
    let (clean, log) = pipeline(&FaultPlan::none(0x5F).with_spikes(4));
    let q = clean.quality;
    assert_eq!(log.spike_glitches, 4);
    assert_eq!(q.spikes_removed, log.spike_glitches);
    assert_eq!(q.n_kept, N - 4);
    assert!(clean.series.max().unwrap() < 2000.0, "spikes must be gone");
    summarise(&clean);
}

#[test]
fn counter_resets_are_screened_with_exact_counts() {
    let (clean, log) = pipeline(&FaultPlan::none(0xC0).with_resets(3));
    let q = clean.quality;
    assert_eq!(log.counter_resets, 3);
    assert_eq!(q.resets_removed, log.counter_resets);
    assert_eq!(q.n_kept, N - 3);
    assert!(clean.series.min().unwrap() >= 1000.0, "zeros must be gone");
    summarise(&clean);
}

#[test]
fn clock_jitter_below_half_gap_needs_no_repairs() {
    let (clean, log) = pipeline(&FaultPlan::none(0x11).with_jitter(0.2));
    let q = clean.quality;
    assert_eq!(log.jittered, N);
    assert_eq!(q.n_kept, N);
    assert_eq!(q.removed(), 0);
    assert_eq!(q.order_violations, 0, "jitter < gap/2 preserves order");
    assert_eq!(q.dropout_gaps, 0, "jittered gaps stay below the threshold");
    summarise(&clean);
}

#[test]
fn clock_skew_and_drift_pass_through_accounted() {
    let (clean, log) = pipeline(&FaultPlan::none(0x22).with_skew(2.5, 1e-4));
    let q = clean.quality;
    assert_eq!(log.skewed, N);
    assert_eq!(q.n_kept, N);
    assert!(q.is_clean(), "{q:?}");
    // The whole series is offset: skew is invisible without a reference
    // clock, but nothing is lost.
    assert!((clean.series.times()[0] - 3.5001).abs() < 1e-9);
    summarise(&clean);
}

#[test]
fn out_of_order_delivery_is_repaired_with_exact_counts() {
    let (clean, log) = pipeline(&FaultPlan::none(0x33).with_swaps(6));
    let q = clean.quality;
    assert_eq!(log.swaps, 6);
    assert_eq!(q.order_violations, log.swaps);
    assert_eq!(q.n_kept, N);
    assert!(clean.series.times().windows(2).all(|w| w[0] < w[1]));
    summarise(&clean);
}

#[test]
fn duplicate_timestamps_are_resolved_with_exact_counts() {
    let (clean, log) = pipeline(&FaultPlan::none(0x44).with_duplicates(5));
    let q = clean.quality;
    assert_eq!(log.duplicates, 5);
    assert_eq!(q.duplicates_resolved, log.duplicates);
    assert_eq!(q.n_kept, N, "one survivor per duplicated timestamp");
    summarise(&clean);
}

#[test]
fn chaos_plan_completes_with_full_accounting() {
    let (clean, log) = pipeline(&FaultPlan::chaos(0xFF));
    let q = clean.quality;
    // Every class actually landed on a 400-sample series.
    assert!(log.dropout_bursts > 0 && log.stuck_runs > 0, "{log:?}");
    assert!(log.nan_glitches > 0 && log.spike_glitches > 0, "{log:?}");
    assert!(log.counter_resets > 0 && log.swaps > 0 && log.duplicates > 0, "{log:?}");
    // Exact per-class accounting even under the combined plan — classes
    // are injected at disjoint sites.
    assert_eq!(q.non_finite_removed, log.nan_glitches);
    assert_eq!(q.spikes_removed, log.spike_glitches);
    assert_eq!(q.resets_removed, log.counter_resets);
    assert_eq!(q.duplicates_resolved, log.duplicates);
    assert_eq!(q.stuck_runs, log.stuck_runs);
    assert_eq!(q.stuck_removed, log.stuck_extra);
    assert_eq!(q.order_violations, log.swaps);
    // Every *removed* sample leaves a gap too: each screened single (NaN,
    // spike, reset) and each collapsed stuck run widens one inter-sample
    // gap past the threshold, on top of the true dropout bursts. Sites
    // are disjoint, so the counts add exactly.
    assert_eq!(
        q.dropout_gaps,
        log.dropout_bursts
            + log.nan_glitches
            + log.spike_glitches
            + log.counter_resets
            + log.stuck_runs
    );
    // Total accounting identity.
    assert_eq!(
        q.n_raw,
        q.n_kept
            + q.non_finite_removed
            + q.spikes_removed
            + q.resets_removed
            + q.duplicates_resolved
            + q.stuck_removed
    );
    assert_eq!(q.n_raw, N - log.dropped_samples + log.duplicates);
    assert!(q.coverage > 0.8 && q.coverage < 1.0, "{q:?}");
    summarise(&clean);
}

#[test]
fn chaos_is_deterministic_end_to_end() {
    let (a, la) = pipeline(&FaultPlan::chaos(0xAB));
    let (b, lb) = pipeline(&FaultPlan::chaos(0xAB));
    assert_eq!(la, lb);
    assert_eq!(a.quality, b.quality);
    assert_eq!(a.series, b.series);
}

// Panic-edge property coverage: the hardened paths must never panic on
// inputs that would kill `Kde::fit` or `TimeSeries::new`.
vpp_substrate::properties! {
    fn quarantine_never_panics_on_arbitrary_raw_streams(rng) {
        use vpp_substrate::prop::usize_in;
        let n = usize_in(rng, 0, 120);
        let mut raw = RawSeries::new();
        for _ in 0..n {
            // Hostile mix: duplicate and out-of-order timestamps,
            // NaN/inf/negative/spike values.
            let t = match rng.index(6) {
                0 => rng.uniform(0.0, 10.0).floor(), // forced duplicates
                1 => -rng.uniform(0.0, 100.0),       // out of order
                2 => f64::NAN,                       // broken clock
                _ => rng.uniform(0.0, 1000.0),
            };
            let v = match rng.index(8) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -rng.uniform(0.0, 1e6),
                4 => rng.uniform(1e5, 1e12),
                _ => rng.uniform(0.0, 3000.0),
            };
            raw.push(t, v);
        }
        let clean = quarantine(&raw, &QualityConfig::new(1.0));
        let q = clean.quality;
        // TimeSeries invariants hold on whatever survives.
        assert!(clean.series.times().windows(2).all(|w| w[0] < w[1]));
        assert!(clean.series.values().iter().all(|v| v.is_finite()));
        // Every raw point is accounted for exactly once.
        assert_eq!(
            q.n_raw,
            q.n_kept + q.non_finite_removed + q.spikes_removed + q.resets_removed
                + q.duplicates_resolved + q.stuck_removed
        );
        assert!((0.0..=1.0).contains(&q.coverage));
    }

    fn injected_faults_always_quarantine_cleanly(rng) {
        use vpp_substrate::prop::usize_in;
        let n = usize_in(rng, 16, 200);
        let segs: Vec<(f64, f64)> = (0..n).map(|i| (1.0, 900.0 + (i % 31) as f64 * 7.0)).collect();
        let series = Sampler::ideal(1.0).sample(&PowerTrace::from_segments(0.0, segs));
        let plan = FaultPlan::none(rng.next_u64())
            .with_dropouts(rng.index(4), 1 + rng.index(4))
            .with_stuck(rng.index(3), 2 + rng.index(5))
            .with_nans(rng.index(5))
            .with_spikes(rng.index(4))
            .with_resets(rng.index(3))
            .with_jitter(rng.uniform(0.0, 0.45))
            .with_swaps(rng.index(5))
            .with_duplicates(rng.index(5));
        let (raw, _log) = plan.inject(&series);
        let clean = quarantine(&raw, &QualityConfig::new(1.0));
        assert!(clean.series.times().windows(2).all(|w| w[0] < w[1]));
        assert!(clean.series.values().iter().all(|v| v.is_finite()));
    }
}
