//! Quarantine-and-quality ingest: dirty telemetry in, accounted-for
//! series out.
//!
//! The production measurement chain (Cray PM → LDMS → OMNI, paper §II-B)
//! delivers imperfect data: samples drop under aggregate load, sensors
//! stick, readings glitch to NaN or implausible spikes, node clocks skew,
//! counters reset, and racing per-node daemons deliver points out of order
//! or twice. Downstream code wants the [`TimeSeries`] invariants (strictly
//! increasing timestamps, finite values) — previously the only options
//! were "panic" or "silently trust".
//!
//! This module adds the third option: a [`RawSeries`] accumulates points
//! exactly as they arrived, and [`quarantine`] screens them into a valid
//! [`TimeSeries`] plus a [`DataQuality`] report that accounts for every
//! point removed or repaired, so consumers can gate on coverage the way
//! the paper's protocol re-runs variant nodes (§III-B.1).

use crate::series::TimeSeries;

/// Possibly-dirty samples in arrival order. Duplicate timestamps,
/// out-of-order delivery and non-finite values are all representable —
/// none of the [`TimeSeries`] invariants are enforced here.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RawSeries {
    points: Vec<(f64, f64)>,
}

impl RawSeries {
    /// Empty raw accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap `(t, watts)` points already in arrival order.
    #[must_use]
    pub fn from_points(points: Vec<(f64, f64)>) -> Self {
        Self { points }
    }

    /// Re-open a clean series as raw input (e.g. to inject faults into it).
    #[must_use]
    pub fn from_series(series: &TimeSeries) -> Self {
        Self {
            points: series
                .times()
                .iter()
                .copied()
                .zip(series.values().iter().copied())
                .collect(),
        }
    }

    /// Append one arrival.
    pub fn push(&mut self, t: f64, watts: f64) {
        self.points.push((t, watts));
    }

    /// Arrival-ordered points.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of raw points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing has arrived.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Screening thresholds for [`quarantine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityConfig {
    /// Nominal cadence the producer was configured for, seconds. Anchors
    /// the coverage fraction and the gap histogram.
    pub nominal_interval_s: f64,
    /// Readings below this are counter-reset artefacts (a powered node
    /// never reports ~0 W mid-run).
    pub min_plausible_w: f64,
    /// Readings above this are transient spikes (no Perlmutter node
    /// channel reaches tens of kW).
    pub max_plausible_w: f64,
    /// Runs of at least this many bitwise-identical consecutive values
    /// are a stuck sensor; `usize::MAX` disables the check (legitimate
    /// for simulated traces with exactly constant phases).
    pub stuck_run_min: usize,
    /// Gaps longer than this multiple of the nominal interval count as
    /// dropout gaps.
    pub gap_factor: f64,
}

impl QualityConfig {
    /// Default screen for a channel sampled at `nominal_interval_s`.
    ///
    /// # Panics
    /// If the interval is not positive and finite.
    #[must_use]
    pub fn new(nominal_interval_s: f64) -> Self {
        assert!(
            nominal_interval_s > 0.0 && nominal_interval_s.is_finite(),
            "bad nominal interval {nominal_interval_s}"
        );
        Self {
            nominal_interval_s,
            min_plausible_w: 1.0,
            max_plausible_w: 50_000.0,
            stuck_run_min: 4,
            gap_factor: 1.5,
        }
    }

    /// Same screen with stuck-sensor detection disabled — for simulated
    /// traces whose constant phases are real, not sensor faults.
    #[must_use]
    pub fn without_stuck_detection(mut self) -> Self {
        self.stuck_run_min = usize::MAX;
        self
    }

    /// Override the plausible-value band.
    #[must_use]
    pub fn with_plausible_band(mut self, min_w: f64, max_w: f64) -> Self {
        self.min_plausible_w = min_w;
        self.max_plausible_w = max_w;
        self
    }
}

/// What the quarantine did to one raw series: every removed or repaired
/// point is counted in exactly one bucket, so
/// `n_raw == n_kept + non_finite_removed + spikes_removed +
/// resets_removed + duplicates_resolved + stuck_removed`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DataQuality {
    /// Points that arrived.
    pub n_raw: usize,
    /// Points surviving every screen.
    pub n_kept: usize,
    /// NaN/infinite readings removed.
    pub non_finite_removed: usize,
    /// Readings above the plausible band removed.
    pub spikes_removed: usize,
    /// Readings below the plausible band (counter resets) removed.
    pub resets_removed: usize,
    /// Duplicate timestamps resolved keep-last.
    pub duplicates_resolved: usize,
    /// Adjacent arrival pairs whose timestamps were inverted (repaired by
    /// the stable sort).
    pub order_violations: usize,
    /// Maximal stuck-sensor runs detected.
    pub stuck_runs: usize,
    /// Stuck samples removed (every sample of a run after its first).
    pub stuck_removed: usize,
    /// Inter-sample gaps exceeding `gap_factor ×` nominal.
    pub dropout_gaps: usize,
    /// Longest inter-sample gap, seconds (0 with fewer than 2 samples).
    pub longest_gap_s: f64,
    /// Kept samples over the count a gap-free nominal cadence would have
    /// produced across the observed span, in `[0, 1]`.
    pub coverage: f64,
    /// Gap histogram as multiples of the nominal interval:
    /// `[0, 1.5)`, `[1.5, 4)`, `[4, 16)`, `[16, ∞)`.
    pub gap_hist: [usize; 4],
}

impl DataQuality {
    /// Total points removed by any screen.
    #[must_use]
    pub fn removed(&self) -> usize {
        self.non_finite_removed
            + self.spikes_removed
            + self.resets_removed
            + self.duplicates_resolved
            + self.stuck_removed
    }

    /// True when nothing had to be removed or repaired and no dropout
    /// gap was seen.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.removed() == 0 && self.order_violations == 0 && self.dropout_gaps == 0
    }
}

impl std::fmt::Display for DataQuality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kept {}/{} (coverage {:.0}%): {} non-finite, {} spikes, {} resets, \
             {} dups, {} stuck ({} runs), {} reorders, {} dropout gaps (longest {:.1}s)",
            self.n_kept,
            self.n_raw,
            self.coverage * 100.0,
            self.non_finite_removed,
            self.spikes_removed,
            self.resets_removed,
            self.duplicates_resolved,
            self.stuck_removed,
            self.stuck_runs,
            self.order_violations,
            self.dropout_gaps,
            self.longest_gap_s
        )
    }
}

/// A quarantined series: the surviving samples plus the account of what
/// was screened out.
#[derive(Debug, Clone, PartialEq)]
pub struct CleanSeries {
    pub series: TimeSeries,
    pub quality: DataQuality,
}

/// Screen a raw series into a valid [`TimeSeries`] and its quality report.
///
/// The screens run in a fixed order so each removed point lands in exactly
/// one bucket:
///
/// 1. non-finite values out;
/// 2. implausible values out (spikes above, counter resets below the band);
/// 3. arrival-order inversions counted, then a stable timestamp sort;
/// 4. duplicate timestamps resolved keep-last;
/// 5. stuck-sensor runs collapsed to their first sample;
/// 6. gap/coverage statistics on what remains.
///
/// Never panics: any input, including an empty or fully-rejected one,
/// yields a (possibly empty) series with the rejection fully accounted.
#[must_use]
pub fn quarantine(raw: &RawSeries, cfg: &QualityConfig) -> CleanSeries {
    let mut q = DataQuality {
        n_raw: raw.len(),
        ..DataQuality::default()
    };

    // 1–2. Value screens, preserving arrival order.
    let mut pts: Vec<(f64, f64)> = Vec::with_capacity(raw.len());
    for &(t, v) in raw.points() {
        if !t.is_finite() || !v.is_finite() {
            q.non_finite_removed += 1;
        } else if v > cfg.max_plausible_w {
            q.spikes_removed += 1;
        } else if v < cfg.min_plausible_w {
            q.resets_removed += 1;
        } else {
            pts.push((t, v));
        }
    }

    // 3. Order repair: count strict inversions between adjacent arrivals,
    // then stable-sort so equal timestamps keep arrival order.
    q.order_violations = pts.windows(2).filter(|w| w[1].0 < w[0].0).count();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));

    // 4. Keep-last dedup: the later arrival supersedes earlier ones.
    let mut deduped: Vec<(f64, f64)> = Vec::with_capacity(pts.len());
    for p in pts {
        match deduped.last_mut() {
            Some(last) if last.0 == p.0 => {
                *last = p;
                q.duplicates_resolved += 1;
            }
            _ => deduped.push(p),
        }
    }

    // 5. Stuck-sensor collapse: a run of >= stuck_run_min bitwise-equal
    // values carries one real reading; the held repeats are dropped.
    let kept = if cfg.stuck_run_min == usize::MAX {
        deduped
    } else {
        let mut kept: Vec<(f64, f64)> = Vec::with_capacity(deduped.len());
        let mut i = 0;
        while i < deduped.len() {
            let mut j = i + 1;
            while j < deduped.len() && deduped[j].1 == deduped[i].1 {
                j += 1;
            }
            let run = j - i;
            if run >= cfg.stuck_run_min {
                kept.push(deduped[i]);
                q.stuck_runs += 1;
                q.stuck_removed += run - 1;
            } else {
                kept.extend_from_slice(&deduped[i..j]);
            }
            i = j;
        }
        kept
    };

    // 6. Gap & coverage statistics.
    q.n_kept = kept.len();
    let nominal = cfg.nominal_interval_s;
    for w in kept.windows(2) {
        let gap = w[1].0 - w[0].0;
        q.longest_gap_s = q.longest_gap_s.max(gap);
        let ratio = gap / nominal;
        let bucket = if ratio < 1.5 {
            0
        } else if ratio < 4.0 {
            1
        } else if ratio < 16.0 {
            2
        } else {
            3
        };
        q.gap_hist[bucket] += 1;
        if ratio > cfg.gap_factor {
            q.dropout_gaps += 1;
        }
    }
    q.coverage = match kept.len() {
        0 => 0.0,
        1 => 1.0,
        n => {
            let span = kept[n - 1].0 - kept[0].0;
            let expected = (span / nominal).round() as usize + 1;
            (n as f64 / expected.max(n) as f64).min(1.0)
        }
    };

    vpp_substrate::trace::counter("telemetry.ingest.raw", q.n_raw as u64);
    vpp_substrate::trace::counter("telemetry.ingest.kept", q.n_kept as u64);
    vpp_substrate::trace::counter("telemetry.ingest.quarantined", q.removed() as u64);

    let (times, values): (Vec<f64>, Vec<f64>) = kept.into_iter().unzip();
    CleanSeries {
        series: TimeSeries::new(times, values),
        quality: q,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> QualityConfig {
        QualityConfig::new(1.0)
    }

    fn ramp(n: usize) -> RawSeries {
        RawSeries::from_points((0..n).map(|i| (i as f64, 100.0 + i as f64)).collect())
    }

    #[test]
    fn clean_input_passes_untouched() {
        let raw = ramp(20);
        let c = quarantine(&raw, &cfg());
        assert_eq!(c.series.len(), 20);
        assert!(c.quality.is_clean(), "{:?}", c.quality);
        assert_eq!(c.quality.coverage, 1.0);
        assert_eq!(c.quality.gap_hist, [19, 0, 0, 0]);
    }

    #[test]
    fn non_finite_values_are_screened_and_counted() {
        let mut raw = ramp(10);
        raw.push(3.5, f64::NAN);
        raw.push(4.5, f64::INFINITY);
        let c = quarantine(&raw, &cfg());
        assert_eq!(c.quality.non_finite_removed, 2);
        assert_eq!(c.series.len(), 10);
        assert!(c.series.values().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn spikes_and_resets_use_separate_buckets() {
        let mut raw = ramp(10);
        raw.push(3.5, 2e5); // spike
        raw.push(4.5, 0.0); // counter reset
        let c = quarantine(&raw, &cfg());
        assert_eq!(c.quality.spikes_removed, 1);
        assert_eq!(c.quality.resets_removed, 1);
        assert_eq!(c.series.len(), 10);
    }

    #[test]
    fn duplicates_keep_the_last_arrival() {
        let raw = RawSeries::from_points(vec![(0.0, 10.0), (1.0, 20.0), (1.0, 99.0), (2.0, 30.0)]);
        let c = quarantine(&raw, &cfg());
        assert_eq!(c.quality.duplicates_resolved, 1);
        assert_eq!(c.series.values(), &[10.0, 99.0, 30.0]);
    }

    #[test]
    fn out_of_order_arrivals_are_counted_and_sorted() {
        let raw = RawSeries::from_points(vec![(0.0, 10.0), (2.0, 30.0), (1.0, 20.0), (3.0, 40.0)]);
        let c = quarantine(&raw, &cfg());
        assert_eq!(c.quality.order_violations, 1);
        assert_eq!(c.series.times(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn stuck_runs_collapse_to_first_sample() {
        let mut pts: Vec<(f64, f64)> = (0..6).map(|i| (i as f64, 100.0 + i as f64)).collect();
        pts.extend((6..11).map(|i| (i as f64, 200.0))); // 5 held readings
        pts.extend((11..14).map(|i| (i as f64, 100.0 + i as f64)));
        let c = quarantine(&RawSeries::from_points(pts), &cfg());
        assert_eq!(c.quality.stuck_runs, 1);
        assert_eq!(c.quality.stuck_removed, 4);
        assert_eq!(c.series.len(), 14 - 4);
    }

    #[test]
    fn stuck_detection_can_be_disabled() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 200.0)).collect();
        let c = quarantine(
            &RawSeries::from_points(pts),
            &cfg().without_stuck_detection(),
        );
        assert_eq!(c.quality.stuck_runs, 0);
        assert_eq!(c.series.len(), 10);
    }

    #[test]
    fn dropout_gaps_reduce_coverage() {
        // 0..10 with 11..=14 missing, then 15..20: one 5 s gap.
        let pts: Vec<(f64, f64)> = (0..=10)
            .chain(15..=20)
            .map(|i| (i as f64, 150.0 + (i % 3) as f64))
            .collect();
        let c = quarantine(&RawSeries::from_points(pts), &cfg());
        assert_eq!(c.quality.dropout_gaps, 1);
        assert_eq!(c.quality.longest_gap_s, 5.0);
        assert_eq!(c.quality.gap_hist, [15, 0, 1, 0]);
        // 17 kept of 21 expected over the 20 s span.
        assert!((c.quality.coverage - 17.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn removal_buckets_account_for_every_point() {
        let mut raw = ramp(30);
        raw.push(2.5, f64::NAN);
        raw.push(3.5, 1e6);
        raw.push(4.5, -5.0);
        raw.push(7.0, 123.0); // duplicate of t=7
        let q = quarantine(&raw, &cfg()).quality;
        assert_eq!(
            q.n_raw,
            q.n_kept
                + q.non_finite_removed
                + q.spikes_removed
                + q.resets_removed
                + q.duplicates_resolved
                + q.stuck_removed
        );
    }

    #[test]
    fn empty_and_fully_rejected_inputs_are_safe() {
        let c = quarantine(&RawSeries::new(), &cfg());
        assert!(c.series.is_empty());
        assert_eq!(c.quality.coverage, 0.0);

        let raw = RawSeries::from_points(vec![(0.0, f64::NAN), (1.0, f64::NAN)]);
        let c = quarantine(&raw, &cfg());
        assert!(c.series.is_empty());
        assert_eq!(c.quality.non_finite_removed, 2);
    }

    #[test]
    fn single_survivor_has_full_coverage_by_convention() {
        let c = quarantine(&RawSeries::from_points(vec![(5.0, 100.0)]), &cfg());
        assert_eq!(c.quality.coverage, 1.0);
        assert_eq!(c.quality.longest_gap_s, 0.0);
    }

    #[test]
    fn display_is_single_line() {
        let q = quarantine(&ramp(5), &cfg()).quality;
        let text = q.to_string();
        assert!(text.contains("coverage"));
        assert!(!text.contains('\n'));
    }
}
