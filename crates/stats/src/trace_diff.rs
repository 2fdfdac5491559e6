//! Trace-diff regression triage: compare a re-run's flight-recorder
//! aggregates against a stored baseline and name what moved.
//!
//! A bench regression that only reports a top-line median forces a human
//! to bisect; the flight recorder already knows *which phase* got slower
//! and *which counters* changed. This module turns two
//! [`TraceBaseline`]s, both made by [`TraceBaseline::capture`] (one stored
//! by `vpp trace accept`, one re-captured by `vpp trace diff`), into a
//! ranked list of [`DiffRow`]s.
//!
//! # Significance model
//!
//! The simulator is deterministic per seed: a repeat's simulated phase
//! durations (`sim_s`) and attributed energy (`energy_j`) vary only
//! through the protocol's per-repeat fleet sampling, never through host
//! noise. So an unperturbed re-run reproduces the baseline samples
//! *exactly*, and any non-zero paired delta is a real behavioural change:
//!
//! * With ≥ 2 repeats, the per-repeat paired differences feed the
//!   existing percentile bootstrap ([`bootstrap_ci`]); a metric is
//!   significant when its CI excludes zero **and** the relative delta
//!   clears [`DiffConfig::noise_floor`].
//! * With 1 repeat (or a degenerate CI), the exact relative delta alone
//!   is compared against the floor.
//! * Span counts and session counters are integers and compare exactly.
//! * Wall-clock totals (`wall_ns`) are host noise; they are reported as
//!   context rows but can never be significant and never fail a diff.
//! * A per-span tolerance blessed into the baseline (`vpp trace accept
//!   --tolerance phase:pct`, stored in [`TraceBaseline::tolerances`])
//!   replaces the global noise floor for that span's continuous metrics
//!   when it is wider — a persisted allowance for a phase that is
//!   expected to drift. Tolerances never tighten below
//!   [`DiffConfig::noise_floor`] and never apply to exact (count /
//!   counter) comparisons.
//!
//! This is what guarantees the acceptance property: an identical-seed
//! re-run reports no significant deltas, while a single perturbed phase
//! is ranked at the top with its counter deltas alongside.

use crate::bootstrap::{bootstrap_ci, ConfidenceInterval};
use vpp_substrate::bench::TraceBaseline;
use vpp_substrate::trace::TraceAggregate;

/// Knobs for [`diff`].
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Bootstrap resamples for the paired-difference CIs.
    pub resamples: usize,
    /// CI level (e.g. 0.95).
    pub level: f64,
    /// Seed for the deterministic bootstrap resampler.
    pub seed: u64,
    /// Minimum relative change (|new − base| / base) a metric must clear
    /// before it can be significant. Guards against microscopic float
    /// drift being promoted to a finding.
    pub noise_floor: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self {
            resamples: 2000,
            level: 0.95,
            seed: 0xD1FF,
            noise_floor: 0.01,
        }
    }
}

/// One compared metric of one span name.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Span name (`phase.scf_iter`, `job.collective`, …).
    pub span: String,
    /// Which metric: `"sim_s"`, `"energy_j"`, `"count"`, or `"wall_ns"`.
    pub metric: &'static str,
    /// Baseline total.
    pub base: f64,
    /// Re-run total.
    pub current: f64,
    /// `(current − base) / base`; ±∞ when the span (dis)appeared.
    pub rel_delta: f64,
    /// Paired-difference CI over per-repeat samples, when ≥ 2 repeats
    /// were available to bootstrap.
    pub ci: Option<ConfidenceInterval>,
    /// The delta is real (per the significance model) — not necessarily
    /// worse.
    pub significant: bool,
    /// Significant *and* slower/costlier (`current > base`).
    pub regression: bool,
}

/// A session counter whose value changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDelta {
    /// Counter name.
    pub name: String,
    /// Baseline value (0 when the counter is new).
    pub base: u64,
    /// Re-run value (0 when the counter disappeared).
    pub current: u64,
}

/// The outcome of one baseline-vs-re-run comparison.
#[derive(Debug, Clone)]
pub struct TraceDiff {
    /// Metric rows, ranked: significant rows first, then by |relative
    /// delta| descending; wall-clock context rows always sort last.
    pub rows: Vec<DiffRow>,
    /// Counters whose values differ (exact integer comparison).
    pub counter_deltas: Vec<CounterDelta>,
    /// Repeats actually paired for the bootstrap.
    pub paired_repeats: usize,
}

impl TraceDiff {
    /// Rows that are significant (real changes, either direction).
    #[must_use]
    pub fn significant(&self) -> Vec<&DiffRow> {
        self.rows.iter().filter(|r| r.significant).collect()
    }

    /// True when any metric significantly got worse — the CI-gate signal.
    #[must_use]
    pub fn has_regressions(&self) -> bool {
        self.rows.iter().any(|r| r.regression)
    }

    /// The top-ranked regression, if any.
    #[must_use]
    pub fn top_regression(&self) -> Option<&DiffRow> {
        self.rows.iter().find(|r| r.regression)
    }
}

fn rel_delta(base: f64, current: f64) -> f64 {
    if base == current {
        0.0
    } else if base == 0.0 {
        f64::INFINITY * (current - base).signum()
    } else {
        (current - base) / base.abs()
    }
}

/// Union of span names across two aggregates, sorted.
fn span_names<'a>(a: &'a TraceAggregate, b: &'a TraceAggregate) -> Vec<&'a str> {
    let mut names: Vec<&str> = a
        .spans
        .iter()
        .chain(b.spans.iter())
        .map(|s| s.name.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

/// Compare a re-run against its stored baseline.
///
/// # Panics
/// If `cfg.resamples == 0` or `cfg.level` is outside `(0, 1)` while
/// a bootstrap is needed (≥ 2 paired repeats with varying deltas).
#[must_use]
pub fn diff(base: &TraceBaseline, current: &TraceBaseline, cfg: &DiffConfig) -> TraceDiff {
    let paired = base.samples.len().min(current.samples.len());
    let mut rows: Vec<DiffRow> = Vec::new();

    for name in span_names(&base.aggregate, &current.aggregate) {
        let b = base.aggregate.span(name);
        let c = current.aggregate.span(name);
        let b_stat = |f: fn(&vpp_substrate::trace::SpanStat) -> f64| b.map_or(0.0, f);
        let c_stat = |f: fn(&vpp_substrate::trace::SpanStat) -> f64| c.map_or(0.0, f);
        // Per-span blessed tolerance widens (never tightens) the floor.
        let floor = base
            .tolerances
            .get(name)
            .copied()
            .unwrap_or(cfg.noise_floor)
            .max(cfg.noise_floor);

        // Deterministic continuous metrics: paired bootstrap over repeats.
        for (metric, get) in [
            ("sim_s", (|s| s.sim_s) as fn(&vpp_substrate::trace::SpanStat) -> f64),
            ("energy_j", |s| s.energy_j),
        ] {
            let (bt, ct) = (b_stat(get), c_stat(get));
            if bt == 0.0 && ct == 0.0 {
                continue; // metric not carried by this span kind
            }
            let deltas: Vec<f64> = (0..paired)
                .map(|i| {
                    let bs = base.samples[i].span(name).map_or(0.0, get);
                    let cs = current.samples[i].span(name).map_or(0.0, get);
                    cs - bs
                })
                .collect();
            let rel = rel_delta(bt, ct);
            // A span that never appears inside a repeat subtree (e.g. the
            // protocol wrapper itself) yields an all-missing delta vector;
            // pairing carries no information there, so fall back to the
            // exact comparison instead of reporting a degenerate [0, 0] CI.
            let sampled = (0..paired).any(|i| {
                base.samples[i].span(name).is_some() || current.samples[i].span(name).is_some()
            });
            let (ci, significant) = if sampled && deltas.len() >= 2 {
                let ci = bootstrap_ci(&deltas, cfg.resamples, cfg.level, cfg.seed, |d| {
                    d.iter().sum::<f64>() / d.len() as f64
                });
                let sig = !ci.contains(0.0) && rel.abs() > floor;
                (Some(ci), sig)
            } else {
                (None, rel.abs() > floor)
            };
            rows.push(DiffRow {
                span: name.to_string(),
                metric,
                base: bt,
                current: ct,
                rel_delta: rel,
                ci,
                significant,
                regression: significant && ct > bt,
            });
        }

        // Span count: exact integer comparison.
        let (bc, cc) = (b.map_or(0, |s| s.count), c.map_or(0, |s| s.count));
        if bc != cc {
            rows.push(DiffRow {
                span: name.to_string(),
                metric: "count",
                base: bc as f64,
                current: cc as f64,
                rel_delta: rel_delta(bc as f64, cc as f64),
                ci: None,
                significant: true,
                regression: cc > bc,
            });
        }

        // Wall clock: context only — host noise never drives the verdict.
        let (bw, cw) = (b_stat(|s| s.wall_ns as f64), c_stat(|s| s.wall_ns as f64));
        if bw > 0.0 || cw > 0.0 {
            rows.push(DiffRow {
                span: name.to_string(),
                metric: "wall_ns",
                base: bw,
                current: cw,
                rel_delta: rel_delta(bw, cw),
                ci: None,
                significant: false,
                regression: false,
            });
        }
    }

    // Rank: significant first, largest |relative move| first; wall-clock
    // context sinks to the bottom regardless of its delta.
    rows.sort_by(|a, b| {
        let class = |r: &DiffRow| -> u8 {
            if r.significant {
                0
            } else if r.metric != "wall_ns" {
                1
            } else {
                2
            }
        };
        class(a).cmp(&class(b)).then(
            b.rel_delta
                .abs()
                .total_cmp(&a.rel_delta.abs()),
        )
    });

    // Counters: exact comparison over the union of names.
    let mut counter_deltas: Vec<CounterDelta> = Vec::new();
    let mut names: Vec<&String> = base
        .aggregate
        .counters
        .keys()
        .chain(current.aggregate.counters.keys())
        .collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let bv = base.aggregate.counters.get(name).copied().unwrap_or(0);
        let cv = current.aggregate.counters.get(name).copied().unwrap_or(0);
        if bv != cv {
            counter_deltas.push(CounterDelta {
                name: name.clone(),
                base: bv,
                current: cv,
            });
        }
    }

    TraceDiff {
        rows,
        counter_deltas,
        paired_repeats: paired,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpp_substrate::trace::{SpanStat, TraceAggregate};

    fn agg(entries: &[(&str, u64, f64, f64)]) -> TraceAggregate {
        let mut spans: Vec<SpanStat> = entries
            .iter()
            .map(|(name, count, sim_s, energy_j)| SpanStat {
                name: (*name).to_string(),
                count: *count,
                wall_ns: 1000,
                sim_s: *sim_s,
                energy_j: *energy_j,
            })
            .collect();
        spans.sort_by(|a, b| a.name.cmp(&b.name));
        TraceAggregate {
            spans,
            counters: std::collections::BTreeMap::new(),
        }
    }

    fn baseline(samples: Vec<TraceAggregate>) -> TraceBaseline {
        // The whole-run aggregate is the element-wise sum of the samples.
        let mut total = TraceAggregate::default();
        for s in &samples {
            for st in &s.spans {
                match total.spans.binary_search_by(|t| t.name.cmp(&st.name)) {
                    Ok(i) => {
                        total.spans[i].count += st.count;
                        total.spans[i].wall_ns += st.wall_ns;
                        total.spans[i].sim_s += st.sim_s;
                        total.spans[i].energy_j += st.energy_j;
                    }
                    Err(i) => total.spans.insert(i, st.clone()),
                }
            }
        }
        TraceBaseline {
            aggregate: total,
            samples,
            tolerances: std::collections::BTreeMap::new(),
        }
    }

    fn three_repeats(scale: f64) -> TraceBaseline {
        baseline(
            (0..3)
                .map(|i| {
                    let wiggle = 1.0 + 0.02 * i as f64; // fleet-sampling spread
                    agg(&[
                        ("phase.init", 1, 6.0 * wiggle, 900.0 * wiggle),
                        ("phase.scf_iter", 10, 40.0 * wiggle * scale, 9e4 * wiggle * scale),
                    ])
                })
                .collect(),
        )
    }

    #[test]
    fn identical_runs_report_no_significant_deltas() {
        let b = three_repeats(1.0);
        let d = diff(&b, &b.clone(), &DiffConfig::default());
        assert!(!d.has_regressions());
        assert!(d.significant().is_empty(), "{:?}", d.significant());
        assert_eq!(d.paired_repeats, 3);
        assert!(d.counter_deltas.is_empty());
        // Context rows still present for inspection.
        assert!(d.rows.iter().any(|r| r.metric == "wall_ns"));
    }

    #[test]
    fn perturbed_phase_is_top_ranked() {
        let base = three_repeats(1.0);
        let slow = three_repeats(1.4);
        let d = diff(&base, &slow, &DiffConfig::default());
        assert!(d.has_regressions());
        let top = d.top_regression().unwrap();
        assert_eq!(top.span, "phase.scf_iter");
        assert!(top.rel_delta > 0.35 && top.rel_delta < 0.45, "{top:?}");
        assert!(top.ci.is_some());
        // The untouched phase must not be flagged.
        assert!(d
            .significant()
            .iter()
            .all(|r| r.span == "phase.scf_iter"));
    }

    #[test]
    fn improvements_are_significant_but_not_regressions() {
        let base = three_repeats(1.0);
        let fast = three_repeats(0.7);
        let d = diff(&base, &fast, &DiffConfig::default());
        assert!(!d.has_regressions());
        assert!(!d.significant().is_empty(), "a real speedup is still a delta");
    }

    #[test]
    fn single_repeat_uses_exact_comparison() {
        let base = baseline(vec![agg(&[("phase.scf_iter", 5, 20.0, 4e4)])]);
        let same = diff(&base, &base.clone(), &DiffConfig::default());
        assert!(!same.has_regressions());
        assert!(same.significant().is_empty());

        let slow = baseline(vec![agg(&[("phase.scf_iter", 5, 26.0, 5e4)])]);
        let d = diff(&base, &slow, &DiffConfig::default());
        let top = d.top_regression().unwrap();
        assert_eq!(top.span, "phase.scf_iter");
        assert!(top.ci.is_none(), "one repeat cannot bootstrap");
    }

    #[test]
    fn aggregate_only_spans_fall_back_to_exact_comparison() {
        // The protocol wrapper span never nests inside a repeat subtree,
        // so it appears in the whole-run aggregate only; pairing carries
        // no information and the comparison must degrade to exact.
        let wrapper = |energy_j: f64| SpanStat {
            name: "protocol.measure".to_string(),
            count: 1,
            wall_ns: 5000,
            sim_s: 0.0,
            energy_j,
        };
        let mut base = three_repeats(1.0);
        base.aggregate.spans.insert(0, wrapper(3e5));
        base.aggregate.spans.sort_by(|a, b| a.name.cmp(&b.name));
        let mut cur = three_repeats(1.0);
        cur.aggregate.spans.insert(0, wrapper(4.5e5));
        cur.aggregate.spans.sort_by(|a, b| a.name.cmp(&b.name));

        let d = diff(&base, &cur, &DiffConfig::default());
        let row = d
            .rows
            .iter()
            .find(|r| r.span == "protocol.measure" && r.metric == "energy_j")
            .expect("wrapper row");
        assert!(row.significant && row.regression, "{row:?}");
        assert!(row.ci.is_none(), "no pairing information -> exact compare");

        let same = diff(&base, &base.clone(), &DiffConfig::default());
        assert!(same.significant().is_empty(), "{:?}", same.significant());
    }

    #[test]
    fn count_and_counter_changes_are_exact() {
        let mut base = baseline(vec![agg(&[("phase.scf_iter", 10, 40.0, 9e4)])]);
        base.aggregate.counters.insert("des.scheduled".into(), 100);
        let mut cur = baseline(vec![agg(&[("phase.scf_iter", 12, 40.0, 9e4)])]);
        cur.aggregate.counters.insert("des.scheduled".into(), 120);
        cur.aggregate.counters.insert("job.ops.gpu".into(), 7);
        let d = diff(&base, &cur, &DiffConfig::default());
        let count_row = d
            .rows
            .iter()
            .find(|r| r.metric == "count")
            .expect("count delta row");
        assert!(count_row.significant && count_row.regression);
        assert_eq!(
            d.counter_deltas,
            vec![
                CounterDelta {
                    name: "des.scheduled".into(),
                    base: 100,
                    current: 120
                },
                CounterDelta {
                    name: "job.ops.gpu".into(),
                    base: 0,
                    current: 7
                },
            ]
        );
    }

    #[test]
    fn blessed_tolerance_widens_the_floor_for_that_span_only() {
        let mut base = three_repeats(1.0);
        let slow = three_repeats(1.4); // scf_iter +40%, init untouched
        let d = diff(&base, &slow, &DiffConfig::default());
        assert!(d.has_regressions(), "without a tolerance the move flags");

        // Bless a ±50% allowance on exactly the moved phase: the diff
        // goes clean, because the untouched phase never moved anyway.
        base.tolerances.insert("phase.scf_iter".to_string(), 0.50);
        let d = diff(&base, &slow, &DiffConfig::default());
        assert!(!d.has_regressions(), "{:?}", d.significant());
        assert!(d.significant().is_empty());

        // The allowance is scoped: a different span's regression still
        // flags even while scf_iter is tolerated.
        let mut slow_init = three_repeats(1.4);
        for sample in slow_init
            .samples
            .iter_mut()
            .chain(std::iter::once(&mut slow_init.aggregate))
        {
            for s in &mut sample.spans {
                if s.name == "phase.init" {
                    s.sim_s *= 1.3;
                    s.energy_j *= 1.3;
                }
            }
        }
        let d = diff(&base, &slow_init, &DiffConfig::default());
        let top = d.top_regression().expect("init regression flags");
        assert_eq!(top.span, "phase.init");
        assert!(d.significant().iter().all(|r| r.span == "phase.init"));

        // A tolerance below the global floor never tightens it.
        let mut tight = three_repeats(1.0);
        tight.tolerances.insert("phase.scf_iter".to_string(), 0.0);
        let mut nudged = three_repeats(1.0);
        for sample in nudged
            .samples
            .iter_mut()
            .chain(std::iter::once(&mut nudged.aggregate))
        {
            for s in &mut sample.spans {
                s.sim_s *= 1.0 + 5e-3; // under the 1% global floor
                s.energy_j *= 1.0 + 5e-3;
            }
        }
        let d = diff(&tight, &nudged, &DiffConfig::default());
        assert!(
            d.significant().is_empty(),
            "sub-floor drift must stay quiet: {:?}",
            d.significant()
        );
    }

    #[test]
    fn diff_is_deterministic() {
        let base = three_repeats(1.0);
        let slow = three_repeats(1.2);
        let cfg = DiffConfig::default();
        let a = diff(&base, &slow, &cfg);
        let b = diff(&base, &slow, &cfg);
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.span, y.span);
            assert_eq!(x.metric, y.metric);
            assert_eq!(x.significant, y.significant);
            assert_eq!(x.rel_delta.to_bits(), y.rel_delta.to_bits());
            match (&x.ci, &y.ci) {
                (Some(a), Some(b)) => assert_eq!(a, b),
                (None, None) => {}
                _ => panic!("CI presence must match"),
            }
        }
    }

    #[test]
    fn wall_noise_alone_never_flags() {
        let base = three_repeats(1.0);
        let mut noisy = base.clone();
        for s in &mut noisy.aggregate.spans {
            s.wall_ns *= 10; // a busy CI host
        }
        let d = diff(&base, &noisy, &DiffConfig::default());
        assert!(!d.has_regressions());
        assert!(d.significant().is_empty());
    }
}
