//! Flight recorder — per-benchmark performance baselines, regression
//! triage, and the per-phase energy table (DESIGN.md §3.6).
//!
//! A *baseline* is the §III-B protocol run through
//! [`TraceBaseline::capture`]: the whole-run
//! [`TraceAggregate`](trace::TraceAggregate) plus one aggregate per
//! `protocol.repeat` subtree. The recipe is pinned ([`baseline_ctx`] /
//! [`baseline_cfg`]) so a stored baseline and a later re-run are
//! comparable sample-for-sample. The simulator is deterministic per seed
//! and the capture runs the repeats serially, so an unperturbed re-run
//! reproduces the baseline's sim-time and energy aggregates exactly, and
//! any paired delta `vpp_stats::trace_diff` flags is a real change in the
//! modelled execution, not noise. `vpp trace accept` stores what
//! [`capture`] returns; `vpp trace diff` compares a fresh [`capture`]
//! against it.

use crate::benchmarks::{suite, Benchmark};
use crate::experiments::{f, render_table};
use crate::protocol::{self, RunConfig, StudyContext};
use vpp_cluster::{execute, JobSpec};
use vpp_substrate::bench::TraceBaseline;
use vpp_substrate::{span, trace};

/// Span whose subtrees become the per-repeat baseline samples.
pub const SAMPLE_SPAN: &str = "protocol.repeat";

/// Protocol repeats in the baseline recipe: enough for a paired bootstrap,
/// cheap enough to re-run on every triage.
pub const BASELINE_REPEATS: usize = 3;

/// Event budget of the CLI's trace sessions and of [`phase_energy`]'s.
pub const SESSION_CAPACITY: usize = 1 << 23;

/// The baseline study context: paper settings at [`BASELINE_REPEATS`].
#[must_use]
pub fn baseline_ctx() -> StudyContext {
    StudyContext {
        repeats: BASELINE_REPEATS,
        ..StudyContext::paper()
    }
}

/// The baseline run shape: one uncapped node.
#[must_use]
pub fn baseline_cfg() -> RunConfig {
    RunConfig::nodes(1)
}

/// Run the §III-B protocol for `bench` under [`TraceBaseline::capture`],
/// one sample per [`SAMPLE_SPAN`].
#[must_use]
pub fn capture(bench: &Benchmark, cfg: &RunConfig, ctx: &StudyContext) -> TraceBaseline {
    TraceBaseline::capture(SAMPLE_SPAN, || {
        let _ = protocol::measure(bench, cfg, ctx);
    })
}

/// One row of the per-phase energy-to-solution table.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseEnergyRow {
    pub benchmark: String,
    /// Phase span name (`phase.init`, `phase.scf_iter`, …).
    pub phase: String,
    /// Plan phases of this kind (SCF iterations, diagonalisation blocks).
    pub count: u64,
    /// Sim-time the phases spanned, seconds.
    pub sim_s: f64,
    /// Energy attributed to the phases' op ranges, joules.
    pub energy_j: f64,
    /// Fraction of the job's total energy.
    pub share: f64,
}

/// The per-phase energy table: where each benchmark's energy to solution
/// actually goes, from the executor's exact per-phase attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseEnergy {
    pub rows: Vec<PhaseEnergyRow>,
}

/// Execute every Table I benchmark once (one node) under a trace session
/// and read the per-phase energy split out of the span aggregates. Each
/// workload runs inside its own `flight.workload` wrapper span, whose
/// subtree is that workload's rollup.
#[must_use]
pub fn phase_energy(ctx: &StudyContext) -> PhaseEnergy {
    let benches = suite();
    let session = trace::session(SESSION_CAPACITY);
    for (i, b) in benches.iter().enumerate() {
        let plan = protocol::plan_for(b, 1, ctx);
        let _wrap = span!("flight.workload", rep = i);
        std::hint::black_box(execute(&plan, &JobSpec::new(1), &ctx.network));
    }
    let report = session.finish();
    let aggs = report.aggregates_under("flight.workload");
    assert_eq!(aggs.len(), benches.len(), "one aggregate per workload");

    let mut rows = Vec::new();
    for (agg, b) in aggs.iter().zip(&benches) {
        let phases: Vec<_> = agg
            .spans
            .iter()
            .filter(|s| s.name.starts_with("phase."))
            .collect();
        let total: f64 = phases.iter().map(|s| s.energy_j).sum();
        for s in phases {
            rows.push(PhaseEnergyRow {
                benchmark: b.name().to_string(),
                phase: s.name.clone(),
                count: s.count,
                sim_s: s.sim_s,
                energy_j: s.energy_j,
                share: s.energy_j / total.max(1e-12),
            });
        }
    }
    PhaseEnergy { rows }
}

impl std::fmt::Display for PhaseEnergy {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let header = vec![
            "benchmark".to_string(),
            "phase".to_string(),
            "n".to_string(),
            "sim s".to_string(),
            "energy kJ".to_string(),
            "share %".to_string(),
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    r.phase.clone(),
                    r.count.to_string(),
                    f(r.sim_s, 0),
                    f(r.energy_j / 1e3, 1),
                    f(100.0 * r.share, 1),
                ]
            })
            .collect();
        write!(
            fmt,
            "{}",
            render_table(
                "Per-phase energy to solution (1 node, single execution)",
                &header,
                &rows
            )
        )
    }
}

impl PhaseEnergy {
    /// Machine-readable export.
    #[must_use]
    pub fn csv(&self) -> String {
        let mut out = String::from("benchmark,phase,count,sim_s,energy_j,share\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{:.3},{:.3},{:.4}\n",
                r.benchmark, r.phase, r.count, r.sim_s, r.energy_j, r.share
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_yields_one_paired_sample_per_repeat() {
        let bench = crate::benchmarks::b_hr105_hse();
        let ctx = StudyContext {
            repeats: 2,
            ..StudyContext::paper()
        };
        let base = capture(&bench, &baseline_cfg(), &ctx);
        assert_eq!(base.samples.len(), 2, "one sample per protocol repeat");
        let rep = base.aggregate.span(SAMPLE_SPAN).expect("repeat span aggregated");
        assert_eq!(rep.count, 2);
        for s in &base.samples {
            assert!(s.span("phase.scf_iter").is_some(), "repeat subtree has phases");
            assert!(s.counters.is_empty(), "subtree samples carry no counters");
        }
        assert!(
            base.aggregate.counters.contains_key("job.ops.gpu"),
            "whole-run aggregate keeps session counters: {:?}",
            base.aggregate.counters.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn capture_is_deterministic_where_the_sim_is() {
        let bench = crate::benchmarks::b_hr105_hse();
        let ctx = StudyContext {
            repeats: 2,
            ..StudyContext::paper()
        };
        let a = capture(&bench, &baseline_cfg(), &ctx);
        let b = capture(&bench, &baseline_cfg(), &ctx);
        for (sa, sb) in a.samples.iter().zip(&b.samples) {
            for (xa, xb) in sa.spans.iter().zip(&sb.spans) {
                assert_eq!(xa.name, xb.name);
                assert_eq!(xa.count, xb.count);
                assert!((xa.sim_s - xb.sim_s).abs() < 1e-12, "{}", xa.name);
                assert!((xa.energy_j - xb.energy_j).abs() < 1e-9, "{}", xa.name);
            }
        }
    }

    #[test]
    fn phase_energy_covers_the_suite_and_shares_sum_to_one() {
        let table = phase_energy(&StudyContext::quick());
        let names: Vec<String> = suite().iter().map(|b| b.name().to_string()).collect();
        for n in &names {
            let rows: Vec<_> = table.rows.iter().filter(|r| &r.benchmark == n).collect();
            assert!(rows.len() >= 2, "{n}: expected init + at least one work phase");
            let share: f64 = rows.iter().map(|r| r.share).sum();
            assert!((share - 1.0).abs() < 1e-9, "{n}: shares sum to {share}");
            assert!(rows.iter().all(|r| r.energy_j > 0.0 && r.sim_s > 0.0));
        }
        // The headline claim of the table: SCF/RPA work, not init,
        // dominates energy to solution everywhere.
        for n in &names {
            let init: f64 = table
                .rows
                .iter()
                .filter(|r| &r.benchmark == n && r.phase == "phase.init")
                .map(|r| r.share)
                .sum();
            assert!(init < 0.5, "{n}: init share {init}");
        }
    }
}
