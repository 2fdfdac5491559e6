//! The execution & measurement protocol of §III-B.
//!
//! Each benchmark runs five times; the run with the minimum total runtime is
//! the representative (it has the least chance of landing on underperforming
//! hardware). Runs land on independently drawn nodes. Power series are
//! collected at the production LDMS cadence and summarised with the KDE
//! methodology.

use crate::benchmarks::Benchmark;
use vpp_cluster::{execute, JobSpec, NetworkModel};
use vpp_dft::{build_plan, CostModel, ParallelLayout, PhaseKind, ScfPlan};
use vpp_gpu::A100Spec;
use vpp_node::ComponentTraces;
use vpp_stats::PowerSummary;
use vpp_telemetry::{quarantine, DataQuality, QualityConfig, RawSeries, Sampler, TimeSeries};

/// Shared context for every experiment.
#[derive(Debug, Clone, Copy)]
pub struct StudyContext {
    pub network: NetworkModel,
    pub cost: CostModel,
    pub sampler: Sampler,
    /// Protocol repeats (the paper uses 5).
    pub repeats: usize,
    /// Base seed; repeat `i` of job `j` derives its fleet seed from this.
    pub base_seed: u64,
    /// Minimum telemetry coverage a measurement must reach before its
    /// summaries are trusted; below it the collection is re-run (bounded)
    /// and finally flagged — the §III-B.1 variant-node rule applied to
    /// the telemetry chain. The production 50 %-drop cadence sits near
    /// 0.5, so 0.35 passes normal collections and catches pathological
    /// ones.
    pub min_coverage: f64,
}

impl StudyContext {
    /// The configuration used throughout the reproduction.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            network: NetworkModel::perlmutter(),
            cost: CostModel::calibrated(),
            sampler: Sampler::ldms_production(),
            repeats: 5,
            base_seed: 0x5045_524c, // "PERL"
            min_coverage: 0.35,
        }
    }

    /// A faster context for tests/examples: 2 repeats.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            repeats: 2,
            ..Self::paper()
        }
    }

    /// Single-repeat context for micro-benchmarks.
    #[must_use]
    pub fn single() -> Self {
        Self {
            repeats: 1,
            ..Self::paper()
        }
    }
}

impl Default for StudyContext {
    fn default() -> Self {
        Self::paper()
    }
}

/// Check a user-supplied GPU power cap against the settable window of the
/// boards every node carries (`A100Spec::default()`: 100..=400 W, §V-A).
/// `what` names the input in the message, e.g. `'cap_w'` or `--cap`.
///
/// # Errors
/// `"{what} must be in 100..=400 W, got {cap_w}"` for a cap outside the
/// window, NaN and infinities included.
pub fn check_cap_w(what: &str, cap_w: f64) -> Result<f64, String> {
    let spec = A100Spec::default();
    let (lo, hi) = (spec.min_cap_w, spec.max_cap_w);
    if (lo..=hi).contains(&cap_w) {
        Ok(cap_w)
    } else {
        Err(format!("{what} must be in {lo}..={hi} W, got {cap_w}"))
    }
}

/// One measurement request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    pub nodes: usize,
    /// GPU power cap (None = default 400 W).
    pub cap_w: Option<f64>,
    /// Salt so distinct experiments draw distinct fleets.
    pub seed_salt: u64,
    /// Artificial slowdown injected into every repeat's jobs
    /// ([`JobSpec::phase_slowdown`]) — the regression fixture that
    /// `vpp trace diff` must rank as the culprit phase.
    pub perturb: Option<(PhaseKind, f64)>,
    /// Communication-side fixture ([`JobSpec::collective_slowdown`]):
    /// stretch every collective's network time so trace-diff triage can
    /// distinguish a communication regression from a compute one.
    pub perturb_collective: Option<f64>,
}

impl RunConfig {
    /// Uncapped run on `nodes` nodes.
    #[must_use]
    pub fn nodes(nodes: usize) -> Self {
        Self {
            nodes,
            cap_w: None,
            seed_salt: 0,
            perturb: None,
            perturb_collective: None,
        }
    }

    /// Capped run.
    #[must_use]
    pub fn capped(nodes: usize, cap_w: f64) -> Self {
        Self {
            cap_w: Some(cap_w),
            ..Self::nodes(nodes)
        }
    }

    /// This config with an injected phase slowdown.
    #[must_use]
    pub fn perturbed(mut self, phase: PhaseKind, factor: f64) -> Self {
        self.perturb = Some((phase, factor));
        self
    }

    /// This config with an injected collective/network slowdown.
    #[must_use]
    pub fn perturbed_collective(mut self, factor: f64) -> Self {
        self.perturb_collective = Some(factor);
        self
    }
}

/// The representative (min-runtime) measurement of a benchmark.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub nodes: usize,
    pub cap_w: Option<f64>,
    /// Runtime of the representative run, seconds.
    pub runtime_s: f64,
    /// Job spec of the representative run. A caller that needs its
    /// traces re-runs it: `execute(&plan_for(bench, m.nodes, ctx),
    /// &m.spec, &ctx.network)` reproduces the run bit for bit.
    pub spec: JobSpec,
    /// Node-0 total-power series at the production sampling rate.
    pub node_series: TimeSeries,
    /// KDE summary of the node-0 series.
    pub node_summary: PowerSummary,
    /// KDE summary of node-0 GPU-0.
    pub gpu_summary: PowerSummary,
    /// Energy-to-solution over all nodes, joules.
    pub energy_j: f64,
    /// Quality report of the node-0 series that passed the gate.
    pub node_quality: DataQuality,
    /// True when even re-collection could not reach
    /// [`StudyContext::min_coverage`] — treat the summaries as suspect,
    /// the way the paper discards variant-node runs.
    pub quality_flagged: bool,
}

/// Build the plan for a benchmark at a node count.
#[must_use]
pub fn plan_for(bench: &Benchmark, nodes: usize, ctx: &StudyContext) -> ScfPlan {
    build_plan(&bench.params(), &ParallelLayout::nodes(nodes), &ctx.cost)
}

/// The job spec of repeat `rep` of a measurement: a fresh fleet drawn
/// from the context's base seed, the config's salt and the repeat index.
#[must_use]
pub fn repeat_spec(cfg: &RunConfig, ctx: &StudyContext, rep: usize) -> JobSpec {
    JobSpec {
        nodes: cfg.nodes,
        gpu_power_cap_w: cfg.cap_w,
        seed: ctx
            .base_seed
            .wrapping_add(cfg.seed_salt.wrapping_mul(0x9E37_79B9))
            .wrapping_add(rep as u64 * 0x1000_0001),
        start_s: 0.0,
        init_host_s: 6.0,
        straggler: None,
        os_jitter: 0.0,
        phase_slowdown: cfg.perturb,
        collective_slowdown: cfg.perturb_collective,
    }
}

/// What `measure` keeps of one repeat while the others run: enough to
/// pick the fastest and sample it, not every node's traces.
struct Repeat {
    spec: JobSpec,
    runtime_s: f64,
    energy_j: f64,
    node0: ComponentTraces,
    span: Option<u64>,
}

/// A measurement stopped early because its cancellation check fired
/// (see [`measure_cancellable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Canceled;

/// Run the full protocol: `ctx.repeats` runs on fresh fleets, keep the
/// fastest, sample and summarise it.
///
/// # Panics
/// If the benchmark produces an empty plan or zero-length series.
#[must_use]
pub fn measure(bench: &Benchmark, cfg: &RunConfig, ctx: &StudyContext) -> Measured {
    match measure_cancellable(bench, cfg, ctx, &|| false) {
        Ok(m) => m,
        Err(Canceled) => unreachable!("the never-cancel check cannot fire"),
    }
}

/// [`measure`] with a cooperative cancellation check: `canceled` is
/// polled at the start of every repeat, and a `true` abandons the
/// measurement — remaining repeats are skipped and nothing is sampled or
/// summarised. This is the long-running service's cancel hook; the
/// checkpoints are repeat boundaries because a single repeat is the unit
/// of useful work (a partial fleet execution summarises nothing).
///
/// # Errors
/// [`Canceled`] when the check fired before every repeat completed.
///
/// # Panics
/// If the benchmark produces an empty plan or zero-length series.
pub fn measure_cancellable(
    bench: &Benchmark,
    cfg: &RunConfig,
    ctx: &StudyContext,
    canceled: &(dyn Fn() -> bool + Sync),
) -> Result<Measured, Canceled> {
    let mut measure_span = vpp_substrate::span!(
        "protocol.measure",
        benchmark = bench.name(),
        nodes = cfg.nodes,
        repeats = ctx.repeats.max(1),
    );
    let plan = plan_for(bench, cfg.nodes, ctx);
    // Repeats are independent fleets — fan out on the substrate pool (runs
    // serially when a caller higher in the stack already holds the pool).
    // Each repeat carries its span id forward so the quality gate can
    // link any re-collection back to the measurement it rescued, and
    // keeps only node 0's traces: the other nodes' matter only through
    // the energy total, taken before they are dropped.
    let repeats: Vec<Option<Repeat>> =
        vpp_substrate::par_map((0..ctx.repeats.max(1)).collect(), |rep| {
            if canceled() {
                return None;
            }
            let mut rep_span = vpp_substrate::span!("protocol.repeat", rep = rep);
            let spec = repeat_spec(cfg, ctx, rep);
            let result = execute(&plan, &spec, &ctx.network);
            rep_span.record("runtime_s", result.runtime_s);
            let (runtime_s, energy_j) = (result.runtime_s, result.energy_j());
            let mut nodes = result.node_traces.into_iter();
            Some(Repeat {
                spec,
                runtime_s,
                energy_j,
                node0: nodes.next().expect("at least one node"),
                span: rep_span.id(),
            })
        });

    let mut completed = Vec::with_capacity(repeats.len());
    for r in repeats {
        match r {
            Some(done) => completed.push(done),
            None => {
                vpp_substrate::trace::counter("protocol.canceled", 1);
                measure_span.record("canceled", true);
                return Err(Canceled);
            }
        }
    }
    let best = completed
        .into_iter()
        .min_by(|a, b| a.runtime_s.total_cmp(&b.runtime_s))
        .expect("at least one repeat");

    // Short runs starve the production 2-s cadence; fall back to a
    // high-rate capture (the paper used 0.1-s collection for methodology
    // studies, and Fig. 2 shows rates ≤5 s are equivalent for the mode).
    let sampler = if best.runtime_s < 64.0 * ctx.sampler.interval_s {
        Sampler::ideal((best.runtime_s / 64.0).max(0.1))
    } else {
        ctx.sampler
    };

    // Quality gate (§III-B.1 applied to the telemetry chain): assess the
    // collection's coverage through the quarantine screen; below the
    // threshold, re-collect with fresh drop seeds, and only flag the
    // measurement when retries cannot rescue it. Stuck-run detection is
    // off — simulated traces have genuinely constant phases.
    let assess = |series: &TimeSeries, interval_s: f64| -> DataQuality {
        let cfg = QualityConfig::new(interval_s).without_stuck_detection();
        quarantine(&RawSeries::from_series(series), &cfg).quality
    };
    let mut active = sampler;
    let mut node_series = active.sample(&best.node0.node);
    let mut node_quality = assess(&node_series, active.interval_s);
    for attempt in 1..=2u64 {
        if node_quality.coverage >= ctx.min_coverage {
            break;
        }
        vpp_substrate::trace::counter("protocol.recollections", 1);
        // A span (not a mark) so the re-collection has its own duration
        // and can carry `link_span` — the id of the repeat whose
        // measurement it is rescuing. Quarantine forensics walk this
        // link from a flagged series back to the job that produced it.
        let mut rc_span = vpp_substrate::trace::SpanGuard::open("protocol.recollect", || {
            vec![
                ("attempt", attempt.into()),
                ("coverage", node_quality.coverage.into()),
            ]
        });
        if let Some(id) = best.span {
            rc_span.record("link_span", id);
        }
        active.seed = sampler.seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9));
        node_series = active.sample(&best.node0.node);
        node_quality = assess(&node_series, active.interval_s);
        rc_span.record("new_coverage", node_quality.coverage);
    }
    let quality_flagged = node_quality.coverage < ctx.min_coverage;
    if quality_flagged {
        vpp_substrate::trace::counter("protocol.quality_flagged", 1);
    }
    if quality_flagged && node_series.len() < 8 {
        // Pathological drop rates can starve the series entirely; a final
        // drop-free re-collection keeps the pipeline total, with the flag
        // recording that production telemetry never reached the bar.
        vpp_substrate::trace::counter("protocol.rescue_recollections", 1);
        let mut rescue_span =
            vpp_substrate::trace::SpanGuard::open("protocol.rescue_recollect", || {
                vec![("coverage", node_quality.coverage.into())]
            });
        if let Some(id) = best.span {
            rescue_span.record("link_span", id);
        }
        active = Sampler::ideal((best.runtime_s / 64.0).max(0.1));
        node_series = active.sample(&best.node0.node);
        node_quality = assess(&node_series, active.interval_s);
        rescue_span.record("new_coverage", node_quality.coverage);
    }
    vpp_substrate::trace::gauge("protocol.coverage", node_quality.coverage);
    let gpu_series = active.sample(&best.node0.gpus[0]);
    assert!(
        node_series.len() >= 8,
        "series too short to summarise ({} samples) — benchmark {} ran only {:.1}s",
        node_series.len(),
        bench.name(),
        best.runtime_s
    );

    measure_span.record("runtime_s", best.runtime_s);
    measure_span.record("energy_j", best.energy_j);
    measure_span.record("coverage", node_quality.coverage);
    measure_span.record("flagged", quality_flagged);

    Ok(Measured {
        name: bench.name().to_string(),
        nodes: cfg.nodes,
        cap_w: cfg.cap_w,
        runtime_s: best.runtime_s,
        spec: best.spec,
        energy_j: best.energy_j,
        node_summary: PowerSummary::from_samples(node_series.values()),
        gpu_summary: PowerSummary::from_samples(gpu_series.values()),
        node_series,
        node_quality,
        quality_flagged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn measure_produces_consistent_summaries() {
        let bench = benchmarks::b_hr105_hse(); // smallest/fastest benchmark
        let m = measure(&bench, &RunConfig::nodes(1), &StudyContext::quick());
        assert_eq!(m.nodes, 1);
        assert!(m.runtime_s > 10.0, "runtime {}", m.runtime_s);
        assert!(m.energy_j > 0.0);
        assert!(m.node_summary.high_mode_w > 400.0, "{:?}", m.node_summary);
        assert!(m.node_summary.high_mode_w < 2350.0);
        assert!(m.gpu_summary.high_mode_w <= 400.0 * 1.2);
    }

    #[test]
    fn min_runtime_selection_beats_mean() {
        let bench = benchmarks::b_hr105_hse();
        let ctx = StudyContext::quick();
        let m = measure(&bench, &RunConfig::nodes(1), &ctx);
        // Re-run each repeat individually: representative must be the min.
        let plan = plan_for(&bench, 1, &ctx);
        let mut runtimes = Vec::new();
        for rep in 0..ctx.repeats {
            let spec = repeat_spec(&RunConfig::nodes(1), &ctx, rep);
            runtimes.push(execute(&plan, &spec, &ctx.network).runtime_s);
        }
        let min = runtimes.iter().copied().fold(f64::INFINITY, f64::min);
        assert!((m.runtime_s - min).abs() < 1e-9);
    }

    #[test]
    fn rerunning_the_kept_spec_reproduces_the_representative_run() {
        let bench = benchmarks::b_hr105_hse();
        let ctx = StudyContext::quick();
        for cfg in [
            RunConfig::nodes(1),
            RunConfig::capped(2, 200.0),
            RunConfig::nodes(1).perturbed(vpp_dft::PhaseKind::ScfIter, 1.5),
        ] {
            let m = measure(&bench, &cfg, &ctx);
            let plan = plan_for(&bench, m.nodes, &ctx);
            let rerun = execute(&plan, &m.spec, &ctx.network);
            assert_eq!(rerun.runtime_s.to_bits(), m.runtime_s.to_bits(), "{cfg:?}");
            assert_eq!(rerun.energy_j().to_bits(), m.energy_j.to_bits(), "{cfg:?}");
        }
    }

    #[test]
    fn healthy_collection_passes_the_quality_gate() {
        let bench = benchmarks::b_hr105_hse();
        let m = measure(&bench, &RunConfig::nodes(1), &StudyContext::quick());
        assert!(!m.quality_flagged, "{:?}", m.node_quality);
        assert!(m.node_quality.coverage >= 0.35, "{:?}", m.node_quality);
        assert_eq!(m.node_quality.n_kept, m.node_series.len());
    }

    #[test]
    fn unreachable_coverage_threshold_flags_instead_of_panicking() {
        let bench = benchmarks::b_hr105_hse();
        let mut ctx = StudyContext::quick();
        // 70 % drops can never reach 90 % coverage: the gate must retry,
        // give up, and flag — not panic.
        ctx.sampler = Sampler::new(0.25, 0.7, 0xBAD);
        ctx.min_coverage = 0.9;
        let m = measure(&bench, &RunConfig::nodes(1), &ctx);
        assert!(m.quality_flagged);
        assert!(m.node_quality.coverage < 0.9, "{:?}", m.node_quality);
        assert!(m.node_summary.high_mode_w > 400.0, "summaries still usable");
    }

    #[test]
    fn total_sample_loss_is_rescued_by_recollection() {
        let bench = benchmarks::b_hr105_hse();
        let mut ctx = StudyContext::quick();
        // drop_prob == 1.0 starves the series completely; the gate's final
        // drop-free re-collection keeps the pipeline total.
        ctx.sampler = Sampler::new(0.25, 1.0, 3);
        let m = measure(&bench, &RunConfig::nodes(1), &ctx);
        assert!(m.quality_flagged, "production telemetry never reached the bar");
        assert!(m.node_series.len() >= 8);
        assert!(m.node_quality.coverage > 0.9, "rescue is drop-free");
    }

    #[test]
    fn recollections_are_spans_linked_to_the_rescued_repeat() {
        let bench = benchmarks::b_hr105_hse();
        let mut ctx = StudyContext::quick();
        ctx.sampler = Sampler::new(0.25, 0.7, 0xBAD);
        ctx.min_coverage = 0.9; // unreachable: forces re-collections

        // Repeats inline, on the thread the session is bound to.
        let session = vpp_substrate::trace::session(1 << 20);
        let m = vpp_substrate::pool::serial(|| measure(&bench, &RunConfig::nodes(1), &ctx));
        let report = session.finish();
        assert!(m.quality_flagged);
        assert_eq!(report.counters["protocol.recollections"], 2);

        let spans = report.spans();
        let recollects: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "protocol.recollect")
            .collect();
        assert_eq!(recollects.len(), 2, "both retries must be spans");
        // Every re-collection links to the repeat whose measurement it
        // rescued: the one that produced the representative runtime.
        let best_rep = spans
            .iter()
            .find(|s| {
                s.name == "protocol.repeat"
                    && s.field_f64("runtime_s")
                        .is_some_and(|r| (r - m.runtime_s).abs() < 1e-12)
            })
            .expect("the representative repeat span");
        for rc in &recollects {
            assert_eq!(
                rc.field_f64("link_span"),
                Some(best_rep.id as f64),
                "re-collection must link the rescued measurement"
            );
            assert!(rc.field_f64("attempt").is_some());
            assert!(rc.field_f64("new_coverage").is_some());
            assert!(rc.duration_ns().is_some(), "re-collection must close");
        }
        // The final coverage is exported as a gauge for scrapers.
        assert!(report.gauges["protocol.coverage"] < 0.9);
    }

    #[test]
    fn cancellation_stops_between_repeats() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let bench = benchmarks::b_hr105_hse();
        let ctx = StudyContext::quick(); // 2 repeats
        // Run serially so the repeat order (and thus the check count) is
        // deterministic: the first repeat passes its check, the second
        // sees the flag and abandons the measurement.
        let checks = AtomicUsize::new(0);
        let out = vpp_substrate::pool::serial(|| {
            measure_cancellable(&bench, &RunConfig::nodes(1), &ctx, &|| {
                checks.fetch_add(1, Ordering::SeqCst) >= 1
            })
        });
        assert!(matches!(out, Err(Canceled)), "second repeat must cancel");
        assert_eq!(checks.load(Ordering::SeqCst), 2, "one check per repeat");
        // A check that never fires is exactly `measure`.
        let ok = measure_cancellable(&bench, &RunConfig::nodes(1), &ctx, &|| false)
            .expect("nothing canceled");
        assert!(ok.runtime_s > 10.0);
    }

    #[test]
    fn perturbed_config_slows_only_the_target_phase() {
        let bench = benchmarks::b_hr105_hse();
        let ctx = StudyContext::single();
        let base = measure(&bench, &RunConfig::nodes(1), &ctx);
        let cfg = RunConfig::nodes(1).perturbed(vpp_dft::PhaseKind::ScfIter, 1.5);
        let slow = measure(&bench, &cfg, &ctx);
        assert!(slow.runtime_s > base.runtime_s * 1.1);
        let again = measure(&bench, &cfg, &ctx);
        assert_eq!(slow.runtime_s, again.runtime_s, "injection is deterministic");
    }

    #[test]
    fn capped_measure_is_slower_or_equal() {
        let bench = benchmarks::si256_hse();
        let ctx = StudyContext::quick();
        let base = measure(&bench, &RunConfig::nodes(1), &ctx);
        let capped = measure(&bench, &RunConfig::capped(1, 200.0), &ctx);
        assert!(capped.runtime_s >= base.runtime_s * 0.999);
        assert!(capped.gpu_summary.high_mode_w <= 210.0);
    }
}
