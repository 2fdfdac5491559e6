//! Campaign-scale scheduling: thousands of heterogeneous VASP jobs over a
//! partitioned machine, simulated shard-parallel with deterministic
//! merging.
//!
//! The ROADMAP's north star is datacenter-scale what-if studies: run the
//! same synthetic workload under competing cap policies (Wattlytics-style)
//! and compare throughput, energy to solution, dollar cost and
//! cap-induced slowdown at the campaign level. This module supplies:
//!
//! * [`CampaignSpec`] — a seeded generator of heterogeneous [`BatchJob`]s
//!   (mixed methods → workload classes, sizes, KPAR, jittered cap-response
//!   curves, bursty arrivals), routed round-robin over machine partitions.
//! * [`run`] — the campaign simulator behind any [`CapPolicy`]. With no
//!   site budget, partitions are independent event-driven DES runs
//!   ([`Scheduler::run_with`]) fanned out over the `vpp_substrate` pool in
//!   shards and merged deterministically. With `site_budget_w` set, the
//!   partitions couple through a [`crate::site::SiteBudget`] ledger and
//!   run as one global-backfill event loop ([`crate::site::run_site`]).
//!   Both paths run the scheduler's one event loop, and either way the
//!   merged [`ScheduleOutcome`] is byte-identical for any `shards >= 1`
//!   (the campaign determinism tests pin both paths).
//! * [`CampaignOutcome`] — campaign-level outputs: merged spans, exact
//!   system peak power, throughput, energy-to-solution, the Wattlytics
//!   TCO objective in dollars, and slowdown distributions (raw per-job
//!   samples retained for [`CampaignOutcome::slowdown_violin`]).
//! * The pinned trace-baseline recipe ([`baseline_spec`] /
//!   [`baseline_body`]), which `vpp trace accept campaign` and `vpp trace
//!   diff campaign` capture with `TraceBaseline::capture`, and the `repro
//!   campaign_contention` section ([`contention_report`]).

use crate::policy::{CapPolicy, ClassAware, SweetSpot, TcoAware, TcoPrices, Uncapped};
use crate::scheduler::{BatchJob, CapResponse, ScheduleOutcome, Scheduler, WorkloadClass};
use crate::site::{self, SiteBudget, SiteRun};
use std::fmt;
use vpp_stats::ViolinStats;
use vpp_substrate::json::Value;
use vpp_substrate::{par_map, span, trace, Rng};

/// Shape of a synthetic campaign: how many jobs, over what machine.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Master seed; every job derives its own stream from it.
    pub seed: u64,
    /// Machine partitions (each with its own node pool and power budget);
    /// jobs are routed round-robin by id — their *home* partition, which
    /// is also where they run unless a site budget enables backfill.
    pub partitions: usize,
    /// Nodes per partition.
    pub nodes_per_partition: usize,
    /// Power budget per partition, watts.
    pub partition_budget_w: f64,
    /// Arrivals spread over this window, seconds (a fraction of the queue
    /// is backlogged at t = 0).
    pub arrival_window_s: f64,
    /// Site-wide power budget, watts. `None` leaves the partitions
    /// independent (each capped by `partition_budget_w` alone); `Some`
    /// couples them through one [`crate::site::SiteBudget`] ledger and
    /// turns on cross-partition backfill.
    pub site_budget_w: Option<f64>,
}

impl CampaignSpec {
    /// A campaign of `jobs` seeded jobs over the default machine shape:
    /// 8 partitions × 32 nodes with a 40 kW budget each, no site budget.
    #[must_use]
    pub fn new(jobs: usize, seed: u64) -> Self {
        Self {
            jobs,
            seed,
            partitions: 8,
            nodes_per_partition: 32,
            partition_budget_w: 40_000.0,
            arrival_window_s: 4.0 * 3600.0,
            site_budget_w: None,
        }
    }

    /// The per-partition scheduler this campaign runs on.
    #[must_use]
    pub fn scheduler(&self) -> Scheduler {
        Scheduler::new(self.nodes_per_partition, self.partition_budget_w)
    }

    /// Summed partition budgets, watts — the site's uncoupled envelope.
    #[must_use]
    pub fn summed_budget_w(&self) -> f64 {
        self.partitions as f64 * self.partition_budget_w
    }

    /// Generate the job mix deterministically: each job forks its own RNG
    /// stream from the master seed, so the mix is independent of iteration
    /// or shard order.
    #[must_use]
    pub fn generate(&self) -> Vec<BatchJob> {
        let master = Rng::new(self.seed);
        (0..self.jobs as u64)
            .map(|id| {
                let mut rng = master.fork(id);
                synth_job(&mut rng, id, self)
            })
            .collect()
    }
}

/// Draw one heterogeneous job: method mix → workload class, KPAR, a
/// small-skewed node count and a jittered per-class cap-response curve.
fn synth_job(rng: &mut Rng, id: u64, spec: &CampaignSpec) -> BatchJob {
    // Method mix loosely following the paper's workload survey: mostly
    // standard DFT, a strong HSE/RPA minority, some k-point-bound small
    // jobs, and a tail the classifier cannot place.
    let (method, class) = match rng.f64() {
        x if x < 0.30 => ("hse", WorkloadClass::PowerHungry),
        x if x < 0.42 => ("rpa", WorkloadClass::PowerHungry),
        x if x < 0.75 => ("pbe", WorkloadClass::Moderate),
        x if x < 0.90 => ("kpt", WorkloadClass::Light),
        _ => ("mix", WorkloadClass::Unknown),
    };
    let kpar = [1usize, 2, 4, 8][rng.index(4)];
    // Runtimes are lognormal (most jobs minutes-to-hours, a heavy tail);
    // KPAR buys parallel speedup at ~85 % efficiency.
    let serial_runtime = rng.lognormal(1800.0_f64.ln(), 0.7).clamp(120.0, 21_600.0);
    let base_runtime_s = serial_runtime / (kpar as f64).powf(0.85);
    let response = synth_response(rng, class);
    // Small jobs dominate; KPAR widens the natural node count. Sizes are
    // clamped to what the partition can host *and* power uncapped, so
    // every generated job is admissible under every policy.
    let base_nodes = [1, 1, 1, 2, 2, 3, 4, 6, 8][rng.index(9)];
    let powerable = (spec.partition_budget_w / response.uncapped().1).floor() as usize;
    let nodes = (base_nodes * kpar.div_ceil(2))
        .min(spec.nodes_per_partition)
        .min(powerable)
        .max(1);
    let arrival_s = if rng.bool(0.3) {
        0.0 // backlogged at campaign start
    } else {
        rng.uniform(0.0, spec.arrival_window_s)
    };
    BatchJob {
        id,
        name: format!("{method}-k{kpar}-{id}"),
        class,
        nodes,
        base_runtime_s,
        response,
        arrival_s,
    }
}

/// A jittered per-class cap-response curve on the A100's 100–400 W range.
fn synth_response(rng: &mut Rng, class: WorkloadClass) -> CapResponse {
    // (perf fractions, node powers) at caps 100/200/300/400 W.
    let (perf, power): ([f64; 4], [f64; 4]) = match class {
        WorkloadClass::PowerHungry => ([0.40, 0.91, 1.00, 1.00], [900.0, 1300.0, 1750.0, 1810.0]),
        WorkloadClass::Moderate => ([0.55, 0.95, 1.00, 1.00], [750.0, 1100.0, 1400.0, 1450.0]),
        WorkloadClass::Light => ([0.96, 1.00, 1.00, 1.00], [720.0, 760.0, 764.0, 766.0]),
        WorkloadClass::Unknown => ([0.70, 0.93, 1.00, 1.00], [800.0, 1150.0, 1500.0, 1550.0]),
    };
    let power_scale = rng.uniform(0.9, 1.1);
    let points = [100.0, 200.0, 300.0, 400.0]
        .iter()
        .zip(perf.iter().zip(power.iter()))
        .map(|(&cap, (&p, &w))| {
            let p = (p * rng.uniform(0.97, 1.03)).clamp(0.05, 1.0);
            (cap, p, w * power_scale)
        })
        .collect();
    CapResponse::new(points)
}

/// Five-number-plus-mean summary of a per-job metric distribution.
///
/// An empty job set has no statistics: every field is NaN (checkable via
/// [`Distribution::is_empty`]) and [`Distribution::to_json`] serialises
/// it as nulls — previously it reported `p50: 0.0`, indistinguishable
/// from a campaign whose jobs really all scored zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Distribution {
    pub min: f64,
    pub p10: f64,
    pub p50: f64,
    pub p90: f64,
    pub max: f64,
    pub mean: f64,
}

impl Distribution {
    /// Summarise `values`; an empty input yields the all-NaN sentinel.
    ///
    /// Quantiles come from [`vpp_stats::describe::quantile`], whose contract —
    /// panic on an empty slice — is exactly why the empty case must be
    /// screened here rather than mapped to zeros (consistency pinned in
    /// `empty_distributions_are_nan_not_zero`).
    #[must_use]
    pub fn summarise(values: Vec<f64>) -> Self {
        if values.is_empty() {
            return Self {
                min: f64::NAN,
                p10: f64::NAN,
                p50: f64::NAN,
                p90: f64::NAN,
                max: f64::NAN,
                mean: f64::NAN,
            };
        }
        Self {
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            p10: vpp_stats::describe::quantile(&values, 0.10),
            p50: vpp_stats::describe::quantile(&values, 0.50),
            p90: vpp_stats::describe::quantile(&values, 0.90),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mean: values.iter().sum::<f64>() / values.len() as f64,
        }
    }

    /// True for the summary of an empty job set (all fields NaN).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.p50.is_nan()
    }

    /// JSON document; NaN fields (the empty sentinel) become `null`,
    /// which is also the only encoding `Value` can give NaN.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let field = |x: f64| if x.is_nan() { Value::Null } else { Value::Num(x) };
        Value::Obj(vec![
            ("min".to_string(), field(self.min)),
            ("p10".to_string(), field(self.p10)),
            ("p50".to_string(), field(self.p50)),
            ("p90".to_string(), field(self.p90)),
            ("max".to_string(), field(self.max)),
            ("mean".to_string(), field(self.mean)),
        ])
    }
}

/// Campaign-level result: the merged schedule plus the distributions the
/// what-if comparison actually reads.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// Jobs simulated.
    pub jobs: usize,
    /// Per-partition outcomes merged deterministically: spans k-way merged
    /// by `(start, id)`, peak from an exact event sweep across partitions,
    /// mean power energy-weighted over the campaign makespan.
    pub merged: ScheduleOutcome,
    /// Total energy to solution across all jobs, joules.
    pub total_energy_j: f64,
    /// Per-job energy to solution, joules.
    pub energy_j: Distribution,
    /// Per-job cap-induced slowdown (runtime under the policy relative to
    /// the job's own uncapped runtime; 1.0 = no slowdown).
    pub slowdown: Distribution,
    /// The raw per-job slowdown samples behind [`CampaignOutcome::slowdown`],
    /// in job-id order — the input to [`CampaignOutcome::slowdown_violin`].
    pub slowdown_samples: Vec<f64>,
    /// The Wattlytics TCO objective at [`TcoPrices::default`]: energy
    /// dollars plus node-hour dollars summed over all jobs.
    pub tco_usd: f64,
    /// Jobs that started away from their home partition (always 0 without
    /// a site budget: independent partitions cannot backfill).
    pub backfilled: usize,
}

impl CampaignOutcome {
    /// Jobs completed per hour of campaign makespan.
    #[must_use]
    pub fn throughput_per_hour(&self) -> f64 {
        self.merged.throughput_per_hour()
    }

    /// Violin summary (quartiles + KDE outline) of the per-job slowdowns.
    ///
    /// # Panics
    /// If the campaign had no jobs or `n_outline < 2`
    /// ([`ViolinStats::from_samples`]'s contract).
    #[must_use]
    pub fn slowdown_violin(&self, n_outline: usize) -> ViolinStats {
        ViolinStats::from_samples(&self.slowdown_samples, n_outline)
    }
}

/// Run the campaign under `policy` with `shards` parallel work units.
///
/// Without a site budget, jobs run on their home partition
/// (`id % partitions`) and each partition is an independent
/// [`Scheduler::run_with`] DES; shards group partitions into contiguous
/// chunks executed over the substrate pool. With `site_budget_w` set the
/// partitions share one watts ledger and the campaign runs as a single
/// global-backfill event loop ([`crate::site::run_site`]). In both modes
/// the shard count affects wall-clock only, never the outcome: the
/// independent path merges by `(start, id)`, the coupled path is a pure
/// function of `(spec, policy)`. The policy is asked once per job.
///
/// # Panics
/// If `shards == 0`, or a generated job cannot fit its partition (see
/// [`Scheduler::job_demand_with`]; impossible with the default machine
/// shape), or the site budget is too tight for some job to ever start.
#[must_use]
pub fn run(spec: &CampaignSpec, policy: &dyn CapPolicy, shards: usize) -> CampaignOutcome {
    assert!(shards > 0, "need at least one shard");
    let jobs = spec.generate();
    trace::counter("campaign.jobs", jobs.len() as u64);

    if spec.site_budget_w.is_some() {
        let SiteRun {
            outcome,
            demand,
            backfilled,
            ..
        } = site::run_site(spec, &jobs, policy);
        return summarise(spec, &jobs, &demand, vec![outcome], backfilled);
    }

    // Fan contiguous chunks of partitions out over the pool; flattening
    // restores partition order, so the result is independent of the chunk
    // width.
    let sched = spec.scheduler();
    let queues = route(spec, &jobs);
    let chunk = spec.partitions.div_ceil(shards);
    let chunks: Vec<(usize, &[Vec<BatchJob>])> = queues.chunks(chunk).enumerate().collect();
    let runs: Vec<SiteRun> = par_map(chunks, |(c, chunk_queues)| {
        chunk_queues
            .iter()
            .enumerate()
            .map(|(k, queue)| {
                let _g = span!(
                    "campaign.partition",
                    partition = (c * chunk + k) as u64,
                    jobs = queue.len() as u64
                );
                sched.simulate(1, SiteBudget::unbounded(), queue, policy)
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();

    let mut demand = vec![(f64::NAN, f64::NAN); jobs.len()];
    for (queue, run) in queues.iter().zip(&runs) {
        for (job, &d) in queue.iter().zip(&run.demand) {
            demand[job.id as usize] = d;
        }
    }
    let outcomes = runs.into_iter().map(|r| r.outcome).collect();
    summarise(spec, &jobs, &demand, outcomes, 0)
}

/// Route jobs to their home partitions in submission order.
fn route(spec: &CampaignSpec, jobs: &[BatchJob]) -> Vec<Vec<BatchJob>> {
    let mut queues: Vec<Vec<BatchJob>> = (0..spec.partitions).map(|_| Vec::new()).collect();
    for j in jobs {
        queues[(j.id % spec.partitions as u64) as usize].push(j.clone());
    }
    queues
}

/// Merge outcomes and derive the campaign distributions from the per-job
/// `(runtime, power)` demands the engine actually ran. Takes the outcomes
/// by value so their span lists are freed (or, for one outcome, reused)
/// before the peak sweep allocates.
fn summarise(
    spec: &CampaignSpec,
    jobs: &[BatchJob],
    demand: &[(f64, f64)],
    outcomes: Vec<ScheduleOutcome>,
    backfilled: usize,
) -> CampaignOutcome {
    // Mean system power over the campaign: partition power-time integrals
    // stacked over the shared [0, makespan] window.
    let integral: f64 = outcomes.iter().map(|o| o.mean_power_w * o.makespan_s).sum();
    let spans = merge_spans(outcomes);
    let makespan = spans.iter().map(|s| s.2).fold(0.0, f64::max);

    // Exact system peak: sweep start/finish edges across all partitions;
    // at equal timestamps finishes land before starts, matching the
    // retire-then-admit order inside each scheduler wake. Jobs are
    // id-dense (0..n), so `demand` is indexable by id.
    let mut edges: Vec<(f64, u8, f64)> = Vec::with_capacity(spans.len() * 2);
    for &(id, start, finish) in &spans {
        let power = demand[id as usize].1;
        edges.push((finish, 0, -power));
        edges.push((start, 1, power));
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut load, mut peak) = (0.0f64, 0.0f64);
    for (_, _, dp) in edges {
        load += dp;
        peak = peak.max(load);
    }

    let merged = ScheduleOutcome {
        makespan_s: makespan,
        job_spans: spans,
        peak_power_w: peak,
        mean_power_w: if makespan > 0.0 { integral / makespan } else { 0.0 },
    };

    let prices = TcoPrices::default();
    let energies: Vec<f64> = demand.iter().map(|&(rt, p)| rt * p).collect();
    let tco_usd: f64 = jobs
        .iter()
        .zip(demand)
        .map(|(j, &(rt, p))| prices.job_cost_usd(j.nodes, rt, rt * p))
        .sum();
    let slowdowns: Vec<f64> = jobs
        .iter()
        .zip(demand)
        .map(|(j, &(rt, _))| rt / (j.base_runtime_s / j.response.uncapped().0))
        .collect();
    CampaignOutcome {
        jobs: spec.jobs,
        merged,
        total_energy_j: energies.iter().sum(),
        energy_j: Distribution::summarise(energies),
        slowdown: Distribution::summarise(slowdowns.clone()),
        slowdown_samples: slowdowns,
        tco_usd,
        backfilled,
    }
}

/// Deterministic k-way merge of per-partition span lists by `(start, id)`
/// — each input list is already sorted that way, so a cursor scan yields
/// the globally sorted sequence without re-sorting.
fn merge_spans(mut outcomes: Vec<ScheduleOutcome>) -> Vec<(u64, f64, f64)> {
    if outcomes.len() == 1 {
        return outcomes.pop().expect("one outcome").job_spans;
    }
    let mut cursors = vec![0usize; outcomes.len()];
    let total: usize = outcomes.iter().map(|o| o.job_spans.len()).sum();
    let mut merged = Vec::with_capacity(total);
    for _ in 0..total {
        let mut best: Option<(usize, (u64, f64, f64))> = None;
        for (k, o) in outcomes.iter().enumerate() {
            if let Some(&span) = o.job_spans.get(cursors[k]) {
                let better = match best {
                    None => true,
                    Some((_, b)) => (span.1, span.0) < (b.1, b.0),
                };
                if better {
                    best = Some((k, span));
                }
            }
        }
        let (k, span) = best.expect("cursor accounting is exact");
        cursors[k] += 1;
        merged.push(span);
    }
    merged
}

// ---------------------------------------------------------------------------
// Pinned trace-baseline recipe (`vpp trace diff campaign`)
// ---------------------------------------------------------------------------

/// Baseline entry name in the `trace_baselines` group.
pub const BASELINE_NAME: &str = "campaign";

/// Span whose subtrees become the per-repeat baseline samples.
pub const SAMPLE_SPAN: &str = "campaign.run";

/// Repeats in the pinned recipe (matches the protocol baselines).
pub const BASELINE_REPEATS: usize = 3;

/// The pinned campaign the baseline measures: modest but heterogeneous,
/// so re-runs stay cheap while still driving every policy's hot path.
#[must_use]
pub fn baseline_spec() -> CampaignSpec {
    CampaignSpec {
        partitions: 4,
        ..CampaignSpec::new(300, 7)
    }
}

/// The headline policy trio every campaign comparison runs.
#[must_use]
pub fn baseline_policies() -> [(&'static str, &'static dyn CapPolicy); 3] {
    [
        ("uncapped", &Uncapped),
        ("class_aware", &ClassAware),
        ("sweet_spot", &SweetSpot),
    ]
}

/// The baseline body: [`BASELINE_REPEATS`] wrapped `campaign.run` spans,
/// each covering the policy trio with per-policy sim-time and energy
/// fields. Runs under whatever trace session the caller holds; under
/// `TraceBaseline::capture` the partitions run inline, so each repeat's
/// `campaign.partition` spans nest under its `campaign.run`.
pub fn baseline_body() {
    let spec = baseline_spec();
    for rep in 0..BASELINE_REPEATS as u64 {
        let _g = span!("campaign.run", rep = rep);
        for (name, policy) in baseline_policies() {
            let mut g = span!("campaign.policy", sim_t0 = 0.0);
            let out = run(&spec, policy, spec.partitions);
            g.record("policy", name);
            g.record("sim_t1", out.merged.makespan_s);
            g.record("energy_j", out.total_energy_j);
        }
    }
}

// ---------------------------------------------------------------------------
// `repro campaign_contention`: policies under a tight site budget
// ---------------------------------------------------------------------------

/// Site budget of the contention study, as a fraction of the summed
/// partition budgets (the acceptance scenario: 60 %).
pub const CONTENTION_BUDGET_FRACTION: f64 = 0.6;

/// Outline points per slowdown violin in the contention report.
pub const CONTENTION_VIOLIN_POINTS: usize = 40;

/// The pinned contention campaign: the default machine throttled to
/// [`CONTENTION_BUDGET_FRACTION`] of its summed partition budgets.
#[must_use]
pub fn contention_spec() -> CampaignSpec {
    let base = CampaignSpec::new(1200, 7);
    CampaignSpec {
        site_budget_w: Some(CONTENTION_BUDGET_FRACTION * base.summed_budget_w()),
        ..base
    }
}

/// The trio plus [`TcoAware`] — the comparison the contention table runs.
#[must_use]
pub fn contention_policies() -> [(&'static str, &'static dyn CapPolicy); 4] {
    [
        ("uncapped", &Uncapped),
        ("class_aware", &ClassAware),
        ("sweet_spot", &SweetSpot),
        ("tco_aware", &TcoAware::DEFAULT),
    ]
}

/// One policy's row of the contention study.
#[derive(Debug, Clone)]
pub struct ContentionRow {
    pub policy: &'static str,
    pub outcome: CampaignOutcome,
    pub violin: ViolinStats,
}

/// The `repro campaign_contention` section: the policy comparison table
/// plus per-policy slowdown violins under the tight site budget.
#[derive(Debug, Clone)]
pub struct ContentionReport {
    pub spec: CampaignSpec,
    pub rows: Vec<ContentionRow>,
}

/// Run the pinned contention study.
#[must_use]
pub fn contention_report() -> ContentionReport {
    let spec = contention_spec();
    let rows = contention_policies()
        .into_iter()
        .map(|(name, policy)| {
            let outcome = run(&spec, policy, spec.partitions);
            let violin = outcome.slowdown_violin(CONTENTION_VIOLIN_POINTS);
            ContentionRow {
                policy: name,
                outcome,
                violin,
            }
        })
        .collect();
    ContentionReport { spec, rows }
}

/// Render a violin outline as an ASCII density strip (low→high x), one
/// character per outline point.
fn render_outline(outline: &[(f64, f64)]) -> String {
    const LEVELS: &[u8] = b" .:-=+*#%@";
    let peak = outline.iter().map(|&(_, y)| y).fold(0.0f64, f64::max);
    outline
        .iter()
        .map(|&(_, y)| {
            let level = if peak > 0.0 {
                ((y / peak) * (LEVELS.len() - 1) as f64).round() as usize
            } else {
                0
            };
            LEVELS[level.min(LEVELS.len() - 1)] as char
        })
        .collect()
}

impl fmt::Display for ContentionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let budget = self.spec.site_budget_w.unwrap_or(f64::INFINITY);
        writeln!(
            f,
            "== campaign_contention: cap policies negotiating one site budget =="
        )?;
        writeln!(
            f,
            "campaign : {} jobs, seed {}, {} partitions x {} nodes ({:.0} kW each)",
            self.spec.jobs,
            self.spec.seed,
            self.spec.partitions,
            self.spec.nodes_per_partition,
            self.spec.partition_budget_w / 1e3,
        )?;
        writeln!(
            f,
            "site     : {:.1} kW budget ({:.0} % of the {:.0} kW summed envelope), global backfill on",
            budget / 1e3,
            100.0 * budget / self.spec.summed_budget_w(),
            self.spec.summed_budget_w() / 1e3,
        )?;
        writeln!(f)?;
        writeln!(
            f,
            "{:<12} {:>7} {:>9} {:>8} {:>8} {:>10} {:>9} {:>9} {:>9} {:>9}",
            "policy",
            "jobs/h",
            "makespan",
            "peak kW",
            "mean kW",
            "energy MJ",
            "tco $",
            "slow p50",
            "slow p90",
            "backfill"
        )?;
        for r in &self.rows {
            let o = &r.outcome;
            writeln!(
                f,
                "{:<12} {:>7.1} {:>8.2}h {:>8.1} {:>8.1} {:>10.1} {:>9.2} {:>9.3} {:>9.3} {:>9}",
                r.policy,
                o.throughput_per_hour(),
                o.merged.makespan_s / 3600.0,
                o.merged.peak_power_w / 1e3,
                o.merged.mean_power_w / 1e3,
                o.total_energy_j / 1e6,
                o.tco_usd,
                o.slowdown.p50,
                o.slowdown.p90,
                o.backfilled
            )?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "slowdown violins (min [q1 < median < q3] max; {}-point KDE outline, modes):",
            CONTENTION_VIOLIN_POINTS
        )?;
        for r in &self.rows {
            let v = &r.violin;
            writeln!(
                f,
                "{:<12} {:>5.3} [{:.3} < {:.3} < {:.3}] {:>5.3}  |{}|  {}",
                r.policy,
                v.min,
                v.q1,
                v.median,
                v.q3,
                v.max,
                render_outline(&v.outline),
                v.outline_mode_count()
            )?;
        }
        Ok(())
    }
}

impl ContentionReport {
    /// Machine-readable form: one row per policy.
    #[must_use]
    pub fn csv(&self) -> String {
        let mut out = String::from(
            "policy,jobs_per_hour,makespan_s,peak_kw,mean_kw,energy_mj,tco_usd,\
             slow_min,slow_q1,slow_p50,slow_q3,slow_p90,slow_max,backfilled,violin_modes\n",
        );
        for r in &self.rows {
            let o = &r.outcome;
            out.push_str(&format!(
                "{},{:.3},{:.1},{:.3},{:.3},{:.3},{:.2},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{},{}\n",
                r.policy,
                o.throughput_per_hour(),
                o.merged.makespan_s,
                o.merged.peak_power_w / 1e3,
                o.merged.mean_power_w / 1e3,
                o.total_energy_j / 1e6,
                o.tco_usd,
                r.violin.min,
                r.violin.q1,
                o.slowdown.p50,
                r.violin.q3,
                o.slowdown.p90,
                r.violin.max,
                o.backfilled,
                r.violin.outline_mode_count()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpp_substrate::bench::TraceBaseline;

    #[test]
    fn generation_is_seed_deterministic_and_heterogeneous() {
        let spec = CampaignSpec::new(200, 11);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        let classes: std::collections::HashSet<_> = a.iter().map(|j| j.class).collect();
        assert!(classes.len() >= 3, "job mix too uniform: {classes:?}");
        let nodes: std::collections::HashSet<_> = a.iter().map(|j| j.nodes).collect();
        assert!(nodes.len() >= 3, "sizes too uniform: {nodes:?}");
        assert!(a.iter().all(|j| j.nodes <= spec.nodes_per_partition));
        assert!(a.iter().any(|j| j.arrival_s == 0.0), "some backlog at t=0");
        // A different seed moves the mix.
        assert_ne!(CampaignSpec::new(200, 12).generate(), a);
    }

    #[test]
    fn campaign_runs_every_job_exactly_once() {
        let spec = CampaignSpec {
            partitions: 3,
            ..CampaignSpec::new(120, 5)
        };
        let out = run(&spec, &ClassAware, 2);
        assert_eq!(out.merged.job_spans.len(), 120);
        let mut ids: Vec<u64> = out.merged.job_spans.iter().map(|s| s.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..120).collect::<Vec<u64>>());
        // Merge order: (start, id) ascending.
        for w in out.merged.job_spans.windows(2) {
            assert!((w[0].1, w[0].0) <= (w[1].1, w[1].0));
        }
        assert!(out.merged.makespan_s > 0.0);
        assert!(out.total_energy_j > 0.0);
        assert!(out.energy_j.min > 0.0 && out.energy_j.min <= out.energy_j.max);
        assert_eq!(out.backfilled, 0, "no site budget, no backfill");
    }

    #[test]
    fn peak_respects_the_summed_partition_budgets() {
        let spec = CampaignSpec {
            partitions: 4,
            ..CampaignSpec::new(300, 7)
        };
        let out = run(&spec, &Uncapped, 4);
        assert!(out.merged.peak_power_w <= spec.summed_budget_w() + 1e-6);
        // The campaign peak can exceed any single partition's budget.
        assert!(out.merged.peak_power_w > 0.0);
    }

    #[test]
    fn site_budget_bounds_the_peak_and_backfills() {
        let spec = CampaignSpec {
            site_budget_w: Some(0.6 * 4.0 * 40_000.0),
            partitions: 4,
            ..CampaignSpec::new(300, 7)
        };
        let out = run(&spec, &Uncapped, spec.partitions);
        assert!(
            out.merged.peak_power_w <= spec.site_budget_w.unwrap() + 1e-6,
            "peak {} exceeds the site budget",
            out.merged.peak_power_w
        );
        assert_eq!(out.merged.job_spans.len(), 300, "every job still finishes");
        assert!(out.backfilled > 0, "a contended site must backfill some jobs");
        // Tighter envelope than the uncoupled machine: the same workload
        // cannot finish faster.
        let free = run(&reference_free_spec(), &Uncapped, spec.partitions);
        assert!(out.merged.makespan_s >= free.merged.makespan_s - 1e-9);
    }

    #[test]
    fn site_engine_schedules_and_delivers_each_job_once() {
        let spec = CampaignSpec {
            site_budget_w: Some(0.6 * 4.0 * 40_000.0),
            partitions: 4,
            ..CampaignSpec::new(300, 7)
        };
        for (name, policy) in contention_policies() {
            let session = trace::session(1 << 12);
            let out = run(&spec, policy, spec.partitions);
            let report = session.finish();
            assert!(out.backfilled > 0, "{name}: the site engine ran contended");
            for counter in ["des.scheduled", "des.delivered"] {
                assert_eq!(report.counters.get(counter), Some(&300), "{name}: {counter}");
            }
        }
    }

    fn reference_free_spec() -> CampaignSpec {
        CampaignSpec {
            partitions: 4,
            ..CampaignSpec::new(300, 7)
        }
    }

    #[test]
    fn tco_aware_beats_uncapped_on_the_tco_objective() {
        let spec = contention_spec();
        let tco = run(&spec, &TcoAware::DEFAULT, spec.partitions);
        let base = run(&spec, &Uncapped, spec.partitions);
        assert!(
            tco.tco_usd < base.tco_usd,
            "TcoAware ${} !< Uncapped ${}",
            tco.tco_usd,
            base.tco_usd
        );
    }

    #[test]
    fn sweet_spot_cuts_campaign_energy_but_not_for_free() {
        let spec = baseline_spec();
        let base = run(&spec, &Uncapped, spec.partitions);
        let sweet = run(&spec, &SweetSpot, spec.partitions);
        assert!(sweet.total_energy_j < base.total_energy_j);
        assert!(sweet.slowdown.p50 >= base.slowdown.p50);
        assert!((base.slowdown.p50 - 1.0).abs() < 1e-9, "uncapped has no slowdown");
    }

    #[test]
    fn distribution_summary_matches_hand_computation() {
        let d = Distribution::summarise(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.max, 4.0);
        assert!((d.p50 - 2.5).abs() < 1e-12);
        assert!((d.mean - 2.5).abs() < 1e-12);
        assert!(!d.is_empty());
        // Quantiles delegate to the shared vpp_stats implementation.
        assert_eq!(d.p10, vpp_stats::describe::quantile(&[1.0, 2.0, 3.0, 4.0], 0.10));
    }

    #[test]
    fn empty_distributions_are_nan_not_zero() {
        let empty = Distribution::summarise(Vec::new());
        assert!(empty.is_empty());
        for x in [empty.min, empty.p10, empty.p50, empty.p90, empty.max, empty.mean] {
            assert!(x.is_nan(), "empty stats must be unrepresentable as data");
        }
        // ...and the JSON form is nulls, never a fake zero.
        let doc = empty.to_json();
        assert_eq!(doc.get("p50"), Some(&Value::Null));
        assert_eq!(doc.get("mean"), Some(&Value::Null));
        let real = Distribution::summarise(vec![0.0, 0.0]).to_json();
        assert_eq!(real.get("p50"), Some(&Value::Num(0.0)), "true zeros stay numeric");
        // The screened-out case is exactly vpp_stats::describe::quantile's panic
        // contract — the two layers agree that empty has no quantiles.
        let panics = std::panic::catch_unwind(|| vpp_stats::describe::quantile(&[], 0.5));
        assert!(panics.is_err(), "quantile must reject empty slices");
    }

    #[test]
    fn baseline_capture_yields_one_sample_per_repeat() {
        let base = TraceBaseline::capture(SAMPLE_SPAN, baseline_body);
        assert_eq!(base.samples.len(), BASELINE_REPEATS);
        let runs = base.aggregate.span(SAMPLE_SPAN).expect("campaign.run aggregated");
        assert_eq!(runs.count, BASELINE_REPEATS as u64);
        let policies = baseline_policies().len() as u64;
        for s in &base.samples {
            let pol = s.span("campaign.policy").expect("policy spans nested");
            assert_eq!(pol.count, policies);
            assert!(pol.sim_s > 0.0, "policy spans carry sim time");
            assert!(pol.energy_j > 0.0, "policy spans carry energy");
            // Every policy's partitions run inside the repeat's subtree.
            let parts = s.span("campaign.partition").expect("partition spans nested");
            assert_eq!(parts.count, policies * baseline_spec().partitions as u64);
        }
        assert!(
            base.aggregate.counters.contains_key("des.scheduled"),
            "DES hot-path counters guard the new engine: {:?}",
            base.aggregate.counters.keys().collect::<Vec<_>>()
        );
    }
}
