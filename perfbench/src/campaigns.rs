//! `campaign_partitioned` and `campaign_site`: one op is one
//! `campaign::run` on one shard. Policies cycle uncapped → class_aware →
//! sweet_spot → tco_aware and op `i` runs campaign seed `seed + i`.
//!
//! * partitioned: 8000 jobs over 8 × 32 nodes, no site budget — the
//!   per-partition event-driven engine, demand derivation and span merge;
//! * site: 2000 jobs with the site budget at `CONTENTION_BUDGET_FRACTION`
//!   of the summed partition budgets — the global-backfill engine, which
//!   re-consults the policy for every pending job at every wake.

use crate::report::{median, Layers, Report, Window};
use crate::spans::{Scope, Tracer};
use crate::{alloc, timed_setups, traced_report, Config, Workload, DEFAULT_SEED, SETUPS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use vpp_powercap::campaign::{self, CampaignSpec, CONTENTION_BUDGET_FRACTION};
use vpp_powercap::policy::Uncapped;
use vpp_powercap::{site, BatchJob, CampaignOutcome, CapPolicy, PolicyCtx, SiteView, TcoPrices};

/// Jobs per op on the partitioned and the site workload.
const PARTITIONED_JOBS: usize = 8000;
const SITE_JOBS: usize = 2000;

/// The campaign of op `op` at workload seed `seed`.
#[must_use]
pub fn spec(site: bool, seed: u64, op: u64) -> CampaignSpec {
    let seed = seed.wrapping_add(op);
    if site {
        let base = CampaignSpec::new(SITE_JOBS, seed);
        CampaignSpec {
            site_budget_w: Some(CONTENTION_BUDGET_FRACTION * base.summed_budget_w()),
            ..base
        }
    } else {
        CampaignSpec::new(PARTITIONED_JOBS, seed)
    }
}

/// The policy of op `op` (and its table name).
#[must_use]
pub fn policy(op: u64) -> (&'static str, &'static dyn CapPolicy) {
    campaign::contention_policies()[(op % 4) as usize]
}

/// Wattlytics TCO of the campaign's jobs at their own default limits —
/// the figure tco_aware must not exceed on the same seed. Demand under
/// `Uncapped` ignores the site view, so this holds for both engines.
fn uncapped_tco(spec: &CampaignSpec) -> f64 {
    let sched = spec.scheduler();
    let slack = SiteView::slack();
    let jobs = spec.generate();
    let demand: Vec<(f64, f64)> = jobs
        .iter()
        .map(|j| sched.job_demand_with(j, &Uncapped, &slack))
        .collect();
    tco(&jobs, &demand)
}

/// The TCO sum `campaign::run` reports, from per-job demands.
fn tco(jobs: &[BatchJob], demand: &[(f64, f64)]) -> f64 {
    let prices = TcoPrices::default();
    jobs.iter()
        .zip(demand)
        .map(|(j, &(rt, p))| prices.job_cost_usd(j.nodes, rt, rt * p))
        .sum()
}

/// Output check of one op.
///
/// # Errors
/// A message naming the first broken invariant.
pub fn check(spec: &CampaignSpec, name: &str, out: &CampaignOutcome) -> Result<(), String> {
    let seed = spec.seed;
    if out.merged.job_spans.len() != spec.jobs {
        return Err(format!(
            "seed {seed} {name}: {} merged spans for {} jobs",
            out.merged.job_spans.len(),
            spec.jobs
        ));
    }
    match spec.site_budget_w {
        Some(budget) if out.merged.peak_power_w > budget => {
            return Err(format!(
                "seed {seed} {name}: peak {} W over the {budget} W site budget",
                out.merged.peak_power_w
            ))
        }
        None if out.backfilled != 0 => {
            return Err(format!(
                "seed {seed} {name}: {} jobs backfilled without a site budget",
                out.backfilled
            ))
        }
        _ => {}
    }
    if name == "tco_aware" {
        let base = uncapped_tco(spec);
        if out.tco_usd > base {
            return Err(format!(
                "seed {seed} tco_aware: ${} over uncapped ${base}",
                out.tco_usd
            ));
        }
    }
    Ok(())
}

/// A `CapPolicy` that counts how often the engines consult it.
struct Counted {
    inner: &'static dyn CapPolicy,
    calls: AtomicU64,
}

impl CapPolicy for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn cap_for(&self, job: &BatchJob, ctx: &PolicyCtx, site: &SiteView) -> Option<f64> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.cap_for(job, ctx, site)
    }
}

/// What one traced op measured besides its spans.
pub struct TracedOp {
    pub outcome: CampaignOutcome,
    pub cap_for_calls: u64,
    /// Whether the replay reproduced the public call's outputs.
    pub same: Result<(), String>,
}

/// One traced op: the public `campaign::run` (with a counting policy),
/// then the public calls it makes, replayed as its children.
#[must_use]
pub fn traced_op(spec: &CampaignSpec, op: u64, tracer: &Tracer) -> TracedOp {
    let (name, policy) = policy(op);
    let counted = Counted {
        inner: policy,
        calls: AtomicU64::new(0),
    };
    let (outcome, parent) = tracer.time("powercap.run", op, None, || {
        campaign::run(spec, &counted, 1)
    });
    let s = Scope { tracer, op, parent };
    let jobs = s.call("powercap.generate", || spec.generate());
    let (spans, demand, backfilled) = if spec.site_budget_w.is_some() {
        let sr = s.call("powercap.site_engine", || {
            site::run_site(spec, &jobs, policy)
        });
        (sr.outcome.job_spans, sr.demand, sr.backfilled)
    } else {
        let sched = spec.scheduler();
        let mut queues: Vec<Vec<BatchJob>> = vec![Vec::new(); spec.partitions];
        for j in &jobs {
            queues[(j.id % spec.partitions as u64) as usize].push(j.clone());
        }
        let mut spans: Vec<(u64, f64, f64)> = queues
            .iter()
            .flat_map(|q| {
                s.call("powercap.partition_engine", || sched.run_with(q, policy))
                    .job_spans
            })
            .collect();
        spans.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let slack = SiteView::slack();
        let demand = s.call("powercap.demand", || {
            jobs.iter()
                .map(|j| sched.job_demand_with(j, policy, &slack))
                .collect::<Vec<_>>()
        });
        (spans, demand, 0)
    };
    let same = if spans == outcome.merged.job_spans
        && backfilled == outcome.backfilled
        && tco(&jobs, &demand) == outcome.tco_usd
    {
        Ok(())
    } else {
        Err(format!(
            "seed {} {name}: replay differs from campaign::run",
            spec.seed
        ))
    };
    TracedOp {
        outcome,
        cap_for_calls: counted.calls.load(Ordering::Relaxed),
        same,
    }
}

/// Totals a traced window accumulates for the per-layer metrics.
#[derive(Default)]
struct Traced {
    ops: u64,
    cap_for_calls: u64,
    backfilled: u64,
}

/// Run whole policy cycles from op `next` until `window` has elapsed (at
/// least one); returns the next unused op index.
fn cycles(
    site: bool,
    seed: u64,
    mut next: u64,
    window: Duration,
    tracer: Option<&Tracer>,
    w: &mut Window,
    t: &mut Traced,
) -> u64 {
    let (mut cycle_s, mut peaks) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let mut busy = 0.0;
        for _ in 0..4 {
            let op = next;
            next += 1;
            let spec = spec(site, seed, op);
            let (name, policy) = policy(op);
            alloc::reset_peak();
            let t0 = Instant::now();
            let (outcome, same) = match tracer {
                None => (campaign::run(&spec, policy, 1), Ok(())),
                Some(tracer) => {
                    let r = traced_op(&spec, op, tracer);
                    t.ops += 1;
                    t.cap_for_calls += r.cap_for_calls;
                    t.backfilled += r.outcome.backfilled as u64;
                    (r.outcome, r.same)
                }
            };
            let secs = t0.elapsed().as_secs_f64();
            peaks.push(alloc::peak_bytes() as f64);
            busy += secs;
            w.latencies_ms.push(secs * 1e3);
            w.check(same.and(check(&spec, name, &outcome)));
        }
        cycle_s.push(busy);
        if start.elapsed() >= window {
            break;
        }
    }
    w.ops_per_s = 4.0 / median(&cycle_s);
    w.peak_heap_bytes = median(&peaks);
    next
}

/// The campaign_partitioned / campaign_site run.
#[must_use]
pub fn run(cfg: &Config) -> Report {
    let site = cfg.workload == Workload::CampaignSite;
    let setups = if cfg.trace { 1 } else { SETUPS };
    // The warm-up op is the same campaign on every seed: its cost varies
    // with the campaign, and set-up must measure the same work each run.
    let (setup_s, ()) = timed_setups(setups, || {
        let spec = spec(site, DEFAULT_SEED, 0);
        std::hint::black_box(campaign::run(&spec, policy(0).1, 1));
    });
    let mut plain = Window {
        setup_s,
        ..Window::default()
    };
    let mut unused = Traced::default();
    if !cfg.trace {
        cycles(
            site,
            cfg.seed,
            0,
            cfg.window(),
            None,
            &mut plain,
            &mut unused,
        );
        return Report::untraced(&plain);
    }
    let half = cfg.window() / 2;
    let next = cycles(site, cfg.seed, 0, half, None, &mut plain, &mut unused);
    let tracer = Tracer::default();
    let mut traced = Window::default();
    let mut t = Traced::default();
    cycles(
        site,
        cfg.seed,
        next,
        half,
        Some(&tracer),
        &mut traced,
        &mut t,
    );
    let ops = t.ops.max(1) as f64;
    let r = tracer.rollup();
    let calls = |n: &str| r.get(n).map_or(0.0, |x| x.calls as f64) / ops;
    let busy = |n: &str| r.get(n).map_or(0.0, |x| x.self_s) / ops;
    let mut l = Layers::default();
    l.set("powercap.generate.busy_s", busy("powercap.generate"));
    l.set("powercap.cap_for.calls", t.cap_for_calls as f64 / ops);
    l.set("powercap.demand.busy_s", busy("powercap.demand"));
    l.set(
        "powercap.partition_engine.calls",
        calls("powercap.partition_engine"),
    );
    l.set(
        "powercap.partition_engine.busy_s",
        busy("powercap.partition_engine"),
    );
    l.set("powercap.run.self_s", busy("powercap.run"));
    l.set("powercap.site_engine.busy_s", busy("powercap.site_engine"));
    l.set("powercap.backfilled", t.backfilled as f64 / ops);
    let report = traced_report(&plain, &traced, l);
    crate::write_spans(&tracer, cfg);
    report
}
