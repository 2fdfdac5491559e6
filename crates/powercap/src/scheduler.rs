//! The power-aware batch scheduler of §VI.
//!
//! The paper's proposal: the batch system knows each queued job's workload
//! class (cheap to determine from its input), applies a 50 %-TDP GPU power
//! cap to the classes that tolerate it with <10 % slowdown, and reallocates
//! the spared power to admit more jobs under the site's power budget —
//! deciding once per ~30-second scheduling cycle.
//!
//! ## Simulation engine
//!
//! One event loop serves every scheduling path: [`Scheduler::run_with`]
//! runs it over one partition with an unbounded site ledger, and
//! [`crate::site::run_site`] over N partitions sharing one
//! [`SiteBudget`] with global backfill. Job finishes live in the running
//! set itself, beside a cached earliest finish, and the full admission
//! pass (retire finished jobs, re-derive free nodes/power, scan the
//! waiting jobs) runs only at wakes where the admission state can
//! actually change — a finish is due or a queued job's arrival has
//! passed. Cycle boundaries in between cost O(1): the held system power
//! is integrated over the interval and the clock steps on. Admission
//! itself stays quantised to the paper's cycle boundaries, so the
//! event-driven engine reproduces the superseded fixed-cycle polling loop
//! *exactly*; that loop is kept as a test oracle and a property test
//! demands `ScheduleOutcome` equality (spans, peak, integral) between the
//! two on random queues.

use crate::policy::{CapPolicy, PolicyCtx, SiteView};
use crate::site::{SiteBudget, SiteRun};
use vpp_substrate::trace;

/// Workload classes the scheduler can recognise from job inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Higher-order methods (HSE, RPA): power-hungry, cap-sensitive.
    PowerHungry,
    /// Basic DFT: moderate power, tolerates deep caps.
    Moderate,
    /// Small / k-point-bound jobs: low power, cap-insensitive.
    Light,
    /// Not classifiable — leave at the default limit.
    Unknown,
}

/// A job's measured response to GPU power caps: `(cap, perf, node power)`
/// points sorted by cap, linearly interpolated between points.
#[derive(Debug, Clone, PartialEq)]
pub struct CapResponse {
    points: Vec<(f64, f64, f64)>,
}

impl CapResponse {
    /// Build from `(cap_w, perf_fraction, node_power_w)` points.
    ///
    /// # Panics
    /// If fewer than one point, caps are not strictly increasing, or any
    /// value is non-finite/non-positive.
    #[must_use]
    pub fn new(points: Vec<(f64, f64, f64)>) -> Self {
        assert!(!points.is_empty(), "need at least one response point");
        assert!(
            points.windows(2).all(|w| w[0].0 < w[1].0),
            "caps must be strictly increasing"
        );
        for &(c, p, w) in &points {
            assert!(c > 0.0 && p > 0.0 && w > 0.0, "bad point ({c}, {p}, {w})");
            assert!(c.is_finite() && p.is_finite() && w.is_finite());
        }
        Self { points }
    }

    fn interp(&self, cap_w: f64, f: impl Fn(&(f64, f64, f64)) -> f64) -> f64 {
        let pts = &self.points;
        if cap_w <= pts[0].0 {
            return f(&pts[0]);
        }
        if cap_w >= pts[pts.len() - 1].0 {
            return f(&pts[pts.len() - 1]);
        }
        let i = pts.partition_point(|p| p.0 <= cap_w);
        let (a, b) = (&pts[i - 1], &pts[i]);
        let t = (cap_w - a.0) / (b.0 - a.0);
        f(a) * (1.0 - t) + f(b) * t
    }

    /// Performance fraction (1 = uncapped speed) at a cap.
    #[must_use]
    pub fn perf_at(&self, cap_w: f64) -> f64 {
        self.interp(cap_w, |p| p.1)
    }

    /// Node power draw at a cap, watts.
    #[must_use]
    pub fn power_at(&self, cap_w: f64) -> f64 {
        self.interp(cap_w, |p| p.2)
    }

    /// Deepest cap whose performance loss stays within `max_loss`
    /// (the paper's rule: 50 % TDP costs <10 % for most VASP workloads).
    /// Scans the measured caps from deepest to shallowest.
    #[must_use]
    pub fn recommended_cap(&self, max_loss: f64) -> f64 {
        for &(c, p, _) in &self.points {
            if p >= 1.0 - max_loss {
                return c;
            }
        }
        self.points[self.points.len() - 1].0
    }

    /// The highest measured cap — the job's default power limit (TDP of
    /// its support). "Uncapped" operation means running here, not at any
    /// hardwired site-wide constant.
    #[must_use]
    pub fn max_cap(&self) -> f64 {
        self.points[self.points.len() - 1].0
    }

    /// Performance fraction and node power at the default (uncapped)
    /// limit, i.e. at [`Self::max_cap`].
    #[must_use]
    pub fn uncapped(&self) -> (f64, f64) {
        let p = &self.points[self.points.len() - 1];
        (p.1, p.2)
    }

    /// The measured `(cap_w, perf_fraction, node_power_w)` points, caps
    /// strictly increasing. Policies that optimise over the support (e.g.
    /// the TCO objective) scan these rather than re-sampling the
    /// interpolant.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64, f64)] {
        &self.points
    }

    /// The energy-optimal cap (Afzal et al.'s sweet spot): the measured
    /// cap minimising node energy per unit of work, `power / perf`.
    /// Ties break towards the higher cap (less throttling risk).
    #[must_use]
    pub fn sweet_spot_cap(&self) -> f64 {
        let mut best = (f64::INFINITY, 0.0);
        for &(c, p, w) in &self.points {
            let joules_per_work = w / p;
            if joules_per_work <= best.0 {
                best = (joules_per_work, c);
            }
        }
        best.1
    }
}

/// One queued batch job.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchJob {
    pub id: u64,
    pub name: String,
    pub class: WorkloadClass,
    pub nodes: usize,
    /// Runtime at the default power limit, seconds.
    pub base_runtime_s: f64,
    pub response: CapResponse,
    /// Submission time, seconds (0 = queued from the start).
    pub arrival_s: f64,
}

/// Result of a schedule simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOutcome {
    /// Time until the last job finishes, seconds.
    pub makespan_s: f64,
    /// `(job id, start, finish)` in start order.
    pub job_spans: Vec<(u64, f64, f64)>,
    /// Peak simultaneous system power, watts.
    pub peak_power_w: f64,
    /// Mean system power while any job ran, watts.
    pub mean_power_w: f64,
}

impl ScheduleOutcome {
    /// Jobs completed per hour of makespan.
    #[must_use]
    pub fn throughput_per_hour(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.job_spans.len() as f64 * 3600.0 / self.makespan_s
    }
}

/// The power-aware scheduler: fixed node count, fixed system power budget,
/// FIFO with power/node backfill, decisions each cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheduler {
    pub total_nodes: usize,
    /// System power budget for these nodes, watts.
    pub power_budget_w: f64,
    /// Scheduling cycle, seconds (paper: ~30 s).
    pub cycle_s: f64,
    /// Acceptable slowdown for ClassAware capping.
    pub max_loss: f64,
}

impl Scheduler {
    /// A scheduler over `total_nodes` nodes with the given budget.
    #[must_use]
    pub fn new(total_nodes: usize, power_budget_w: f64) -> Self {
        assert!(total_nodes > 0 && power_budget_w > 0.0);
        Self {
            total_nodes,
            power_budget_w,
            cycle_s: 30.0,
            max_loss: 0.10,
        }
    }

    /// Effective runtime (seconds) and whole-job power draw (watts) for
    /// `job` under `policy`, which decides the cap while observing `site`.
    /// Uncapped jobs run at the top of their own measured support
    /// ([`CapResponse::uncapped`]), not at a hardwired site constant.
    ///
    /// # Panics
    /// If the job needs more nodes than the system has, or its power
    /// demand alone exceeds the budget (it could never start).
    #[must_use]
    pub fn job_demand_with(
        &self,
        job: &BatchJob,
        policy: &dyn CapPolicy,
        site: &SiteView,
    ) -> (f64, f64) {
        assert!(
            job.nodes <= self.total_nodes,
            "job {} wants {} of {} nodes",
            job.id,
            job.nodes,
            self.total_nodes
        );
        let (perf, node_power) = match policy.cap_for(job, &self.policy_ctx(), site) {
            Some(c) => (job.response.perf_at(c), job.response.power_at(c)),
            None => job.response.uncapped(),
        };
        let power = node_power * job.nodes as f64;
        assert!(
            power <= self.power_budget_w,
            "job {} alone exceeds the power budget",
            job.id
        );
        (job.base_runtime_s / perf, power)
    }

    /// The context trait-based policies evaluate under.
    #[must_use]
    pub fn policy_ctx(&self) -> PolicyCtx {
        PolicyCtx {
            max_loss: self.max_loss,
        }
    }

    /// Simulate the queue under `policy` on this one partition, with no
    /// site ledger to share.
    ///
    /// # Panics
    /// As [`Scheduler::job_demand_with`], for any job in the queue.
    #[must_use]
    pub fn run_with(&self, queue: &[BatchJob], policy: &dyn CapPolicy) -> ScheduleOutcome {
        self.simulate(1, SiteBudget::unbounded(), queue, policy)
            .outcome
    }

    /// The event loop behind every scheduling path: `queue` over
    /// `partitions` copies of this scheduler's partition, coupled through
    /// the `site` ledger.
    ///
    /// Each job's home partition is `id % partitions`; a job that does not
    /// fit at home may start on any partition with free nodes and free
    /// partition watts (probed `(home + k) % partitions`), provided the
    /// ledger has room. The policy is asked once per job, at the first
    /// admission wake at or after its arrival, with the live
    /// [`SiteView`]. Waiting jobs are offered admission in queue order.
    ///
    /// # Panics
    /// As [`Scheduler::job_demand_with`], for any job in the queue, or if a
    /// job can never start under the site ledger (the engine detects the
    /// stall rather than spinning).
    pub(crate) fn simulate(
        &self,
        partitions: usize,
        mut site: SiteBudget,
        queue: &[BatchJob],
        policy: &dyn CapPolicy,
    ) -> SiteRun {
        assert!(partitions > 0, "need at least one partition");
        let (nodes_cap, watts_cap) = (self.total_nodes, self.power_budget_w + 1e-9);
        // Arrival order: indices by (arrival, submission order). A cursor
        // walks it forward as arrivals pass, giving O(1) access to the
        // next arrival that could change the admission state.
        let mut arrival_order: Vec<usize> = (0..queue.len()).collect();
        arrival_order.sort_by(|&a, &b| queue[a].arrival_s.total_cmp(&queue[b].arrival_s));
        let mut cursor = 0usize;

        let mut demand = vec![(f64::NAN, f64::NAN); queue.len()];
        let mut placement = vec![usize::MAX; queue.len()];
        let mut backfilled = 0usize;
        // Arrived jobs that have not started, in queue order, and the
        // smallest demand of any job arrived so far.
        let mut waiting: Vec<Waiting> = Vec::new();
        let mut min_w = f64::INFINITY;
        let mut running: Vec<Running> = Vec::new();
        // The earliest finish in `running` (infinite when it is empty):
        // re-folded over the survivors at each retire pass and lowered at
        // each admission, so a wake costs no scan of the running set.
        let mut next_finish = f64::INFINITY;
        let mut used_nodes = vec![0usize; partitions];
        let mut used_w = vec![0.0f64; partitions];
        let mut spans: Vec<(u64, f64, f64)> = Vec::with_capacity(queue.len());
        let mut t = 0.0;
        let mut peak = 0.0f64;
        let mut power_time_integral = 0.0;
        let mut last_t = 0.0;
        // System power, re-derived only at admission wakes; between them
        // the running set is constant, so the cached value stays exact.
        let mut used_power = 0.0f64;
        let mut admit = true; // t = 0 is always an admission wake

        loop {
            if admit {
                // Retire due finishes; the survivors hold the next one.
                next_finish = f64::INFINITY;
                running.retain(|r| {
                    if r.finish <= t + 1e-9 {
                        spans.push((r.id, r.start, r.finish));
                        site.release(r.power_w);
                        trace::counter("des.delivered", 1);
                        false
                    } else {
                        next_finish = next_finish.min(r.finish);
                        true
                    }
                });

                while cursor < arrival_order.len()
                    && queue[arrival_order[cursor]].arrival_s <= t + 1e-9
                {
                    let qi = arrival_order[cursor];
                    cursor += 1;
                    let job = &queue[qi];
                    demand[qi] = self.job_demand_with(job, policy, &site.view());
                    let power_w = demand[qi].1;
                    min_w = min_w.min(power_w);
                    let waiter = Waiting {
                        qi,
                        home: (job.id % partitions as u64) as usize,
                        nodes: job.nodes,
                        power_w,
                    };
                    waiting.insert(waiting.partition_point(|w| w.qi < qi), waiter);
                }

                // Re-derive each partition's load by the polling oracle's
                // left-to-right sums over the running set, keeping the
                // arithmetic — and so every boundary-case admission
                // decision — bit-identical.
                used_nodes.fill(0);
                used_w.fill(0.0);
                for r in &running {
                    used_nodes[r.partition] += r.nodes;
                    used_w[r.partition] += r.power_w;
                }

                // No waiting job demands less than `min_w`, and float
                // addition is monotone: once nothing can host `min_w`,
                // nothing later in the pass can start either.
                let room = |used_nodes: &[usize], used_w: &[f64], site: &SiteBudget| {
                    site.fits(min_w)
                        && (0..partitions)
                            .any(|p| used_nodes[p] < nodes_cap && used_w[p] + min_w <= watts_cap)
                };
                let (mut kept, mut scan) = (0, 0);
                let mut open = room(&used_nodes, &used_w, &site);
                while open && scan < waiting.len() {
                    let w = waiting[scan];
                    scan += 1;
                    let host = if site.fits(w.power_w) {
                        (w.home..w.home + partitions)
                            .map(|p| if p < partitions { p } else { p - partitions })
                            .find(|&p| {
                                used_nodes[p] + w.nodes <= nodes_cap
                                    && used_w[p] + w.power_w <= watts_cap
                            })
                    } else {
                        None
                    };
                    let Some(p) = host else {
                        waiting[kept] = w;
                        kept += 1;
                        continue;
                    };
                    used_nodes[p] += w.nodes;
                    used_w[p] += w.power_w;
                    site.commit(w.power_w);
                    open = room(&used_nodes, &used_w, &site);
                    placement[w.qi] = p;
                    backfilled += usize::from(p != w.home);
                    let (id, finish) = (queue[w.qi].id, t + demand[w.qi].0);
                    assert!(
                        finish.is_finite() && finish >= t,
                        "job {id} finishes at {finish}, not a finite time from its start {t}"
                    );
                    next_finish = next_finish.min(finish);
                    trace::counter("des.scheduled", 1);
                    running.push(Running {
                        id,
                        start: t,
                        finish,
                        nodes: w.nodes,
                        power_w: w.power_w,
                        partition: p,
                    });
                }
                waiting.drain(kept..scan);
                used_power = used_w.iter().sum();
            }

            peak = peak.max(used_power);
            power_time_integral += used_power * (t - last_t).max(0.0);
            last_t = t;

            if waiting.is_empty() && running.is_empty() && cursor == arrival_order.len() {
                break;
            }

            // Advance: next cycle boundary, next finish, or — when idle —
            // the next arrival, whichever comes first.
            debug_assert_eq!(
                next_finish,
                running.iter().map(|r| r.finish).fold(f64::INFINITY, f64::min),
                "the cached earliest finish disagrees with the running set"
            );
            let next_arrival = arrival_order
                .get(cursor)
                .map_or(f64::INFINITY, |&qi| queue[qi].arrival_s);
            assert!(
                !running.is_empty() || next_arrival.is_finite(),
                "scheduler stalled: {} job(s) can never start under the \
                 partition/site budgets",
                waiting.len()
            );
            let mut next = t + self.cycle_s;
            if next_finish < next {
                next = next_finish;
            }
            if running.is_empty() && next_arrival > next {
                next = next_arrival;
            }
            t = next;
            admit = next_finish <= t + 1e-9 || next_arrival <= t + 1e-9;
        }

        SiteRun {
            outcome: finalise(spans, peak, power_time_integral),
            demand,
            placement,
            backfilled,
        }
    }
}

struct Running {
    id: u64,
    start: f64,
    finish: f64,
    nodes: usize,
    power_w: f64,
    partition: usize,
}

/// An arrived job that has not started, with what the admission pass
/// reads, so the pass scans one compact array.
#[derive(Clone, Copy)]
struct Waiting {
    qi: usize,
    home: usize,
    nodes: usize,
    power_w: f64,
}

/// Sort spans, derive the makespan and assemble the outcome — shared by
/// the event-driven engine and the polling oracle so the summary
/// arithmetic cannot drift between them.
fn finalise(
    mut spans: Vec<(u64, f64, f64)>,
    peak: f64,
    power_time_integral: f64,
) -> ScheduleOutcome {
    spans.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let makespan = spans.iter().map(|s| s.2).fold(0.0, f64::max);
    ScheduleOutcome {
        makespan_s: makespan,
        mean_power_w: if makespan > 0.0 {
            power_time_integral / makespan
        } else {
            0.0
        },
        peak_power_w: peak,
        job_spans: spans,
    }
}

#[cfg(test)]
mod reference {
    //! The superseded fixed-cycle polling engine, kept as the oracle for
    //! [`Scheduler::run_with`]: a property test runs both on random queues
    //! and demands identical [`ScheduleOutcome`]s — admission order,
    //! spans, peak and integral.

    use super::{finalise, BatchJob, Running, ScheduleOutcome, Scheduler};
    use crate::policy::{CapPolicy, SiteView};

    /// Simulate the queue under `policy` with the original polling loop:
    /// every wake rescans `running` and `pending` in full.
    pub fn run_polling(
        sched: &Scheduler,
        queue: &[BatchJob],
        policy: &dyn CapPolicy,
    ) -> ScheduleOutcome {
        let demands: Vec<(f64, f64)> = queue
            .iter()
            .map(|j| sched.job_demand_with(j, policy, &SiteView::slack()))
            .collect();

        let mut pending: Vec<usize> = (0..queue.len()).collect();
        let mut running: Vec<Running> = Vec::new();
        let mut spans: Vec<(u64, f64, f64)> = Vec::new();
        let mut t = 0.0;
        let mut peak = 0.0f64;
        let mut power_time_integral = 0.0;
        let mut last_t = 0.0;

        while !pending.is_empty() || !running.is_empty() {
            // Retire finished jobs.
            running.retain(|r| {
                if r.finish <= t + 1e-9 {
                    spans.push((r.id, r.start, r.finish));
                    false
                } else {
                    true
                }
            });

            // FIFO admission with backfill: start every *arrived* queued
            // job that fits in free nodes and free power this cycle.
            let mut used_nodes: usize = running.iter().map(|r| r.nodes).sum();
            let mut used_power: f64 = running.iter().map(|r| r.power_w).sum();
            pending.retain(|&qi| {
                let job = &queue[qi];
                let (runtime, power) = demands[qi];
                if job.arrival_s <= t + 1e-9
                    && used_nodes + job.nodes <= sched.total_nodes
                    && used_power + power <= sched.power_budget_w + 1e-9
                {
                    used_nodes += job.nodes;
                    used_power += power;
                    running.push(Running {
                        id: job.id,
                        start: t,
                        finish: t + runtime,
                        nodes: job.nodes,
                        power_w: power,
                        partition: 0,
                    });
                    false
                } else {
                    true
                }
            });

            peak = peak.max(used_power);
            power_time_integral += used_power * (t - last_t).max(0.0);
            last_t = t;

            if pending.is_empty() && running.is_empty() {
                break;
            }

            // Advance: next cycle boundary, next finish, or — when idle —
            // the next arrival, whichever comes first.
            let next_finish = running
                .iter()
                .map(|r| r.finish)
                .fold(f64::INFINITY, f64::min);
            let next_arrival = pending
                .iter()
                .map(|&qi| queue[qi].arrival_s)
                .fold(f64::INFINITY, f64::min);
            let mut next = t + sched.cycle_s;
            if next_finish < next {
                next = next_finish;
            }
            if running.is_empty() && next_arrival > next {
                next = next_arrival;
            }
            t = next;
            assert!(t.is_finite(), "scheduler stalled: no running jobs advance");
        }

        // Account for the last stretch.
        power_time_integral +=
            running.iter().map(|r| r.power_w).sum::<f64>() * (t - last_t).max(0.0);

        finalise(spans, peak, power_time_integral)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ClassAware, FixedCap, SweetSpot, TcoAware, Uncapped};
    use vpp_substrate::prop::usize_in;
    use vpp_substrate::Rng;

    /// A VASP-like cap response: 300 W free, 200 W ≈ 9 % loss, 100 W dire.
    fn hungry_response() -> CapResponse {
        CapResponse::new(vec![
            (100.0, 0.40, 900.0),
            (200.0, 0.91, 1300.0),
            (300.0, 1.00, 1750.0),
            (400.0, 1.00, 1810.0),
        ])
    }

    /// A light job: caps barely matter.
    fn light_response() -> CapResponse {
        CapResponse::new(vec![
            (100.0, 0.96, 720.0),
            (200.0, 1.00, 760.0),
            (400.0, 1.00, 766.0),
        ])
    }

    fn job(id: u64, class: WorkloadClass, nodes: usize, rt: f64) -> BatchJob {
        BatchJob {
            id,
            name: format!("job{id}"),
            class,
            nodes,
            base_runtime_s: rt,
            response: match class {
                WorkloadClass::PowerHungry => hungry_response(),
                _ => light_response(),
            },
            arrival_s: 0.0,
        }
    }

    #[test]
    fn cap_response_interpolates() {
        let r = hungry_response();
        assert!((r.perf_at(250.0) - 0.955).abs() < 1e-9);
        assert!((r.power_at(150.0) - 1100.0).abs() < 1e-9);
        assert_eq!(r.perf_at(50.0), 0.40, "clamps below");
        assert_eq!(r.power_at(500.0), 1810.0, "clamps above");
    }

    #[test]
    fn recommended_cap_respects_loss_budget() {
        assert_eq!(hungry_response().recommended_cap(0.10), 200.0);
        assert_eq!(hungry_response().recommended_cap(0.005), 300.0);
        assert_eq!(light_response().recommended_cap(0.10), 100.0);
    }

    #[test]
    fn uncapped_demand_comes_from_the_response_support() {
        // A response whose support tops out at 350 W, not the old
        // hardwired 400 W: uncapped jobs must run at *their* TDP.
        let r = CapResponse::new(vec![(100.0, 0.5, 800.0), (350.0, 1.0, 1500.0)]);
        assert_eq!(r.max_cap(), 350.0);
        assert_eq!(r.uncapped(), (1.0, 1500.0));
        let s = Scheduler::new(4, 10_000.0);
        let mut j = job(1, WorkloadClass::Unknown, 2, 100.0);
        j.response = r;
        let (runtime, power) = s.job_demand_with(&j, &Uncapped, &SiteView::slack());
        assert!((runtime - 100.0).abs() < 1e-12);
        assert!((power - 3000.0).abs() < 1e-12);
    }

    #[test]
    fn sweet_spot_picks_the_energy_minimum() {
        // hungry: J-per-work 2250 / 1428.6 / 1750 / 1810 -> 200 W.
        assert_eq!(hungry_response().sweet_spot_cap(), 200.0);
        // light: 750 / 760 / 766 -> deepest cap already optimal.
        assert_eq!(light_response().sweet_spot_cap(), 100.0);
    }

    #[test]
    fn sweet_spot_policy_trades_time_for_energy() {
        let s = Scheduler::new(16, 1.0e6);
        let queue: Vec<BatchJob> = (0..4)
            .map(|i| job(i, WorkloadClass::PowerHungry, 1, 600.0))
            .collect();
        let base = s.run_with(&queue, &Uncapped);
        let sweet = s.run_with(&queue, &SweetSpot);
        // 200 W sweet spot: 9 % slower but far below uncapped power.
        assert!(sweet.makespan_s > base.makespan_s);
        assert!(sweet.peak_power_w < base.peak_power_w);
        let base_energy = base.mean_power_w * base.makespan_s;
        let sweet_energy = sweet.mean_power_w * sweet.makespan_s;
        assert!(sweet_energy < base_energy, "{sweet_energy} !< {base_energy}");
    }

    #[test]
    fn event_driven_run_matches_polling_reference() {
        let s = Scheduler::new(8, 4000.0);
        let queue: Vec<BatchJob> = (0..6)
            .map(|i| {
                let mut j = job(i, WorkloadClass::PowerHungry, 1 + (i as usize % 2), 400.0);
                j.arrival_s = i as f64 * 90.0;
                j
            })
            .collect();
        let policies: [&dyn CapPolicy; 5] = [
            &Uncapped,
            &FixedCap(200.0),
            &ClassAware,
            &SweetSpot,
            &TcoAware::DEFAULT,
        ];
        for policy in policies {
            assert_eq!(
                s.run_with(&queue, policy),
                reference::run_polling(&s, &queue, policy),
                "{}",
                policy.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_response_panics() {
        let _ = CapResponse::new(vec![(200.0, 1.0, 1.0), (100.0, 1.0, 1.0)]);
    }

    #[test]
    fn single_job_runs_to_completion() {
        let s = Scheduler::new(4, 10_000.0);
        let out = s.run_with(&[job(1, WorkloadClass::PowerHungry, 2, 600.0)], &Uncapped);
        assert_eq!(out.job_spans.len(), 1);
        assert!((out.makespan_s - 600.0).abs() < 1e-6);
        assert!((out.peak_power_w - 2.0 * 1810.0).abs() < 1e-6);
    }

    #[test]
    fn power_budget_is_never_exceeded() {
        let s = Scheduler::new(8, 4000.0);
        let queue: Vec<BatchJob> = (0..6)
            .map(|i| job(i, WorkloadClass::PowerHungry, 1, 300.0))
            .collect();
        let policies: [&dyn CapPolicy; 3] = [&Uncapped, &FixedCap(200.0), &ClassAware];
        for policy in policies {
            let out = s.run_with(&queue, policy);
            assert!(
                out.peak_power_w <= 4000.0 + 1e-6,
                "{}: peak {}",
                policy.name(),
                out.peak_power_w
            );
            assert_eq!(
                out.job_spans.len(),
                6,
                "{}: all jobs must finish",
                policy.name()
            );
        }
    }

    #[test]
    fn class_aware_capping_improves_throughput_under_tight_budget() {
        // Budget fits 2 uncapped hungry jobs (2×1810) but 3 capped ones
        // (3×1300): the paper's motivating scenario.
        let s = Scheduler::new(8, 4000.0);
        let queue: Vec<BatchJob> = (0..6)
            .map(|i| job(i, WorkloadClass::PowerHungry, 1, 600.0))
            .collect();
        let base = s.run_with(&queue, &Uncapped);
        let capped = s.run_with(&queue, &ClassAware);
        assert!(
            capped.makespan_s < base.makespan_s,
            "capped {} vs uncapped {}",
            capped.makespan_s,
            base.makespan_s
        );
    }

    #[test]
    fn capping_does_not_help_when_power_is_plentiful() {
        let s = Scheduler::new(16, 1.0e6);
        let queue: Vec<BatchJob> = (0..4)
            .map(|i| job(i, WorkloadClass::PowerHungry, 1, 600.0))
            .collect();
        let base = s.run_with(&queue, &Uncapped);
        let capped = s.run_with(&queue, &ClassAware);
        // With unlimited power, capping only adds the ~9 % slowdown.
        assert!(capped.makespan_s >= base.makespan_s);
        assert!(capped.makespan_s <= base.makespan_s * 1.15);
    }

    #[test]
    fn unknown_jobs_stay_uncapped_under_class_aware() {
        let s = Scheduler::new(4, 10_000.0);
        let queue = vec![job(1, WorkloadClass::Unknown, 1, 100.0)];
        let out = s.run_with(&queue, &ClassAware);
        assert!((out.peak_power_w - 766.0).abs() < 1e-6, "{}", out.peak_power_w);
    }

    #[test]
    fn node_limits_serialise_jobs() {
        let s = Scheduler::new(2, 1.0e9);
        let queue: Vec<BatchJob> = (0..3)
            .map(|i| job(i, WorkloadClass::Light, 2, 100.0))
            .collect();
        let out = s.run_with(&queue, &Uncapped);
        // Three 2-node jobs on 2 nodes: strictly sequential.
        assert!(out.makespan_s >= 300.0 - 1e-6);
    }

    #[test]
    fn outcome_is_deterministic() {
        let s = Scheduler::new(8, 5000.0);
        let queue: Vec<BatchJob> = (0..5)
            .map(|i| job(i, WorkloadClass::PowerHungry, 1, 400.0))
            .collect();
        assert_eq!(
            s.run_with(&queue, &ClassAware),
            s.run_with(&queue, &ClassAware)
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the power budget")]
    fn impossible_job_panics() {
        let s = Scheduler::new(4, 1000.0);
        let _ = s.run_with(&[job(1, WorkloadClass::PowerHungry, 4, 100.0)], &Uncapped);
    }

    #[test]
    #[should_panic(expected = "not a finite time")]
    fn non_finite_runtime_panics_instead_of_spinning() {
        // A finish that never comes due would hold the loop forever.
        let s = Scheduler::new(4, 10_000.0);
        let _ = s.run_with(&[job(1, WorkloadClass::Light, 1, f64::INFINITY)], &Uncapped);
    }

    #[test]
    fn arrivals_delay_admission() {
        let s = Scheduler::new(8, 1.0e6);
        let mut late = job(2, WorkloadClass::Light, 1, 100.0);
        late.arrival_s = 500.0;
        let queue = vec![job(1, WorkloadClass::Light, 1, 100.0), late];
        let out = s.run_with(&queue, &Uncapped);
        let span_of = |id: u64| {
            out.job_spans
                .iter()
                .find(|(j, _, _)| *j == id)
                .copied()
                .unwrap()
        };
        assert!(span_of(1).1 < 1.0, "job 1 starts immediately");
        assert!(span_of(2).1 >= 500.0, "job 2 waits for its arrival");
        // The idle gap between them is skipped, not busy-waited.
        assert!((out.makespan_s - 600.0).abs() < 31.0, "{}", out.makespan_s);
    }

    #[test]
    fn staggered_arrivals_respect_budget() {
        let s = Scheduler::new(8, 4000.0);
        let queue: Vec<BatchJob> = (0..6)
            .map(|i| {
                let mut j = job(i, WorkloadClass::PowerHungry, 1, 400.0);
                j.arrival_s = i as f64 * 120.0;
                j
            })
            .collect();
        let out = s.run_with(&queue, &ClassAware);
        assert_eq!(out.job_spans.len(), 6);
        assert!(out.peak_power_w <= 4000.0 + 1e-6);
    }

    #[test]
    fn throughput_metric() {
        let s = Scheduler::new(4, 1.0e6);
        let out = s.run_with(&[job(1, WorkloadClass::Light, 1, 1800.0)], &Uncapped);
        assert!((out.throughput_per_hour() - 2.0).abs() < 1e-9);
    }

    /// A random but well-formed cap response: strictly increasing caps,
    /// monotone-ish perf, rising node power.
    fn random_response(rng: &mut Rng) -> CapResponse {
        let n = usize_in(rng, 1, 6);
        let mut cap = rng.uniform(80.0, 150.0);
        let mut perf = rng.uniform(0.3, 0.7);
        let mut power = rng.uniform(400.0, 900.0);
        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            points.push((cap, perf.min(1.0), power));
            cap += rng.uniform(20.0, 120.0);
            perf += rng.uniform(0.0, 0.4);
            power += rng.uniform(10.0, 400.0);
        }
        CapResponse::new(points)
    }

    fn random_queue(rng: &mut Rng, total_nodes: usize) -> Vec<BatchJob> {
        let n = usize_in(rng, 0, 25);
        let classes = [
            WorkloadClass::PowerHungry,
            WorkloadClass::Moderate,
            WorkloadClass::Light,
            WorkloadClass::Unknown,
        ];
        (0..n as u64)
            .map(|id| {
                // A burst of identical arrivals every few jobs exercises the
                // FIFO tie-break inside one admission pass.
                let arrival = if rng.bool(0.3) {
                    (id / 3) as f64 * rng.uniform(0.0, 200.0)
                } else {
                    rng.uniform(0.0, 600.0)
                };
                BatchJob {
                    id,
                    name: format!("j{id}"),
                    class: classes[rng.index(classes.len())],
                    nodes: usize_in(rng, 1, total_nodes + 1),
                    base_runtime_s: rng.uniform(5.0, 900.0),
                    response: random_response(rng),
                    arrival_s: arrival,
                }
            })
            .collect()
    }

    vpp_substrate::properties! {
        /// Observational identity, not approximation: admission stays
        /// quantised to cycle boundaries and the power sums reuse the
        /// polling loop's left-to-right arithmetic, so the whole outcome
        /// must compare equal with `==`.
        fn event_driven_run_equals_polling_reference(rng) {
            let total_nodes = usize_in(rng, 1, 13);
            let queue = random_queue(rng, total_nodes);
            // Budget at least the hungriest single job, so every job can run.
            let max_single = queue
                .iter()
                .map(|j| j.response.uncapped().1 * j.nodes as f64)
                .fold(0.0f64, f64::max)
                .max(1.0);
            let mut sched = Scheduler::new(total_nodes, max_single * rng.uniform(1.0, 3.0));
            sched.cycle_s = rng.uniform(5.0, 60.0);
            let fixed = FixedCap(rng.uniform(90.0, 400.0));
            let policy: &dyn CapPolicy = match rng.index(5) {
                0 => &Uncapped,
                1 => &fixed,
                2 => &ClassAware,
                3 => &SweetSpot,
                _ => &TcoAware::DEFAULT,
            };
            let fast = sched.run_with(&queue, policy);
            let slow = reference::run_polling(&sched, &queue, policy);
            assert_eq!(fast, slow, "{} diverged on {} jobs", policy.name(), queue.len());
            assert_eq!(fast.job_spans.len(), queue.len(), "every job must finish");
        }
    }
}
