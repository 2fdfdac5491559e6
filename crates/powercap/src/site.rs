//! Site-level scheduling: every partition coupled through a shared watts
//! ledger.
//!
//! Without a site budget the campaign's partitions are independent DES
//! runs ([`crate::scheduler::Scheduler::run_with`]) — that is what makes
//! shard-parallel simulation trivially deterministic. `--site-budget`
//! breaks the independence on purpose: the whole machine shares one
//! power envelope, so admitting a job on partition 3 can starve a job on
//! partition 5. This module supplies the coupling:
//!
//! * [`SiteBudget`] — the ledger of committed watts across all
//!   partitions. The DES commits at every job start and releases at every
//!   finish; policies observe it through [`SiteView`] snapshots.
//! * [`run_site`] — the scheduler's one event loop over all partitions
//!   with *global backfill*: waiting jobs are scanned in submission order,
//!   and a job whose round-robin home partition is full may start on any
//!   partition with free nodes, free partition watts and free *site*
//!   watts (home first, then increasing partition index, wrapping).
//!
//! Because partitions are coupled, the run is one serial event loop —
//! the shard count cannot split it, and [`crate::campaign::run`] keeps
//! the N-shard == 1-shard guarantee by construction: the outcome is a
//! pure function of `(spec, policy)`. Within the loop every tie falls to
//! the same `(start, id)` order the per-partition runs use: finishes
//! retire before any admission, waiting jobs are offered admission in id
//! order, and spans finalise sorted by `(start, id)`.

use crate::campaign::CampaignSpec;
use crate::policy::{CapPolicy, SiteView};
use crate::scheduler::{BatchJob, ScheduleOutcome};
use vpp_substrate::trace;

/// The shared ledger of watts committed to running jobs site-wide.
///
/// Maintained by the scheduler's event loop at job start (commit) and
/// finish (release) events; the commit-side assertion is what makes "peak
/// never exceeds the site budget" a structural guarantee rather than a
/// measured one.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteBudget {
    budget_w: f64,
    committed_w: f64,
}

impl SiteBudget {
    /// A ledger capped at `budget_w` watts.
    ///
    /// # Panics
    /// If `budget_w` is NaN or not positive (`f64::INFINITY` is a valid
    /// budget: the unbounded ledger).
    #[must_use]
    pub fn new(budget_w: f64) -> Self {
        assert!(budget_w > 0.0 && !budget_w.is_nan(), "bad site budget {budget_w}");
        Self {
            budget_w,
            committed_w: 0.0,
        }
    }

    /// A ledger with no site cap — what slack-budget campaigns run under.
    #[must_use]
    pub fn unbounded() -> Self {
        Self::new(f64::INFINITY)
    }

    /// Would committing `w` more watts stay within the budget?
    #[must_use]
    pub fn fits(&self, w: f64) -> bool {
        self.committed_w + w <= self.budget_w + 1e-9
    }

    /// Commit `w` watts to a starting job.
    ///
    /// # Panics
    /// If the commitment would exceed the budget — callers must check
    /// [`SiteBudget::fits`] first; the ledger never overdrafts silently.
    pub fn commit(&mut self, w: f64) {
        assert!(self.fits(w), "site ledger overdraft: {} + {w} > {}", self.committed_w, self.budget_w);
        self.committed_w += w;
    }

    /// Release `w` watts from a finishing job.
    pub fn release(&mut self, w: f64) {
        self.committed_w = (self.committed_w - w).max(0.0);
    }

    /// The read-only snapshot policies observe.
    #[must_use]
    pub fn view(&self) -> SiteView {
        SiteView {
            budget_w: self.budget_w,
            committed_w: self.committed_w,
        }
    }
}

/// What the scheduler's event loop hands back: the outcome plus the
/// per-job decisions behind it, indexed like the queue it ran (for a
/// campaign's site run, by job id — ids are dense `0..jobs`).
#[derive(Debug, Clone, PartialEq)]
pub struct SiteRun {
    /// Spans, peak and power-time integral over every partition.
    pub outcome: ScheduleOutcome,
    /// Per-job `(runtime_s, power_w)`, decided once per job when it is
    /// first offered admission.
    pub demand: Vec<(f64, f64)>,
    /// Partition each job ran on.
    pub placement: Vec<usize>,
    /// Jobs that started away from their round-robin home partition.
    pub backfilled: usize,
}

/// Simulate `jobs` over every partition of `spec` under one site ledger.
///
/// Jobs keep their round-robin home (`id % partitions`) as the preferred
/// host but may backfill onto any partition with free nodes, free
/// partition watts and free site watts. Admission stays quantised to the
/// scheduler's cycle and the engine wakes exactly like a single
/// partition's run: at cycle boundaries where a finish is due or an
/// arrival has passed.
///
/// # Panics
/// If a job could never start (needs more nodes than a partition has,
/// or more watts than the partition/site budget allows) — the engine
/// detects the stall rather than spinning.
#[must_use]
pub fn run_site(spec: &CampaignSpec, jobs: &[BatchJob], policy: &dyn CapPolicy) -> SiteRun {
    let site = spec
        .site_budget_w
        .map_or_else(SiteBudget::unbounded, SiteBudget::new);
    let run = spec
        .scheduler()
        .simulate(spec.partitions, site, jobs, policy);
    trace::counter("site.backfilled", run.backfilled as u64);
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ClassAware, Uncapped};
    use crate::scheduler::{CapResponse, WorkloadClass};

    fn ledger_job(id: u64, nodes: usize, rt: f64, arrival: f64) -> BatchJob {
        BatchJob {
            id,
            name: format!("j{id}"),
            class: WorkloadClass::PowerHungry,
            nodes,
            base_runtime_s: rt,
            response: CapResponse::new(vec![
                (100.0, 0.40, 900.0),
                (200.0, 0.91, 1300.0),
                (300.0, 1.00, 1750.0),
                (400.0, 1.00, 1810.0),
            ]),
            arrival_s: arrival,
        }
    }

    fn two_partition_spec(site_budget_w: Option<f64>) -> CampaignSpec {
        CampaignSpec {
            partitions: 2,
            nodes_per_partition: 4,
            partition_budget_w: 20_000.0,
            site_budget_w,
            ..CampaignSpec::new(0, 1)
        }
    }

    #[test]
    fn ledger_tracks_commit_and_release() {
        let mut b = SiteBudget::new(5000.0);
        assert!(b.fits(5000.0));
        b.commit(3000.0);
        b.commit(1500.0);
        assert!(!b.fits(1000.0));
        assert!((b.view().committed_w - 4500.0).abs() < 1e-9);
        b.release(3000.0);
        b.commit(2000.0);
        assert!((b.view().committed_w - 3500.0).abs() < 1e-9);
        assert!((b.view().free_w() - 1500.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "overdraft")]
    fn ledger_refuses_overdraft() {
        let mut b = SiteBudget::new(1000.0);
        b.commit(1500.0);
    }

    #[test]
    fn backfill_moves_a_blocked_job_across_partitions() {
        // Home routing sends both jobs to partition 1 (odd ids); its 4
        // nodes only hold one of them, so the second must backfill onto
        // the empty partition 0 instead of queueing.
        let spec = two_partition_spec(None);
        let jobs = vec![ledger_job(1, 3, 600.0, 0.0), ledger_job(3, 3, 600.0, 0.0)];
        let run = run_site(&spec, &jobs, &Uncapped);
        assert_eq!(run.backfilled, 1);
        assert_eq!(run.placement, vec![1, 0]);
        // Both start at t = 0: backfill admits what round-robin could not.
        assert!(run.outcome.job_spans.iter().all(|s| s.1 == 0.0));
    }

    #[test]
    fn site_budget_serialises_what_nodes_would_admit() {
        // Two 1810 W/node jobs fit the nodes and partition budgets
        // simultaneously, but a 6 kW site budget holds only one at a
        // time: the second waits for the first's release.
        let spec = two_partition_spec(Some(6000.0));
        let jobs = vec![ledger_job(0, 3, 600.0, 0.0), ledger_job(1, 3, 600.0, 0.0)];
        let run = run_site(&spec, &jobs, &Uncapped);
        assert!(run.outcome.peak_power_w <= 6000.0 + 1e-6);
        let spans = &run.outcome.job_spans;
        assert_eq!(spans.len(), 2);
        assert!(spans[1].1 >= spans[0].2 - 1e-9, "second starts after first finishes");
    }

    #[test]
    fn capping_relieves_site_pressure() {
        // Same tight site budget: ClassAware's 200 W caps (1300 W/node)
        // let both jobs run at once where Uncapped serialised.
        let spec = two_partition_spec(Some(8000.0));
        let jobs = vec![ledger_job(0, 3, 600.0, 0.0), ledger_job(1, 3, 600.0, 0.0)];
        let capped = run_site(&spec, &jobs, &ClassAware);
        let base = run_site(&spec, &jobs, &Uncapped);
        assert!(capped.outcome.makespan_s < base.outcome.makespan_s);
        assert!(capped.outcome.peak_power_w <= 8000.0 + 1e-6);
    }

    #[test]
    #[should_panic(expected = "stalled")]
    fn impossible_site_budget_panics_instead_of_spinning() {
        let spec = two_partition_spec(Some(2000.0));
        let jobs = vec![ledger_job(0, 3, 600.0, 0.0)];
        let _ = run_site(&spec, &jobs, &Uncapped);
    }
}
