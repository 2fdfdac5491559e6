//! GPU power capping and power-aware scheduling.
//!
//! A cap reaches the GPU model through the cluster's
//! `JobSpec::gpu_power_cap_w`; this crate decides which cap each job runs
//! under:
//!
//! * [`scheduler`] — the power-aware batch scheduler the paper proposes in
//!   §VI: classify jobs by workload type, cap VASP-like jobs at 50 % TDP
//!   (which costs <10 % performance), and reallocate the spared power to
//!   admit more jobs under a fixed system power budget, deciding within
//!   30-second scheduling cycles. One event-driven loop on the calendar
//!   queue serves a single partition and a whole coupled site alike.
//! * [`policy`] — the [`CapPolicy`] trait every scheduling path asks once
//!   per job: uncapped, fixed, class-aware, sweet-spot and the TCO-priced
//!   [`TcoAware`] policy, all able to observe the shared site ledger at
//!   decision time.
//! * [`site`] — site coupling: a [`SiteBudget`] ledger of committed watts
//!   across partitions and the global-backfill entry point
//!   ([`site::run_site`]) for campaigns under one site-wide envelope.
//! * [`campaign`] — datacenter-scale what-if campaigns: thousands of
//!   seeded heterogeneous jobs over partitioned machines, shard-parallel
//!   DES with deterministic merging, compared across cap policies.
//! * [`controller`] — the closed-loop controller that holds a running
//!   set of jobs under a facility power budget by re-dividing cap
//!   headroom every scheduling cycle.

pub mod campaign;
pub mod controller;
pub mod policy;
pub mod scheduler;
pub mod site;

pub use campaign::{CampaignOutcome, CampaignSpec, Distribution};
pub use controller::{ControlledJob, Controller};
pub use policy::{CapPolicy, PolicyCtx, SiteView, TcoAware, TcoPrices};
pub use scheduler::{BatchJob, CapResponse, ScheduleOutcome, Scheduler, WorkloadClass};
pub use site::{SiteBudget, SiteRun};
