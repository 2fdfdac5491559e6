//! Campaign determinism: the shard count is a wall-clock knob, never a
//! semantic one. The same seed must produce byte-identical merged
//! outcomes whether the partitions run serially (1 shard) or fanned out
//! over the pool (N shards), and across repeated runs — with and without
//! a site budget (independent partitions vs the coupled global-backfill
//! engine).

use std::sync::atomic::{AtomicUsize, Ordering};
use vpp_powercap::policy::{ClassAware, FixedCap, SweetSpot, TcoAware, Uncapped};
use vpp_powercap::{campaign, BatchJob, CampaignSpec, CapPolicy, PolicyCtx, SiteView};

fn trio_plus() -> [(&'static str, &'static dyn CapPolicy); 5] {
    [
        ("uncapped", &Uncapped),
        ("fixed_200w", &FixedCap(200.0)),
        ("class_aware", &ClassAware),
        ("sweet_spot", &SweetSpot),
        ("tco_aware", &TcoAware::DEFAULT),
    ]
}

#[test]
fn shard_count_never_changes_the_merged_outcome() {
    let spec = CampaignSpec {
        partitions: 6,
        ..CampaignSpec::new(240, 7)
    };
    for (name, policy) in trio_plus() {
        let serial = campaign::run(&spec, policy, 1);
        for shards in [2, 3, 6, 16] {
            let sharded = campaign::run(&spec, policy, shards);
            assert_eq!(serial, sharded, "{name} diverged at {shards} shards");
        }
    }
}

#[test]
fn shard_count_never_changes_the_site_budget_outcome() {
    // The coupled engine: 60 % of the summed envelope forces contention
    // and backfill, and the outcome must still be byte-identical across
    // every shard count (the engine is a pure function of spec+policy).
    let spec = CampaignSpec {
        partitions: 6,
        site_budget_w: Some(0.6 * 6.0 * 40_000.0),
        ..CampaignSpec::new(240, 7)
    };
    for (name, policy) in trio_plus() {
        let serial = campaign::run(&spec, policy, 1);
        assert!(
            serial.merged.peak_power_w <= spec.site_budget_w.unwrap() + 1e-6,
            "{name}: peak above the site budget"
        );
        for shards in [2, 3, 6, 16] {
            let sharded = campaign::run(&spec, policy, shards);
            assert_eq!(serial, sharded, "{name} diverged at {shards} shards");
            assert_eq!(
                format!("{serial:?}"),
                format!("{sharded:?}"),
                "{name}: byte-identity, literally"
            );
        }
    }
}

#[test]
fn repeated_runs_are_bitwise_reproducible() {
    let spec = campaign::baseline_spec();
    let a = campaign::run(&spec, &ClassAware, spec.partitions);
    let b = campaign::run(&spec, &ClassAware, spec.partitions);
    assert_eq!(a, b);
    // The byte-identity claim, literally: identical debug serialisations.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn different_seeds_produce_different_campaigns() {
    let spec = CampaignSpec::new(100, 1);
    let other = CampaignSpec::new(100, 2);
    let a = campaign::run(&spec, &Uncapped, 2);
    let b = campaign::run(&other, &Uncapped, 2);
    assert_ne!(a, b);
}

/// A policy that counts how often the engine consults it.
struct Counted {
    inner: &'static dyn CapPolicy,
    calls: AtomicUsize,
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

#[test]
fn the_policy_is_asked_once_per_job() {
    let partitioned = CampaignSpec {
        partitions: 6,
        ..CampaignSpec::new(240, 7)
    };
    let site = CampaignSpec {
        site_budget_w: Some(0.6 * 6.0 * 40_000.0),
        ..partitioned.clone()
    };
    for spec in [partitioned, site] {
        for shards in [1, spec.partitions] {
            let counted = Counted {
                inner: &TcoAware::DEFAULT,
                calls: AtomicUsize::new(0),
            };
            let _ = campaign::run(&spec, &counted, shards);
            assert_eq!(
                counted.calls.into_inner(),
                spec.jobs,
                "site budget {:?}, {shards} shard(s)",
                spec.site_budget_w
            );
        }
    }
}
