//! End-to-end power-cap campaigns of thousands of heterogeneous jobs
//! under each policy: the partitioned engine, and the site-coupled
//! engine under contention.

use std::hint::black_box;
use vpp_powercap::policy::{ClassAware, SweetSpot, Uncapped};
use vpp_powercap::{campaign, CampaignSpec, CapPolicy, TcoAware};
use vpp_substrate::Harness;

/// The acceptance campaign: 2000 seeded jobs over the default 8-partition
/// machine, one entry per policy, sharded across the substrate pool.
fn bench_campaign(h: &mut Harness) {
    let spec = CampaignSpec::new(2000, 7);
    let policies: [(&str, &dyn CapPolicy); 3] = [
        ("uncapped", &Uncapped),
        ("class_aware", &ClassAware),
        ("sweet_spot", &SweetSpot),
    ];
    for (name, policy) in policies {
        h.bench(&format!("campaign_2000_jobs_{name}"), || {
            campaign::run(black_box(&spec), policy, spec.partitions).merged.makespan_s
        });
    }
}

/// The site-coupled engine under contention: the same 2000 jobs squeezed
/// to 60 % of the summed envelope, one serial global-backfill event loop
/// (the path `vpp campaign --site-budget` exercises).
fn bench_campaign_site(h: &mut Harness) {
    let spec = CampaignSpec {
        site_budget_w: Some(0.6 * 8.0 * 40_000.0),
        ..CampaignSpec::new(2000, 7)
    };
    let policies: [(&str, &dyn CapPolicy); 2] =
        [("uncapped", &Uncapped), ("tco_aware", &TcoAware::DEFAULT)];
    for (name, policy) in policies {
        h.bench(&format!("campaign_2000_jobs_site_{name}"), || {
            campaign::run(black_box(&spec), policy, spec.partitions).merged.makespan_s
        });
    }
}

fn main() {
    let mut h = Harness::new("campaign");
    bench_campaign(&mut h);
    bench_campaign_site(&mut h);
    h.finish();
}
