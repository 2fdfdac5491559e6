//! Golden table: the outputs of every scheduling path, digested and
//! frozen. A refactor of the scheduling engine must leave this table
//! unchanged; an intended output change regenerates it with
//! `cargo test --release -p vpp-powercap --test golden_table -- --ignored print_golden_table --nocapture`.
//!
//! * partitioned campaigns (no site budget): the FNV-1a digest of every
//!   policy's whole `CampaignOutcome` debug string, at 1 shard and at one
//!   shard per partition;
//! * `Scheduler::run_with` over seeded queues on seeded partition shapes:
//!   one digest over every `ScheduleOutcome` debug string;
//! * site-budget campaigns: the digest of everything but the merged mean
//!   power (spans, placement, backfill, slowdown samples, energy, TCO,
//!   merged peak), with each policy's `mean_power_w` held to 1e-12
//!   relative — the engine's power integral may re-associate its float
//!   sums.

use vpp_powercap::policy::{ClassAware, FixedCap, SweetSpot, TcoAware, Uncapped};
use vpp_powercap::{campaign, site, CampaignSpec, CapPolicy, Scheduler};
use vpp_substrate::Rng;

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn policies() -> [&'static dyn CapPolicy; 5] {
    [
        &Uncapped,
        &FixedCap(220.0),
        &ClassAware,
        &SweetSpot,
        &TcoAware::DEFAULT,
    ]
}

/// Small and odd-shaped specs, the trace baseline's, and the benchmark's.
fn partitioned_specs() -> [CampaignSpec; 5] {
    let on = |partitions, spec| CampaignSpec { partitions, ..spec };
    [
        CampaignSpec::new(180, 7),
        on(3, CampaignSpec::new(120, 5)),
        campaign::baseline_spec(),
        on(6, CampaignSpec::new(240, 7)),
        CampaignSpec::new(8000, 0),
    ]
}

/// The contention study's, the determinism suite's 6-partition 60 %,
/// verify.sh's 600-job 96 kW, and the benchmark's seed-0 spec.
fn site_specs() -> [CampaignSpec; 4] {
    let on = |partitions, budget_w, spec| CampaignSpec {
        partitions,
        site_budget_w: Some(budget_w),
        ..spec
    };
    let bench = CampaignSpec::new(2000, 0);
    let bench_w = campaign::CONTENTION_BUDGET_FRACTION * bench.summed_budget_w();
    [
        campaign::contention_spec(),
        on(6, 0.6 * 6.0 * 40_000.0, CampaignSpec::new(240, 7)),
        on(4, 96_000.0, CampaignSpec::new(600, 7)),
        on(8, bench_w, bench),
    ]
}

fn partitioned_digest(spec: &CampaignSpec) -> u64 {
    let mut text = String::new();
    for policy in policies() {
        for shards in [1, spec.partitions] {
            text += &format!("{:?}\n", campaign::run(spec, policy, shards));
        }
    }
    fnv(&text)
}

/// Seeded queues of up to 40 jobs, each on a seeded partition that every
/// job fits (nodes and uncapped watts), with a seeded cycle length.
fn run_with_digest() -> u64 {
    let mut text = String::new();
    for q in 0..64 {
        let mut rng = Rng::new(0x601d).fork(q);
        let spec = CampaignSpec {
            arrival_window_s: rng.uniform(60.0, 3600.0),
            ..CampaignSpec::new(rng.index(40), q)
        };
        let queue = spec.generate();
        let nodes = queue.iter().map(|j| j.nodes).max().unwrap_or(1) + rng.index(8);
        let max_single_w = queue
            .iter()
            .map(|j| j.response.uncapped().1 * j.nodes as f64)
            .fold(1.0, f64::max);
        let mut sched = Scheduler::new(nodes, max_single_w * rng.uniform(1.0, 3.0));
        sched.cycle_s = rng.uniform(5.0, 60.0);
        for policy in policies() {
            text += &format!("{:?}\n", sched.run_with(&queue, policy));
        }
    }
    fnv(&text)
}

/// The digest of every policy's outcome (mean power zeroed) and
/// placement, and each policy's merged mean power.
fn site_row(spec: &CampaignSpec) -> (u64, [f64; 5]) {
    let jobs = spec.generate();
    let (mut text, mut means) = (String::new(), [0.0; 5]);
    for (policy, mean) in policies().into_iter().zip(&mut means) {
        let mut out = campaign::run(spec, policy, 1);
        *mean = out.merged.mean_power_w;
        out.merged.mean_power_w = 0.0;
        let placement = site::run_site(spec, &jobs, policy).placement;
        text += &format!("{out:?}\n{placement:?}\n");
    }
    (fnv(&text), means)
}

const PARTITIONED: [u64; 5] = [
    0x3638cc1281541c81,
    0x1a8988ed10aeb1c5,
    0xb67b8a7a9e4a8a9f,
    0xa196fab798799e11,
    0x91bc20121fbb8b01,
];

const RUN_WITH: u64 = 0xc049b2ffa62fdfff;

#[rustfmt::skip]
const SITE: [(u64, [f64; 5]); 4] = [
    (0x525aedd068bdf804, [188024.76898856275, 185232.79886706363, 186481.9650001701, 184595.10855185578, 186086.48078249028]),
    (0xbe994406c0379300, [77818.21728405698, 63737.15242671306, 63902.11366958659, 60362.67770472759, 75947.13398838561]),
    (0x1400a19a61c84fc1, [92970.21686152878, 93771.390758962, 92708.21542049143, 93166.86118269317, 92253.83971979943]),
    (0xab02c248ab615c62, [189659.3377983444, 189658.67113663125, 189471.72230823195, 189765.07066173948, 189671.42549290054]),
];

#[test]
fn partitioned_campaigns_match_the_golden_table() {
    for (spec, want) in partitioned_specs().iter().zip(PARTITIONED) {
        assert_eq!(partitioned_digest(spec), want, "{spec:?}");
    }
}

#[test]
fn run_with_matches_the_golden_table() {
    assert_eq!(run_with_digest(), RUN_WITH);
}

#[test]
fn site_campaigns_match_the_golden_table() {
    for (spec, (want, want_means)) in site_specs().iter().zip(SITE) {
        let (digest, means) = site_row(spec);
        assert_eq!(digest, want, "{spec:?}");
        for (got, want) in means.iter().zip(want_means) {
            let close = (got - want).abs() <= 1e-12 * want;
            assert!(close, "{spec:?}: mean power {got} vs {want}");
        }
    }
}

#[test]
#[ignore = "regenerates the golden table; run in release"]
fn print_golden_table() {
    println!("const PARTITIONED: [u64; 5] = [");
    for spec in partitioned_specs() {
        println!("    {:#018x},", partitioned_digest(&spec));
    }
    println!("];\n\nconst RUN_WITH: u64 = {:#018x};\n", run_with_digest());
    println!("const SITE: [(u64, [f64; 5]); 4] = [");
    for spec in site_specs() {
        let (digest, means) = site_row(&spec);
        println!("    ({digest:#018x}, {means:?}),");
    }
    println!("];");
}
