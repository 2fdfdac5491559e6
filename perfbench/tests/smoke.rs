//! One op per workload with every output check on, the traced replay
//! against the untraced op, and BENCHMARK.json against the metric tables.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::spans::Tracer;
use perfbench::{campaigns, paper, run, Config, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use vpp_powercap::campaign;

#[test]
fn one_paper_grid_op_passes_its_checks() {
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        let g = paper::Grid::new(seed);
        let mut first = [None; paper::POINTS];
        // Point 1: Si256_hse at 2 nodes, one of the cheap points.
        let m = g.measure(1);
        paper::check(1, &m, seed, &mut first).unwrap();
        paper::check(1, &g.measure(1), seed, &mut first).unwrap();
    }
}

#[test]
fn one_campaign_op_per_engine_passes_its_checks() {
    for site in [false, true] {
        // Op 3 runs tco_aware, the policy with the extra TCO check.
        let spec = campaigns::spec(site, HELD_OUT_SEED, 3);
        let (name, policy) = campaigns::policy(3);
        assert_eq!(name, "tco_aware");
        let out = campaign::run(&spec, policy, 1);
        campaigns::check(&spec, name, &out).unwrap();
        assert_eq!(out.backfilled > 0, site, "only the site engine backfills");
    }
}

#[test]
fn one_serve_jobs_window_passes_its_checks() {
    let report = run(&Config {
        workload: Workload::ServeJobs,
        seed: HELD_OUT_SEED,
        seconds: 0.0,
        trace: false,
    });
    assert!(report.correct(), "{:?}", report.failures);
    assert!(report.attempted >= 2, "one job per client");
}

#[test]
fn traced_replays_equal_the_untraced_ops() {
    let tracer = Tracer::default();
    let g = paper::Grid::new(HELD_OUT_SEED);
    for (op, point) in [1usize, 36].into_iter().enumerate() {
        let (m, _, same) = paper::traced_op(&g, point, &tracer, op as u64);
        same.unwrap();
        assert_eq!(
            paper::point_digest(&m),
            paper::point_digest(&g.measure(point))
        );
    }
    for site in [false, true] {
        for op in [0, 3] {
            let spec = campaigns::spec(site, DEFAULT_SEED, op);
            let traced = campaigns::traced_op(&spec, op, &tracer);
            traced.same.unwrap();
            let plain = campaign::run(&spec, campaigns::policy(op).1, 1);
            assert_eq!(traced.outcome, plain);
            assert!(traced.cap_for_calls >= spec.jobs as u64);
        }
    }
    let names = tracer.rollup();
    for layer in [
        "core.measure",
        "dft.build_plan",
        "cluster.execute",
        "telemetry.sample",
        "telemetry.quarantine",
        "stats.summary",
        "powercap.run",
        "powercap.generate",
        "powercap.partition_engine",
        "powercap.demand",
        "powercap.site_engine",
    ] {
        assert!(names.contains_key(layer), "no {layer} span");
    }
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = vpp_substrate::json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        let Some(vpp_substrate::json::Value::Arr(items)) = doc.get(key) else {
            panic!("{key} is not a list");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), table(&END_TO_END));
    assert_eq!(names("per_layer"), table(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, expected);
}
