//! Micro-benchmarks of the simulation substrate's hot paths: trace algebra,
//! the event queue, sampling, KDE/mode extraction, and plan lowering.
//!
//! The `*_before_after` entries pit the superseded algorithms (kept in
//! `vpp_sim::trace::reference` and `Kde::grid_exact`) against the shipping
//! fast paths; their speedups land in the `comparisons` array of
//! `BENCH_results.json`. `serve_keepalive_healthz` times one HTTP round
//! trip against the job service.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use vpp_sim::trace::reference;
use vpp_sim::{EventQueue, PowerTrace, Rng};
use vpp_stats::kde::{Bandwidth, Kde};
use vpp_substrate::Harness;
use vpp_telemetry::Sampler;

fn long_trace(segments: usize) -> PowerTrace {
    let mut rng = Rng::new(7);
    let mut t = PowerTrace::new(0.0);
    for _ in 0..segments {
        t.push(rng.uniform(0.005, 0.5), rng.uniform(50.0, 2000.0));
    }
    t
}

/// A one-hour trace with sub-second structure (~72k segments).
fn hour_trace() -> PowerTrace {
    let mut rng = Rng::new(13);
    let mut t = PowerTrace::new(0.0);
    while t.duration() < 3600.0 {
        t.push(rng.uniform(0.01, 0.1), rng.uniform(50.0, 2000.0));
    }
    t
}

fn bench_trace_ops(h: &mut Harness) {
    let a = long_trace(50_000);
    let b = long_trace(50_000);
    h.bench("trace_build_100k_segments", || long_trace(100_000).len());
    h.bench("trace_energy_50k", || a.energy());
    h.bench("trace_sum_two_50k", || PowerTrace::sum(&[&a, &b]).len());
    h.bench("trace_window_mean_50k", || a.mean_power(100.0, 500.0));

    // 64 offset traces of 2k segments each: the fleet-aggregation shape.
    let fleet: Vec<PowerTrace> = (0..64)
        .map(|i| {
            let mut rng = Rng::new(100 + i);
            let mut t = PowerTrace::new(i as f64 * 0.37);
            for _ in 0..2_000 {
                t.push(rng.uniform(0.01, 0.5), rng.uniform(50.0, 2000.0));
            }
            t
        })
        .collect();
    let refs: Vec<&PowerTrace> = fleet.iter().collect();
    h.compare(
        "sum_64_traces_before_after",
        || reference::sum_cut_union(black_box(&refs)).len(),
        || PowerTrace::sum(black_box(&refs)).len(),
    );
}

fn bench_event_queue(h: &mut Harness) {
    h.bench("event_queue_10k_schedule_drain", || {
        let mut q = EventQueue::new();
        let mut rng = Rng::new(3);
        for i in 0..10_000 {
            q.schedule(rng.uniform(0.0, 1e6), i);
        }
        let mut n = 0;
        q.drain(|_, _| n += 1);
        n
    });
}

fn bench_sampling(h: &mut Harness) {
    let trace = long_trace(50_000);
    h.bench("sampler_2s_over_50k_segments", || {
        Sampler::ideal(2.0).sample(&trace).len()
    });
    h.bench("sampler_high_rate_over_50k_segments", || {
        Sampler::high_rate().sample(&trace).len()
    });

    // One hour at the production 1-s cadence: sweep vs per-query windows.
    let hour = hour_trace();
    let n_windows = (hour.duration() / 1.0).floor() as usize;
    h.compare(
        "sample_1h_trace_before_after",
        || reference::window_means_per_query(black_box(&hour), hour.start(), 1.0, n_windows).len(),
        || black_box(&hour).window_means(hour.start(), 1.0, n_windows).len(),
    );
}

fn bench_stats(h: &mut Harness) {
    let mut rng = Rng::new(11);
    let bimodal = |n: usize, rng: &mut Rng| -> Vec<f64> {
        (0..n)
            .map(|_| {
                if rng.bool(0.7) {
                    rng.normal(1700.0, 40.0)
                } else {
                    rng.normal(700.0, 60.0)
                }
            })
            .collect()
    };
    let data = bimodal(4_000, &mut rng);
    h.bench("kde_fit_and_grid_4k_samples", || {
        let kde = Kde::fit(&data, Bandwidth::Silverman);
        kde.grid(512).1[256]
    });
    h.bench("high_power_mode_4k_samples", || {
        vpp_stats::high_power_mode(&data).x
    });
    h.bench("fwhm_4k_samples", {
        let mode = vpp_stats::high_power_mode(&data);
        move || vpp_stats::fwhm(&data, mode)
    });

    // The acceptance workload: a 512-point grid over 10k samples.
    let data10k = bimodal(10_000, &mut rng);
    let kde = Kde::fit(&data10k, Bandwidth::Silverman);
    h.compare(
        "kde_grid_10k_samples_before_after",
        || black_box(&kde).grid_exact(512).1[256],
        || black_box(&kde).grid(512).1[256],
    );
}

fn bench_plan_lowering(h: &mut Harness) {
    let p = vpp_core::benchmarks::pdo4().params();
    let cost = vpp_dft::CostModel::calibrated();
    h.bench("lower_pdo4_plan", || {
        vpp_dft::build_plan(&p, &vpp_dft::ParallelLayout::nodes(2), &cost)
            .ops
            .len()
    });
}

fn bench_parsers(h: &mut Harness) {
    let incar = "ALGO = Damped\nLHFCALC = .TRUE.\nNELM = 41\nNBANDS = 640\nENCUT = 400\nNSIM = 4\n";
    h.bench("parse_incar", || {
        vpp_dft::parse_incar(black_box(incar)).unwrap().deck.nelm
    });
    let poscar = "Si256\n1.0\n17.24 0 0\n0 17.24 0\n0 0 17.24\nSi\n255\nDirect\n";
    h.bench("parse_poscar", || {
        vpp_dft::parse_poscar(black_box(poscar)).unwrap().n_ions()
    });
}

fn bench_lqcd_lowering(h: &mut Harness) {
    let w = vpp_lqcd::MilcWorkload {
        lattice: [32, 32, 32, 48],
        trajectories: 2,
        md_steps: 6,
        solver: vpp_lqcd::SolverParams {
            cg_iters: 400,
            solves_per_step: 2,
        },
    };
    let net = vpp_cluster::NetworkModel::perlmutter();
    let cm = vpp_dft::CostModel::calibrated();
    h.bench("lower_milc_plan", || {
        w.build_plan(&vpp_dft::ParallelLayout::nodes(1), &net, &cm)
            .ops
            .len()
    });
}

/// One `GET /healthz` on a kept-alive connection; redials when the
/// server closes the connection at its per-connection request cap.
fn healthz_round_trip(addr: SocketAddr, conn: &mut TcpStream) -> usize {
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n")
        .expect("send request");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        let n = conn.read(&mut chunk).expect("read response head");
        assert!(n > 0, "server closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("framed response")
        .parse()
        .expect("numeric Content-Length");
    while buf.len() < head_end + len {
        let n = conn.read(&mut chunk).expect("read response body");
        assert!(n > 0, "server closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    if head.contains("Connection: close") {
        *conn = TcpStream::connect(addr).expect("redial");
    }
    len
}

fn bench_serve(h: &mut Harness) {
    let server = vpp_substrate::serve::serve(0).expect("bind an ephemeral port");
    let addr = server.addr();
    let mut conn = TcpStream::connect(addr).expect("connect");
    // Linux starts a connection in quick-ACK mode; a reply stalled behind
    // a delayed ACK only shows after the first exchanges, which smoke
    // mode's few timed calls could otherwise all fall within.
    for _ in 0..32 {
        healthz_round_trip(addr, &mut conn);
    }
    h.bench("serve_keepalive_healthz", || {
        healthz_round_trip(addr, &mut conn)
    });
    server.shutdown();
}

fn main() {
    let mut h = Harness::new("substrate");
    bench_trace_ops(&mut h);
    bench_event_queue(&mut h);
    bench_sampling(&mut h);
    bench_stats(&mut h);
    bench_plan_lowering(&mut h);
    bench_parsers(&mut h);
    bench_lqcd_lowering(&mut h);
    bench_serve(&mut h);
    h.finish();
}
