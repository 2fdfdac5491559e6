//! Property-based tests over the cross-crate invariants DESIGN.md §7
//! promises, driven by the in-tree harness (`vpp_substrate::properties!`)
//! on the deterministic simulation RNG.

use vasp_power_profiles::gpu::{Gpu, Kernel, KernelKind};
use vasp_power_profiles::sim::{EventQueue, PowerTrace};
use vasp_power_profiles::stats;
use vasp_power_profiles::telemetry::Sampler;
use vpp_substrate::prop::{segments, usize_in, vec_f64};
use vpp_substrate::{prop_assume, properties};

properties! {
    fn trace_energy_is_sum_of_segment_energies(rng) {
        let segs = segments(rng, 1, 40);
        let trace = PowerTrace::from_segments(0.0, segs.clone());
        let direct: f64 = segs.iter().map(|&(d, w)| d * w).sum();
        assert!((trace.energy() - direct).abs() <= 1e-6 * (1.0 + direct));
    }

    fn trace_sum_conserves_energy(rng) {
        let a = segments(rng, 1, 40);
        let b = segments(rng, 1, 40);
        let offset = rng.uniform(0.0, 10.0);
        let ta = PowerTrace::from_segments(0.0, a);
        let tb = PowerTrace::from_segments(offset, b);
        let sum = PowerTrace::sum(&[&ta, &tb]);
        let total = ta.energy() + tb.energy();
        assert!((sum.energy() - total).abs() <= 1e-6 * (1.0 + total));
    }

    fn trace_sum_matches_reference_cut_union(rng) {
        let a = PowerTrace::from_segments(0.0, segments(rng, 1, 40));
        let b = PowerTrace::from_segments(rng.uniform(0.0, 10.0), segments(rng, 1, 40));
        let c = PowerTrace::from_segments(rng.uniform(0.0, 50.0), segments(rng, 1, 40));
        let fast = PowerTrace::sum(&[&a, &b, &c]);
        let slow = vasp_power_profiles::sim::trace::reference::sum_cut_union(&[&a, &b, &c]);
        assert!((fast.energy() - slow.energy()).abs() <= 1e-9 * (1.0 + slow.energy()));
        for _ in 0..32 {
            let t = rng.uniform(slow.start(), slow.end());
            let (pf, ps) = (fast.power_at(t), slow.power_at(t));
            assert!(
                (pf - ps).abs() <= 1e-6 * (1.0 + ps.abs()),
                "power_at({t}): merge {pf} vs cut-union {ps}"
            );
        }
    }

    fn slicing_partitions_energy(rng) {
        let trace = PowerTrace::from_segments(0.0, segments(rng, 1, 40));
        let frac = rng.uniform(0.05, 0.95);
        let cut = trace.start() + frac * trace.duration();
        let left = trace.slice(trace.start(), cut);
        let right = trace.slice(cut, trace.end());
        let total = left.energy() + right.energy();
        assert!((total - trace.energy()).abs() <= 1e-6 * (1.0 + trace.energy()));
    }

    fn shifting_preserves_everything_but_time(rng) {
        let mut t = PowerTrace::from_segments(0.0, segments(rng, 1, 40));
        let dt = rng.uniform(-100.0, 100.0);
        let e = t.energy();
        let d = t.duration();
        t.shift(dt);
        assert!((t.energy() - e).abs() <= 1e-9 * (1.0 + e));
        assert!((t.duration() - d).abs() <= 1e-9);
        assert!((t.start() - dt).abs() <= 1e-9);
    }

    fn sampler_preserves_mean_power(rng) {
        let trace = PowerTrace::from_segments(0.0, segments(rng, 1, 40));
        prop_assume!(trace.duration() > 2.0);
        let series = Sampler::ideal(0.25).sample(&trace);
        prop_assume!(series.len() > 4);
        let covered = series.len() as f64 * 0.25;
        let true_mean = trace.energy_between(trace.start(), trace.start() + covered) / covered;
        assert!(
            (series.mean() - true_mean).abs() <= 1e-6 * (1.0 + true_mean),
            "sampled {} vs true {}", series.mean(), true_mean
        );
    }

    fn kde_density_integrates_to_one(rng) {
        let data = vec_f64(rng, 0.0, 2500.0, 8, 200);
        let kde = stats::kde::Kde::fit(&data, stats::kde::Bandwidth::Silverman);
        let (xs, ys) = kde.grid(1024);
        let step = xs[1] - xs[0];
        let integral: f64 = ys.iter().sum::<f64>() * step;
        assert!((integral - 1.0).abs() < 0.05, "integral = {integral}");
    }

    fn binned_kde_grid_matches_exact_grid(rng) {
        let data = vec_f64(rng, 0.0, 2500.0, 8, 200);
        let kde = stats::kde::Kde::fit(&data, stats::kde::Bandwidth::Silverman);
        let (_, binned) = kde.grid(512);
        let (_, exact) = kde.grid_exact(512);
        let peak = exact.iter().copied().fold(0.0f64, f64::max);
        for (b, e) in binned.iter().zip(&exact) {
            assert!(
                (b - e).abs() <= 0.01 * peak,
                "binned {b} vs exact {e} (peak {peak})"
            );
        }
    }

    fn high_power_mode_lies_within_data_hull(rng) {
        let data = vec_f64(rng, 0.0, 2500.0, 8, 200);
        let mode = stats::high_power_mode(&data);
        let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // KDE support extends ~3 bandwidths beyond the hull.
        let slack = 0.2 * (hi - lo) + 30.0;
        assert!(mode.x >= lo - slack && mode.x <= hi + slack);
    }

    fn mode_is_shift_equivariant(rng) {
        let data = vec_f64(rng, 100.0, 1000.0, 16, 128);
        let shift = rng.uniform(0.0, 500.0);
        let m0 = stats::high_power_mode(&data);
        let shifted: Vec<f64> = data.iter().map(|x| x + shift).collect();
        let m1 = stats::high_power_mode(&shifted);
        assert!(
            (m1.x - m0.x - shift).abs() < 20.0,
            "mode moved {} under a {shift} shift", m1.x - m0.x
        );
    }

    fn quantiles_are_monotone(rng) {
        let data = vec_f64(rng, 0.0, 1e4, 2, 100);
        let p1 = rng.uniform(0.0, 1.0);
        let p2 = rng.uniform(0.0, 1.0);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        assert!(stats::describe::quantile(&data, lo) <= stats::describe::quantile(&data, hi));
    }

    fn throttle_perf_monotone_in_cap_for_any_kernel(rng) {
        let width = rng.uniform(1.0, 1e8);
        let duty = rng.uniform(0.05, 1.0);
        let kernel = Kernel::with_duty(KernelKind::TensorGemm, width, 1.0, duty);
        let mut last = 0.0;
        for cap in [100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0] {
            let mut gpu = Gpu::nominal();
            gpu.set_power_limit(cap);
            let ex = gpu.execute(&kernel);
            assert!(ex.perf >= last - 1e-12, "perf fell as cap rose");
            assert!(ex.perf <= 1.0 + 1e-12);
            last = ex.perf;
        }
    }

    fn capped_power_never_exceeds_effective_ceiling(rng) {
        let width = rng.uniform(1.0, 1e8);
        let duty = rng.uniform(0.05, 1.0);
        let cap = rng.uniform(100.0, 400.0);
        for kind in KernelKind::all() {
            let kernel = Kernel::with_duty(kind, width, 1.0, duty);
            let mut gpu = Gpu::nominal();
            gpu.set_power_limit(cap);
            let ex = gpu.execute(&kernel);
            assert!(
                ex.watts <= gpu.effective_ceiling() + 1e-9,
                "{kind:?} drew {} over ceiling {}", ex.watts, gpu.effective_ceiling()
            );
        }
    }

    fn throttled_kernels_never_speed_up(rng) {
        let width = rng.uniform(1.0, 1e8);
        let duty = rng.uniform(0.05, 1.0);
        let cap = rng.uniform(100.0, 400.0);
        for kind in KernelKind::all() {
            let kernel = Kernel::with_duty(kind, width, 1.0, duty);
            let base = Gpu::nominal().execute(&kernel).duration_s;
            let mut gpu = Gpu::nominal();
            gpu.set_power_limit(cap);
            let capped = gpu.execute(&kernel).duration_s;
            assert!(capped >= base - 1e-12, "{kind:?} sped up under a cap");
        }
    }

    fn event_queue_delivers_sorted(rng) {
        let times = vec_f64(rng, 0.0, 1e6, 1, 200);
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut last = f64::NEG_INFINITY;
        while let Some((t, _)) = q.next() {
            assert!(t >= last);
            last = t;
        }
    }

    fn utilisation_monotone_and_bounded(rng) {
        let w1 = rng.uniform(0.0, 1e9);
        let w2 = rng.uniform(0.0, 1e9);
        let gpu = Gpu::nominal();
        let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        assert!(gpu.utilisation(lo) <= gpu.utilisation(hi));
        assert!((0.0..1.0).contains(&gpu.utilisation(hi)));
    }

    fn downsampling_covers_every_sample_with_group_means(rng) {
        let values = vec_f64(rng, 0.0, 2000.0, 16, 256);
        let factor = usize_in(rng, 1, 8);
        let times: Vec<f64> = (0..values.len()).map(|i| i as f64).collect();
        let series = vasp_power_profiles::telemetry::TimeSeries::new(times, values.clone());
        let d = series.downsample(factor);
        assert_eq!(d.len(), values.len().div_ceil(factor), "partial tail kept");
        for (lo, &got) in (0..values.len()).step_by(factor).zip(d.values()) {
            let hi = (lo + factor).min(values.len());
            let direct: f64 = values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
            assert!(
                (got - direct).abs() < 1e-9 * (1.0 + direct.abs()),
                "group [{lo}, {hi}): got {got}, direct {direct}"
            );
        }
    }

    fn screened_kde_never_panics_on_non_finite_data(rng) {
        let mut data = vec_f64(rng, 0.0, 2500.0, 1, 100);
        for _ in 0..usize_in(rng, 0, 8) {
            let junk = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.index(3)];
            let pos = rng.index(data.len());
            data.insert(pos, junk);
        }
        match stats::kde::Kde::fit_screened(&data, stats::kde::Bandwidth::Silverman) {
            Some((kde, rejected)) => {
                assert!(rejected < data.len());
                let (_, ys) = kde.grid(128);
                assert!(ys.iter().all(|y| y.is_finite()));
            }
            None => assert!(data.iter().all(|x| !x.is_finite())),
        }
    }

    fn raw_ingest_tolerates_duplicates_and_disorder(rng) {
        use vasp_power_profiles::telemetry::{quarantine, QualityConfig, RawSeries};
        let n = usize_in(rng, 2, 120);
        let mut raw = RawSeries::new();
        for i in 0..n {
            // ~1 in 5 timestamps is replaced by a random earlier/equal one,
            // producing both out-of-order arrivals and exact duplicates.
            let t = if rng.index(5) == 0 { rng.index(n) as f64 } else { i as f64 };
            raw.push(t, rng.uniform(50.0, 2000.0));
        }
        let clean = quarantine(&raw, &QualityConfig::new(1.0));
        let q = clean.quality;
        assert_eq!(q.n_raw, n);
        assert_eq!(q.n_kept + q.removed(), n);
        assert_eq!(q.n_kept, clean.series.len());
        // The screened output must satisfy TimeSeries's strict-monotone
        // invariant, i.e. re-ingesting it cannot panic.
        let rebuilt = vasp_power_profiles::telemetry::TimeSeries::new(
            clean.series.times().to_vec(),
            clean.series.values().to_vec(),
        );
        for w in rebuilt.times().windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    fn coarsen_conserves_energy(rng) {
        let trace = PowerTrace::from_segments(0.0, segments(rng, 1, 40));
        let dt = rng.uniform(0.05, 10.0);
        let coarse = trace.coarsen(dt);
        assert!((coarse.energy() - trace.energy()).abs() <= 1e-6 * (1.0 + trace.energy()));
        assert!((coarse.duration() - trace.duration()).abs() <= 1e-9);
        assert!(coarse.len() <= trace.duration().div_euclid(dt) as usize + 2);
    }

    fn phase_segmentation_tiles_the_input(rng) {
        let n_steps = usize_in(rng, 1, 8);
        let data: Vec<f64> = (0..n_steps)
            .flat_map(|_| {
                let n = usize_in(rng, 5, 40);
                let w = rng.uniform(50.0, 2300.0);
                std::iter::repeat_n(w, n)
            })
            .collect();
        let phases = stats::Segmenter::node_power().segment(&data);
        assert!(!phases.is_empty());
        assert_eq!(phases[0].start, 0);
        assert_eq!(phases.last().unwrap().end, data.len());
        for w in phases.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // Every phase mean lies within the data hull.
        let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for p in &phases {
            assert!(p.mean_w >= lo - 1e-9 && p.mean_w <= hi + 1e-9);
        }
    }

    fn bootstrap_ci_always_brackets_its_estimate(rng) {
        let data = vec_f64(rng, 10.0, 2000.0, 8, 80);
        let seed = rng.index(1000) as u64;
        let ci = stats::bootstrap_ci(&data, 60, 0.9, seed, stats::describe::mean);
        assert!(ci.lo <= ci.hi);
        // The point estimate can fall marginally outside a percentile CI
        // for skewed tiny samples; allow slack of one interval width.
        let slack = ci.width() + 1e-9;
        assert!(ci.estimate >= ci.lo - slack && ci.estimate <= ci.hi + slack);
    }

    fn pareto_front_is_nondominated_and_sorted(rng) {
        use vasp_power_profiles::stats::energy_metrics::{pareto_front, OperatingPoint};
        let n = usize_in(rng, 1, 20);
        let points: Vec<OperatingPoint> = (0..n)
            .map(|_| OperatingPoint {
                cap_w: rng.uniform(100.0, 400.0),
                energy_j: rng.uniform(1e5, 1e7),
                runtime_s: rng.uniform(10.0, 1e4),
            })
            .collect();
        let front = pareto_front(&points);
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].runtime_s <= w[1].runtime_s);
            assert!(w[0].energy_j >= w[1].energy_j);
        }
        // No front point is dominated by any input point.
        for f in &front {
            for p in &points {
                let dominates = p.runtime_s <= f.runtime_s
                    && p.energy_j <= f.energy_j
                    && (p.runtime_s < f.runtime_s || p.energy_j < f.energy_j);
                assert!(!dominates);
            }
        }
    }
}
