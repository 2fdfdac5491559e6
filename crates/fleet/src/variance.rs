//! Variance decomposition of the system power signal.
//!
//! The paper motivates itself (§I) with the finding — from the companion
//! NERSC study (its ref \[14\]) — that *"65 % of the variation in the system
//! power consumption was due to temporal variation in the power used by
//! individual jobs"*. Given a fleet outcome, this module performs that
//! decomposition: compare the true system power signal against a
//! counterfactual in which every job draws its own **mean** power for its
//! whole duration. The counterfactual retains all job-mix/scheduling
//! variation; whatever variance it lacks is, by construction, within-job
//! temporal variation.

use crate::sim::FleetOutcome;
use vpp_sim::PowerTrace;

/// The decomposition result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarianceDecomposition {
    /// Variance of the true system power over the interval, W².
    pub total_variance_w2: f64,
    /// Variance of the job-mix counterfactual (each job at its mean), W².
    pub mix_variance_w2: f64,
    /// Fraction of total variance attributable to within-job temporal
    /// variation (`1 - mix/total`, clamped to `[0, 1]`).
    pub temporal_fraction: f64,
}

fn trace_variance(trace: &PowerTrace, dt: f64) -> f64 {
    let n = (trace.duration() / dt).floor() as usize;
    if n < 2 {
        return 0.0;
    }
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let t0 = trace.start() + i as f64 * dt;
            trace.mean_power(t0, t0 + dt)
        })
        .collect();
    let mean = samples.iter().sum::<f64>() / n as f64;
    samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64
}

/// Decompose an outcome's system-power variance, sampling at `dt` seconds.
///
/// # Panics
/// If `dt` is not positive.
#[must_use]
pub fn decompose(outcome: &FleetOutcome, idle_node_w: f64, nodes: usize, dt: f64) -> VarianceDecomposition {
    assert!(dt > 0.0, "bad sampling step {dt}");
    let total_variance_w2 = trace_variance(&outcome.system_trace, dt);

    // Counterfactual: each job contributes a flat segment at its mean node
    // power × nodes over [start, end); unallocated nodes stay at idle.
    let mut parts: Vec<PowerTrace> = Vec::with_capacity(outcome.jobs.len());
    let mut busy_changes: Vec<(f64, i64)> = Vec::new();
    for j in &outcome.jobs {
        parts.push(PowerTrace::from_segments(
            j.start_s,
            [(j.end_s - j.start_s, j.mean_node_power_w * j.nodes as f64)],
        ));
        busy_changes.push((j.start_s, j.nodes as i64));
        busy_changes.push((j.end_s, -(j.nodes as i64)));
    }
    busy_changes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut idle = PowerTrace::new(outcome.system_trace.start());
    let mut busy = 0i64;
    let mut cursor = outcome.system_trace.start();
    for (at, delta) in busy_changes {
        if at > cursor {
            idle.push(at - cursor, (nodes as i64 - busy).max(0) as f64 * idle_node_w);
            cursor = at;
        }
        busy += delta;
    }
    if outcome.system_trace.end() > cursor {
        idle.push(
            outcome.system_trace.end() - cursor,
            (nodes as i64 - busy).max(0) as f64 * idle_node_w,
        );
    }
    let mut refs: Vec<&PowerTrace> = parts.iter().collect();
    refs.push(&idle);
    let mix = PowerTrace::sum(&refs);
    let mix_variance_w2 = trace_variance(&mix, dt);

    let temporal_fraction = if total_variance_w2 > 0.0 {
        (1.0 - mix_variance_w2 / total_variance_w2).clamp(0.0, 1.0)
    } else {
        0.0
    };
    VarianceDecomposition {
        total_variance_w2,
        mix_variance_w2,
        temporal_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, FleetSpec, JobRequest};
    use vpp_cluster::NetworkModel;
    use vpp_dft::{build_plan, CostModel, Incar, ParallelLayout, Supercell, SystemParams, Xc};

    fn plan(xc: Xc, nelm: usize) -> vpp_dft::ScfPlan {
        let mut deck = Incar::default_deck();
        deck.nelm = nelm;
        deck.xc = xc;
        if xc == Xc::Rpa {
            deck.nbandsexact = Some(8_000);
        }
        let p = SystemParams::derive(&Supercell::silicon(128), &deck);
        build_plan(&p, &ParallelLayout::nodes(1), &CostModel::calibrated())
    }

    #[test]
    fn rpa_jobs_make_variation_mostly_temporal() {
        // ACFDT/RPA alternates a low-power CPU stage with near-TDP χ₀
        // bursts: with identical jobs back to back, the *mix* is flat and
        // nearly all variance is within-job.
        let spec = FleetSpec::new(2);
        let reqs: Vec<JobRequest> = (0..2)
            .map(|id| JobRequest {
                id,
                name: "rpa".into(),
                plan: plan(Xc::Rpa, 6),
                nodes: 1,
                arrival_s: 0.0,
                cap_w: None,
                est_node_power_w: 1500.0,
            })
            .collect();
        let out = simulate(&spec, &reqs, &NetworkModel::perlmutter());
        let d = decompose(&out, spec.idle_node_w, spec.nodes, 2.0);
        assert!(d.total_variance_w2 > 0.0);
        assert!(
            d.temporal_fraction > 0.5,
            "RPA variation is mostly within-job: {d:?}"
        );
    }

    #[test]
    fn steady_jobs_make_variation_mostly_mix() {
        // Flat-profile DFT jobs arriving at staggered times: the system
        // signal varies mostly because jobs start and stop (mix), not
        // because any job's own power moves.
        let spec = FleetSpec::new(2);
        let reqs: Vec<JobRequest> = (0..3)
            .map(|id| JobRequest {
                id,
                name: "dft".into(),
                plan: plan(Xc::Gga, 12),
                nodes: 2,
                arrival_s: id as f64 * 40.0,
                cap_w: None,
                est_node_power_w: 1100.0,
            })
            .collect();
        let out = simulate(&spec, &reqs, &NetworkModel::perlmutter());
        let d = decompose(&out, spec.idle_node_w, spec.nodes, 2.0);
        assert!(
            d.temporal_fraction < 0.6,
            "steady serialised jobs are mix-dominated: {d:?}"
        );
        assert!(d.mix_variance_w2 > 0.0);
    }

    #[test]
    fn decomposition_fractions_are_bounded() {
        let spec = FleetSpec::new(2);
        let reqs = vec![JobRequest {
            id: 0,
            name: "one".into(),
            plan: plan(Xc::Gga, 8),
            nodes: 1,
            arrival_s: 0.0,
            cap_w: None,
            est_node_power_w: 1100.0,
        }];
        let out = simulate(&spec, &reqs, &NetworkModel::perlmutter());
        let d = decompose(&out, spec.idle_node_w, spec.nodes, 1.0);
        assert!((0.0..=1.0).contains(&d.temporal_fraction));
        assert!(d.mix_variance_w2 >= 0.0);
    }
}
