//! Closed-loop system power control.
//!
//! §VI proposes that the batch system enforce a facility power budget by
//! adjusting GPU caps within scheduling cycles (~30 s). This module
//! implements that controller: each cycle it reads the jobs' measured
//! power, compares the total against the budget, and redistributes cap
//! headroom — tightening proportionally when over budget, relaxing toward
//! each job's preferred cap when under. Caps stay inside both the device
//! range and a per-job floor chosen from the job's cap response so the
//! enforced slowdown never exceeds the configured loss budget.

use crate::scheduler::CapResponse;
use vpp_substrate::{span, trace};

/// A running job under the controller's management.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlledJob {
    pub id: u64,
    pub nodes: usize,
    /// Measured cap response (from profiling or the predictor).
    pub response: CapResponse,
    /// Current GPU cap, watts.
    pub cap_w: f64,
}

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Controller {
    /// System power budget over the managed jobs, watts.
    pub budget_w: f64,
    /// Control cycle, seconds (paper: ~30 s scheduling cycles).
    pub cycle_s: f64,
    /// Proportional gain on the budget error (fraction corrected per cycle).
    pub gain: f64,
    /// Per-job performance-loss budget (caps never go below the deepest
    /// cap meeting this).
    pub max_loss: f64,
    /// Device cap range, watts.
    pub cap_range_w: (f64, f64),
}

impl Controller {
    /// A controller with the paper's parameters.
    #[must_use]
    pub fn new(budget_w: f64) -> Self {
        assert!(budget_w > 0.0);
        Self {
            budget_w,
            cycle_s: 30.0,
            gain: 0.5,
            max_loss: 0.10,
            cap_range_w: (100.0, 400.0),
        }
    }

    /// Deepest cap each job may be driven to.
    #[must_use]
    pub fn floor_for(&self, job: &ControlledJob) -> f64 {
        job.response
            .recommended_cap(self.max_loss)
            .clamp(self.cap_range_w.0, self.cap_range_w.1)
    }

    /// Total power the managed jobs draw at their current caps, watts.
    #[must_use]
    pub fn system_power_w(&self, jobs: &[ControlledJob]) -> f64 {
        jobs.iter()
            .map(|j| j.response.power_at(j.cap_w) * j.nodes as f64)
            .sum()
    }

    /// One control cycle: adjust every job's cap toward meeting the
    /// budget. Returns the post-adjustment system power.
    pub fn step(&self, jobs: &mut [ControlledJob]) -> f64 {
        let current = self.system_power_w(jobs);
        let error = current - self.budget_w;
        let mut cycle_span = span!(
            "powercap.cycle",
            jobs = jobs.len(),
            budget_w = self.budget_w,
            power_w = current,
        );
        trace::counter("powercap.cycles", 1);
        // Overshoot is the regulator's headline health metric: watts above
        // budget entering this cycle (0 when under). The budget gauge
        // makes the target visible in the same exposition.
        trace::gauge("powercap.budget_w", self.budget_w);
        trace::gauge("powercap.overshoot_w", error.max(0.0));
        if error > 0.0 {
            trace::counter("powercap.cycles_over_budget", 1);
        }
        if jobs.is_empty() {
            return current;
        }
        if error > 0.0 {
            // Over budget: tighten, weighted by each job's shed-able power
            // (current draw minus its draw at the floor).
            let sheddable: Vec<f64> = jobs
                .iter()
                .map(|j| {
                    let at_floor = j.response.power_at(self.floor_for(j)) * j.nodes as f64;
                    (j.response.power_at(j.cap_w) * j.nodes as f64 - at_floor).max(0.0)
                })
                .collect();
            let total_sheddable: f64 = sheddable.iter().sum();
            if total_sheddable > 1e-9 {
                let shed = (error * self.gain).min(total_sheddable);
                for (j, s) in jobs.iter_mut().zip(&sheddable) {
                    if *s <= 0.0 {
                        continue;
                    }
                    let target_power = j.response.power_at(j.cap_w) * j.nodes as f64
                        - shed * s / total_sheddable;
                    let before = j.cap_w;
                    j.cap_w = self
                        .cap_for_power(j, target_power / j.nodes as f64)
                        .max(self.floor_for(j));
                    Self::cap_set_mark(j, before);
                }
            }
        } else {
            // Under budget: relax everyone toward the default cap,
            // proportionally to the available headroom.
            let headroom = -error * self.gain;
            let wants: Vec<f64> = jobs
                .iter()
                .map(|j| {
                    (j.response.power_at(self.cap_range_w.1) - j.response.power_at(j.cap_w))
                        .max(0.0)
                        * j.nodes as f64
                })
                .collect();
            let total_want: f64 = wants.iter().sum();
            if total_want > 1e-9 {
                let grant = headroom.min(total_want);
                for (j, w) in jobs.iter_mut().zip(&wants) {
                    if *w <= 0.0 {
                        continue;
                    }
                    let target_power = j.response.power_at(j.cap_w) * j.nodes as f64
                        + grant * w / total_want;
                    let before = j.cap_w;
                    j.cap_w = self.cap_for_power(j, target_power / j.nodes as f64);
                    Self::cap_set_mark(j, before);
                }
            }
        }
        let after = self.system_power_w(jobs);
        cycle_span.record("power_after_w", after);
        if trace::enabled() {
            // The distribution of assigned caps across managed jobs: a
            // scrape shows at a glance whether the regulator is pinning
            // jobs at the floor (left mass) or leaving headroom unused
            // (right mass). Caps live in [100, 400] W, inside the
            // power_watts bucket table.
            for j in jobs.iter() {
                trace::histogram("powercap_cap_watts", j.cap_w);
            }
        }
        after
    }

    /// Emit a `powercap.cap_set` mark when a job's cap actually moved.
    fn cap_set_mark(job: &ControlledJob, before_w: f64) {
        if (job.cap_w - before_w).abs() > 1e-9 {
            trace::mark_with("powercap.cap_set", || {
                vec![
                    ("job", job.id.into()),
                    ("from_w", before_w.into()),
                    ("to_w", job.cap_w.into()),
                ]
            });
            trace::counter("powercap.cap_changes", 1);
        }
    }

    /// Invert a job's power curve: the cap whose predicted node power is
    /// closest to `node_power_w` (bisection over the cap range).
    fn cap_for_power(&self, job: &ControlledJob, node_power_w: f64) -> f64 {
        let (mut lo, mut hi) = self.cap_range_w;
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if job.response.power_at(mid) < node_power_w {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Run until the system power stabilises (successive cycles change by
    /// <1 W) or `max_cycles` elapse. Returns `(cycles used, final power)`.
    pub fn converge(&self, jobs: &mut [ControlledJob], max_cycles: usize) -> (usize, f64) {
        let mut last = self.system_power_w(jobs);
        for cycle in 1..=max_cycles {
            let now = self.step(jobs);
            if (now - last).abs() < 1.0 {
                return (cycle, now);
            }
            last = now;
        }
        (max_cycles, last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hungry(id: u64) -> ControlledJob {
        ControlledJob {
            id,
            nodes: 1,
            response: CapResponse::new(vec![
                (100.0, 0.40, 900.0),
                (200.0, 0.91, 1300.0),
                (300.0, 1.00, 1750.0),
                (400.0, 1.00, 1810.0),
            ]),
            cap_w: 400.0,
        }
    }

    fn light(id: u64) -> ControlledJob {
        ControlledJob {
            id,
            nodes: 1,
            response: CapResponse::new(vec![
                (100.0, 0.96, 720.0),
                (200.0, 1.00, 760.0),
                (400.0, 1.00, 766.0),
            ]),
            cap_w: 400.0,
        }
    }

    #[test]
    fn over_budget_tightens_toward_the_budget() {
        // Three hungry jobs at 1810 W = 5430 W against a 4500 W budget.
        let ctrl = Controller::new(4500.0);
        let mut jobs = vec![hungry(1), hungry(2), hungry(3)];
        let (cycles, power) = ctrl.converge(&mut jobs, 20);
        assert!(cycles < 20, "must converge");
        assert!(power <= 4500.0 + 30.0, "final power {power}");
        assert!(jobs.iter().all(|j| j.cap_w < 400.0));
    }

    #[test]
    fn caps_never_violate_the_loss_floor() {
        // Impossible budget: the controller must stop at the perf floor,
        // not crush jobs to the device minimum.
        let ctrl = Controller::new(1000.0);
        let mut jobs = vec![hungry(1), hungry(2)];
        let _ = ctrl.converge(&mut jobs, 50);
        for j in &jobs {
            let floor = ctrl.floor_for(j);
            assert!(j.cap_w >= floor - 1e-6, "cap {} below floor {floor}", j.cap_w);
            assert!(
                j.response.perf_at(j.cap_w) >= 1.0 - ctrl.max_loss - 1e-6,
                "perf guard violated"
            );
        }
    }

    #[test]
    fn under_budget_relaxes_back_to_default() {
        let ctrl = Controller::new(10_000.0);
        let mut jobs = vec![hungry(1)];
        jobs[0].cap_w = 200.0;
        let _ = ctrl.converge(&mut jobs, 30);
        assert!(jobs[0].cap_w > 390.0, "cap should relax: {}", jobs[0].cap_w);
    }

    #[test]
    fn light_jobs_are_left_alone_when_tightening() {
        // The light job has nothing to shed (its floor equals ~its draw);
        // the hungry job takes the cut.
        let ctrl = Controller::new(2200.0);
        let mut jobs = vec![hungry(1), light(2)];
        let _ = ctrl.converge(&mut jobs, 30);
        let hungry_draw = jobs[0].response.power_at(jobs[0].cap_w);
        assert!(hungry_draw < 1700.0, "hungry job tightened: {hungry_draw}");
        // The light job's power barely moves under any cap.
        let light_draw = jobs[1].response.power_at(jobs[1].cap_w);
        assert!((light_draw - 766.0).abs() < 50.0, "light stays ~766: {light_draw}");
    }

    #[test]
    fn stable_at_budget() {
        let ctrl = Controller::new(5000.0);
        let mut jobs = vec![hungry(1), hungry(2)];
        let before = ctrl.system_power_w(&jobs); // 3620 < budget
        let after = ctrl.step(&mut jobs);
        // Already under budget with caps at max: nothing to relax into.
        assert!((after - before).abs() < 1.0);
    }

    #[test]
    fn control_cycles_are_traced() {
        let ctrl = Controller::new(4500.0);
        let mut jobs = vec![hungry(1), hungry(2), hungry(3)];
        let session = vpp_substrate::trace::session(4096);
        let (cycles, power) = ctrl.converge(&mut jobs, 20);
        let report = session.finish();
        assert!(report.well_formed().is_ok(), "{:?}", report.well_formed());
        assert_eq!(report.counters["powercap.cycles"] as usize, cycles);
        assert!(report.counters["powercap.cap_changes"] >= 3, "all jobs tightened");
        // Starting 5430 W over a 4500 W budget: the first cycle overshoots,
        // and the gauge holds the last cycle's entering overshoot.
        assert!(report.counters["powercap.cycles_over_budget"] >= 1);
        let last_overshoot = report.gauges["powercap.overshoot_w"];
        assert!(last_overshoot <= 5430.0 - 4500.0);
        let cap_marks = report
            .marks()
            .iter()
            .filter(|m| m.name == "powercap.cap_set")
            .count();
        assert_eq!(cap_marks as u64, report.counters["powercap.cap_changes"]);
        let cycle_spans: Vec<_> = report
            .spans()
            .into_iter()
            .filter(|s| s.name == "powercap.cycle")
            .collect();
        assert_eq!(cycle_spans.len(), cycles);
        let final_span = cycle_spans.last().unwrap();
        assert!((final_span.field_f64("power_after_w").unwrap() - power).abs() < 1e-9);
    }

    #[test]
    fn empty_job_set_is_zero_power() {
        let ctrl = Controller::new(1000.0);
        let mut jobs: Vec<ControlledJob> = vec![];
        assert_eq!(ctrl.step(&mut jobs), 0.0);
    }
}
