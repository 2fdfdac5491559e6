//! Energy/performance trade-off metrics.
//!
//! The paper's related-work section (§VII, refs \[49\]–\[51\]) surveys metrics
//! for quantifying the energy/performance trade-off power management
//! introduces: plain energy, energy-delay product (EDP), and
//! energy-delay-squared (ED²P, Martin's ET² metric). This module implements
//! them over measured `(cap, energy, runtime)` points so a per-workload
//! "best cap" can be chosen under any of the three objectives.

/// One measured operating point of a workload under a power cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Applied GPU cap, watts.
    pub cap_w: f64,
    /// Energy-to-solution, joules.
    pub energy_j: f64,
    /// Runtime, seconds.
    pub runtime_s: f64,
}

impl OperatingPoint {
    /// Energy-delay product, J·s.
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.energy_j * self.runtime_s
    }

    /// Energy-delay-squared product (ET²), J·s².
    #[must_use]
    pub fn ed2p(&self) -> f64 {
        self.energy_j * self.runtime_s * self.runtime_s
    }
}

/// The objective to minimise when picking a cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimise energy-to-solution (throughput-insensitive).
    Energy,
    /// Balance energy and delay (EDP).
    Edp,
    /// Delay-dominated balance (ED²P) — closest to "performance first".
    Ed2p,
}

/// The operating point minimising `objective`.
///
/// # Panics
/// If `points` is empty or any point is non-positive.
#[must_use]
pub fn best_point(points: &[OperatingPoint], objective: Objective) -> OperatingPoint {
    assert!(!points.is_empty(), "no operating points");
    for p in points {
        assert!(
            p.cap_w > 0.0 && p.energy_j > 0.0 && p.runtime_s > 0.0,
            "bad operating point {p:?}"
        );
    }
    let score = |p: &OperatingPoint| match objective {
        Objective::Energy => p.energy_j,
        Objective::Edp => p.edp(),
        Objective::Ed2p => p.ed2p(),
    };
    *points
        .iter()
        .min_by(|a, b| score(a).total_cmp(&score(b)))
        .expect("non-empty")
}

/// The Pareto-optimal subset of operating points under (runtime, energy):
/// a point survives if no other point is at least as fast *and* at least
/// as frugal (with one strict). Returned sorted by runtime.
///
/// # Panics
/// If `points` is empty or contains non-positive values.
#[must_use]
pub fn pareto_front(points: &[OperatingPoint]) -> Vec<OperatingPoint> {
    assert!(!points.is_empty(), "no operating points");
    let mut front: Vec<OperatingPoint> = points
        .iter()
        .filter(|p| {
            !points.iter().any(|q| {
                q.runtime_s <= p.runtime_s
                    && q.energy_j <= p.energy_j
                    && (q.runtime_s < p.runtime_s || q.energy_j < p.energy_j)
            })
        })
        .copied()
        .collect();
    front.sort_by(|a, b| a.runtime_s.total_cmp(&b.runtime_s));
    front.dedup_by(|a, b| a.runtime_s == b.runtime_s && a.energy_j == b.energy_j);
    front
}

/// Relative regret of choosing `chosen` instead of the optimum under
/// `objective` (0 = optimal).
#[must_use]
pub fn regret(points: &[OperatingPoint], chosen: &OperatingPoint, objective: Objective) -> f64 {
    let best = best_point(points, objective);
    let score = |p: &OperatingPoint| match objective {
        Objective::Energy => p.energy_j,
        Objective::Edp => p.edp(),
        Objective::Ed2p => p.ed2p(),
    };
    score(chosen) / score(&best) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A VASP-hungry-like response: deep caps save energy but cost a lot
    /// of time.
    fn hungry() -> Vec<OperatingPoint> {
        vec![
            OperatingPoint { cap_w: 400.0, energy_j: 2.2e6, runtime_s: 1300.0 },
            OperatingPoint { cap_w: 300.0, energy_j: 2.0e6, runtime_s: 1310.0 },
            OperatingPoint { cap_w: 200.0, energy_j: 1.6e6, runtime_s: 1400.0 },
            OperatingPoint { cap_w: 100.0, energy_j: 1.4e6, runtime_s: 3700.0 },
        ]
    }

    /// A cap-tolerant response: deep caps are almost free.
    fn tolerant() -> Vec<OperatingPoint> {
        vec![
            OperatingPoint { cap_w: 400.0, energy_j: 0.9e6, runtime_s: 1100.0 },
            OperatingPoint { cap_w: 200.0, energy_j: 0.75e6, runtime_s: 1105.0 },
            OperatingPoint { cap_w: 100.0, energy_j: 0.70e6, runtime_s: 1120.0 },
        ]
    }

    #[test]
    fn objectives_disagree_where_they_should() {
        let pts = hungry();
        assert_eq!(best_point(&pts, Objective::Energy).cap_w, 100.0);
        assert_eq!(best_point(&pts, Objective::Edp).cap_w, 200.0);
        assert_eq!(best_point(&pts, Objective::Ed2p).cap_w, 200.0);
    }

    #[test]
    fn tolerant_workloads_cap_deep_under_every_objective() {
        let pts = tolerant();
        for obj in [Objective::Energy, Objective::Edp, Objective::Ed2p] {
            assert_eq!(best_point(&pts, obj).cap_w, 100.0, "{obj:?}");
        }
    }

    #[test]
    fn regret_is_zero_at_the_optimum_and_positive_elsewhere() {
        let pts = hungry();
        let best = best_point(&pts, Objective::Edp);
        assert_eq!(regret(&pts, &best, Objective::Edp), 0.0);
        let worst = pts[3];
        assert!(regret(&pts, &worst, Objective::Edp) > 0.5);
    }

    #[test]
    fn edp_math() {
        let p = OperatingPoint { cap_w: 200.0, energy_j: 10.0, runtime_s: 3.0 };
        assert_eq!(p.edp(), 30.0);
        assert_eq!(p.ed2p(), 90.0);
    }

    #[test]
    fn pareto_front_drops_dominated_points() {
        let mut pts = hungry();
        // A dominated point: slower AND more energy than the 200 W point.
        pts.push(OperatingPoint { cap_w: 150.0, energy_j: 1.7e6, runtime_s: 1500.0 });
        let front = pareto_front(&pts);
        assert!(front
            .iter()
            .all(|p| !(p.cap_w == 150.0)), "dominated point survived: {front:?}");
        // The front is runtime-sorted and energy-decreasing.
        for w in front.windows(2) {
            assert!(w[0].runtime_s <= w[1].runtime_s);
            assert!(w[0].energy_j >= w[1].energy_j);
        }
        // The energy optimum and the runtime optimum both survive.
        assert!(front.iter().any(|p| p.cap_w == 100.0));
        assert!(front.iter().any(|p| p.cap_w == 400.0 || p.cap_w == 300.0));
    }

    #[test]
    #[should_panic(expected = "no operating points")]
    fn empty_points_panic() {
        let _ = best_point(&[], Objective::Edp);
    }
}
