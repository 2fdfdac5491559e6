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
    fn edp_math() {
        let p = OperatingPoint { cap_w: 200.0, energy_j: 10.0, runtime_s: 3.0 };
        assert_eq!(p.edp(), 30.0);
        assert_eq!(p.ed2p(), 90.0);
    }

    #[test]
    #[should_panic(expected = "no operating points")]
    fn empty_points_panic() {
        let _ = best_point(&[], Objective::Edp);
    }
}
