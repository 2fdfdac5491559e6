//! DVFS frequency pinning — the control knob the paper chose *not* to use.
//!
//! §V: "While the DVFS method is commonly employed for its ease of use, we
//! chose to use power capping to control the device power, which is more
//! efficient and accurate \[31\]". This module implements the alternative
//! (`nvidia-smi -lgc`-style fixed graphics clocks) so that claim is testable
//! inside the model: at a pinned clock the *power* still varies with the
//! workload (you cannot dial in a wattage), whereas a cap regulates power
//! directly and only throttles when needed.

use crate::dvfs::DvfsCurve;
use crate::kernel::Kernel;
use crate::power::Gpu;

/// Outcome of running a kernel at a pinned clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsExecuted {
    pub duration_s: f64,
    pub watts: f64,
    /// The pinned normalised clock actually applied.
    pub clock: f64,
}

/// A fixed-clock controller wrapping a board.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsControl {
    curve: DvfsCurve,
    /// Pinned normalised clock (1 = boost).
    clock: f64,
}

impl DvfsControl {
    /// Pin the clock to `clock` (normalised; clamped to the curve's range).
    #[must_use]
    pub fn pin(clock: f64) -> Self {
        let curve = DvfsCurve::a100();
        Self {
            clock: clock.clamp(curve.f_min, 1.0),
            curve,
        }
    }

    /// The applied normalised clock.
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Run `kernel` on `gpu` at the pinned clock.
    ///
    /// Power scales with the DVFS curve's dynamic fraction at the pinned
    /// clock; runtime stretches through the kind's cap sensitivity (the
    /// same clock-dependence capping exploits).
    #[must_use]
    pub fn execute(&self, gpu: &Gpu, kernel: &Kernel) -> DvfsExecuted {
        let p0 = gpu.uncapped_power(kernel);
        let idle = gpu.idle_w();
        let phi = self.curve.power_fraction(self.clock);
        let watts = idle + (p0 - idle) * phi;
        let s = kernel.kind.cap_sensitivity();
        let speed = 1.0 - s + s * self.clock;
        let base = gpu.execute(kernel).duration_s; // unthrottled baseline
        DvfsExecuted {
            duration_s: base / speed.max(1e-6),
            watts,
            clock: self.clock,
        }
    }

    /// The pinned clock that would bring a kernel of uncapped power `p0`
    /// down to `target_w` on a board with idle power `idle_w` — what an
    /// operator must compute *per workload* to emulate a cap with DVFS.
    #[must_use]
    pub fn clock_for_target(&self, p0: f64, idle_w: f64, target_w: f64) -> f64 {
        if p0 <= target_w {
            return 1.0;
        }
        let phi = ((target_w - idle_w) / (p0 - idle_w)).max(0.0);
        self.curve.clock_for_power(phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelKind;

    fn hot() -> Kernel {
        Kernel::new(KernelKind::TensorGemm, 2e7, 1.0)
    }

    fn cool() -> Kernel {
        Kernel::new(KernelKind::Fft3d, 5e5, 1.0)
    }

    #[test]
    fn full_clock_matches_uncapped_execution() {
        let gpu = Gpu::nominal();
        let ctrl = DvfsControl::pin(1.0);
        let ex = ctrl.execute(&gpu, &hot());
        let free = gpu.execute(&hot());
        assert!((ex.duration_s - free.duration_s).abs() < 1e-12);
        assert!((ex.watts - free.watts).abs() < 1e-9);
    }

    #[test]
    fn pinned_clock_reduces_power_and_speed() {
        let gpu = Gpu::nominal();
        let ctrl = DvfsControl::pin(0.7);
        let ex = ctrl.execute(&gpu, &hot());
        let free = gpu.execute(&hot());
        assert!(ex.watts < free.watts * 0.6, "cubic power drop: {}", ex.watts);
        assert!(ex.duration_s > free.duration_s * 1.3, "linear slowdown");
    }

    #[test]
    fn clock_clamps_to_device_range() {
        assert_eq!(DvfsControl::pin(2.0).clock(), 1.0);
        let c = DvfsControl::pin(0.0);
        assert!((c.clock() - DvfsCurve::a100().f_min).abs() < 1e-12);
    }

    #[test]
    fn dvfs_power_varies_with_workload_but_caps_do_not() {
        // The paper's §V argument, reproduced: pin a clock chosen so the
        // *hot* kernel meets a 200 W target, then run a cooler kernel —
        // under DVFS its power is far below target (wasted headroom and
        // wasted speed), while a 200 W cap leaves the cooler kernel at full
        // speed and lets the hot one use exactly the target.
        let gpu = Gpu::nominal();
        let p0_hot = gpu.uncapped_power(&hot());
        let ctrl = DvfsControl::pin(
            DvfsControl::pin(1.0).clock_for_target(p0_hot, gpu.idle_w(), 200.0),
        );
        let hot_dvfs = ctrl.execute(&gpu, &hot());
        assert!((hot_dvfs.watts - 200.0).abs() < 10.0, "{}", hot_dvfs.watts);

        let cool_dvfs = ctrl.execute(&gpu, &cool());
        let mut capped = Gpu::nominal();
        capped.set_power_limit(200.0);
        let cool_capped = capped.execute(&cool());
        // Same 200 W target: DVFS slows the cool kernel; the cap does not.
        assert_eq!(cool_capped.perf, 1.0, "cap leaves sub-limit work alone");
        assert!(
            cool_dvfs.duration_s > gpu.execute(&cool()).duration_s * 1.02,
            "pinned clocks tax everything"
        );
    }

    #[test]
    fn capping_regulates_more_accurately_than_dvfs_across_a_mix() {
        // Run a mixed kernel set under both controls targeting 200 W and
        // compare worst-case deviation of *hot* kernels from the target.
        let gpu = Gpu::nominal();
        let kernels = [
            Kernel::new(KernelKind::TensorGemm, 2e7, 1.0),
            Kernel::new(KernelKind::Fft3d, 8e6, 1.0),
            Kernel::new(KernelKind::MemBound, 6e6, 1.0),
        ];
        let mut capped = Gpu::nominal();
        capped.set_power_limit(200.0);

        // One pinned clock must serve the whole mix: choose it for the mean.
        let mean_p0: f64 =
            kernels.iter().map(|k| gpu.uncapped_power(k)).sum::<f64>() / 3.0;
        let ctrl = DvfsControl::pin(
            DvfsControl::pin(1.0).clock_for_target(mean_p0, gpu.idle_w(), 200.0),
        );

        let cap_dev = kernels
            .iter()
            .map(|k| (capped.execute(k).watts - 200.0).abs())
            .fold(0.0, f64::max);
        let dvfs_dev = kernels
            .iter()
            .map(|k| (ctrl.execute(&gpu, k).watts - 200.0).abs())
            .fold(0.0, f64::max);
        assert!(
            cap_dev < dvfs_dev,
            "capping should track the target better: cap {cap_dev} vs dvfs {dvfs_dev}"
        );
    }
}
