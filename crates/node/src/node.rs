//! Node assembly: components → the power channels Cray PM reports.

use crate::cpu::CpuModel;
use crate::memory::MemoryModel;
use vpp_gpu::{A100Spec, Gpu, GpuVariability};
use vpp_sim::{PowerTrace, Rng};

/// Static node-level specification (paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// CPU TDP, watts.
    pub cpu_tdp_w: f64,
    /// Per-GPU TDP, watts.
    pub gpu_tdp_w: f64,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// Peripheral (DDR + NIC + misc) TDP, watts.
    pub periph_tdp_w: f64,
}

impl NodeSpec {
    /// The Perlmutter 40 GB GPU node.
    #[must_use]
    pub fn perlmutter() -> Self {
        Self {
            cpu_tdp_w: 280.0,
            gpu_tdp_w: 400.0,
            gpus_per_node: 4,
            periph_tdp_w: 470.0,
        }
    }

    /// Node TDP: 280 + 4×400 + 470 = 2350 W (paper §II-A).
    #[must_use]
    pub fn node_tdp_w(&self) -> f64 {
        self.cpu_tdp_w + self.gpus_per_node as f64 * self.gpu_tdp_w + self.periph_tdp_w
    }
}

impl Default for NodeSpec {
    fn default() -> Self {
        Self::perlmutter()
    }
}

/// One concrete node: per-component variability samples and its four GPUs.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeInstance {
    pub spec: NodeSpec,
    pub cpu: CpuModel,
    pub mem: MemoryModel,
    pub gpus: Vec<Gpu>,
    /// Baseline power of NICs, fans, VRM losses etc., watts.
    pub periph_idle_w: f64,
    /// Peripheral power while a job is resident (NIC links up, fans high).
    pub periph_active_w: f64,
}

impl NodeInstance {
    /// A nominal node (no variability), default spec.
    #[must_use]
    pub fn nominal() -> Self {
        let spec = NodeSpec::default();
        Self {
            spec,
            cpu: CpuModel::nominal(),
            mem: MemoryModel::nominal(),
            gpus: (0..spec.gpus_per_node).map(|_| Gpu::nominal()).collect(),
            periph_idle_w: 128.0,
            periph_active_w: 168.0,
        }
    }

    /// Draw a node from the fleet distribution. Distinct seeds model
    /// distinct physical nodes (§III-B.2, Fig. 1).
    #[must_use]
    pub fn sample(rng: &mut Rng) -> Self {
        let spec = NodeSpec::default();
        let gpu_spec = A100Spec::default();
        // A node-level quality factor shared by its boards and peripherals:
        // the same node that idles hot also runs DGEMM and VASP hot
        // (Fig. 1's consistent per-node offsets).
        let node_quality = rng.fork(0x7175_616c).normal_clamped(0.0, 0.8, -2.0, 2.0);
        let gpus = (0..spec.gpus_per_node)
            .map(|i| {
                let mut grng = rng.fork(0x6770_7500 + i as u64);
                Gpu::new(
                    gpu_spec,
                    vpp_gpu::calib::ThrottleCalib::default(),
                    GpuVariability::sample_with_quality(&mut grng, node_quality),
                )
            })
            .collect();
        Self {
            spec,
            cpu: CpuModel::sample(&mut rng.fork(0x63_7075)),
            mem: MemoryModel::sample(&mut rng.fork(0x6d_656d)),
            gpus,
            periph_idle_w: (128.0
                + 4.0 * node_quality
                + rng.normal_clamped(0.0, 5.0, -15.0, 15.0))
            .clamp(100.0, 160.0),
            periph_active_w: (168.0
                + 4.0 * node_quality
                + rng.normal_clamped(0.0, 5.0, -15.0, 15.0))
            .clamp(140.0, 200.0),
        }
    }

    /// Set the same power limit on all four GPUs (what `nvidia-smi -pl`
    /// without an index does). Returns the applied limit.
    pub fn set_gpu_power_limit(&mut self, watts: f64) -> f64 {
        let mut applied = watts;
        for g in &mut self.gpus {
            applied = g.set_power_limit(watts);
        }
        applied
    }

    /// Reset all GPU power limits to the default.
    pub fn reset_gpu_power_limits(&mut self) {
        for g in &mut self.gpus {
            g.reset_power_limit();
        }
    }

    /// Idle power of the whole node, watts.
    #[must_use]
    pub fn idle_w(&self) -> f64 {
        self.cpu.power(0.0)
            + self.mem.power(0.0)
            + self.gpus.iter().map(Gpu::idle_w).sum::<f64>()
            + self.periph_idle_w
    }
}

impl Default for NodeInstance {
    fn default() -> Self {
        Self::nominal()
    }
}

/// The per-node power channels the monitoring stack exposes (§II-B): total
/// node power, CPU, DDR, and each GPU. Node total includes peripherals the
/// other channels do not cover — the "gap" visible in Fig. 3.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentTraces {
    pub node: PowerTrace,
    pub cpu: PowerTrace,
    pub mem: PowerTrace,
    pub gpus: Vec<PowerTrace>,
}

/// The inputs of a node-total channel, in the one order that both
/// [`ComponentTraces::assemble`] and [`ComponentTraces::node_energy`] merge
/// them: the order fixes the merge's float rounding, so the two agree bit
/// for bit only while they share it.
fn node_parts<'a>(
    cpu: &'a PowerTrace,
    mem: &'a PowerTrace,
    gpus: &'a [PowerTrace],
    periph: &'a PowerTrace,
) -> Vec<&'a PowerTrace> {
    let mut parts = vec![cpu, mem, periph];
    parts.extend(gpus);
    parts
}

impl ComponentTraces {
    /// Assemble the node-total channel from component traces plus the
    /// peripheral envelope (not individually metered).
    #[must_use]
    pub fn assemble(
        cpu: PowerTrace,
        mem: PowerTrace,
        gpus: Vec<PowerTrace>,
        periph: PowerTrace,
    ) -> Self {
        let node = PowerTrace::sum(&node_parts(&cpu, &mem, &gpus, &periph));
        Self {
            node,
            cpu,
            mem,
            gpus,
        }
    }

    /// The energy of the node-total channel [`ComponentTraces::assemble`]
    /// would build from the same components, bit for bit, without building
    /// it: for a reader of one node's channels that still needs every
    /// node's energy.
    #[must_use]
    pub fn node_energy(
        cpu: &PowerTrace,
        mem: &PowerTrace,
        gpus: &[PowerTrace],
        periph: &PowerTrace,
    ) -> f64 {
        PowerTrace::sum_energy(&node_parts(cpu, mem, gpus, periph))
    }

    /// Sum of the four GPU channels (Fig. 6 reports "per four GPUs").
    #[must_use]
    pub fn gpu_total(&self) -> PowerTrace {
        PowerTrace::sum(&self.gpus.iter().collect::<Vec<_>>())
    }

    /// Concatenate two channel sets in time (e.g. prologue ‖ VASP).
    ///
    /// # Panics
    /// If `later` starts before `self` ends or GPU counts differ.
    pub fn append(&mut self, later: &ComponentTraces) {
        assert_eq!(self.gpus.len(), later.gpus.len(), "GPU count mismatch");
        self.node.append(&later.node);
        self.cpu.append(&later.cpu);
        self.mem.append(&later.mem);
        for (a, b) in self.gpus.iter_mut().zip(later.gpus.iter()) {
            a.append(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_tdp_matches_paper() {
        assert_eq!(NodeSpec::perlmutter().node_tdp_w(), 2350.0);
    }

    #[test]
    fn nominal_idle_in_observed_range() {
        // Paper §III-B.2: idle node power observed between 410 and 510 W.
        let n = NodeInstance::nominal();
        let idle = n.idle_w();
        assert!((410.0..510.0).contains(&idle), "idle = {idle}");
    }

    #[test]
    fn sampled_idle_spread_matches_paper() {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for seed in 0..32 {
            let n = NodeInstance::sample(&mut Rng::new(seed));
            let idle = n.idle_w();
            min = min.min(idle);
            max = max.max(idle);
        }
        assert!(min > 395.0, "min idle = {min}");
        assert!(max < 525.0, "max idle = {max}");
        assert!(max - min > 25.0, "fleet should spread visibly: {}", max - min);
    }

    #[test]
    fn sample_is_deterministic() {
        let a = NodeInstance::sample(&mut Rng::new(5));
        let b = NodeInstance::sample(&mut Rng::new(5));
        assert_eq!(a, b);
    }

    #[test]
    fn four_gpus_per_node() {
        assert_eq!(NodeInstance::nominal().gpus.len(), 4);
    }

    #[test]
    fn power_limit_fans_out_to_all_gpus() {
        let mut n = NodeInstance::nominal();
        let applied = n.set_gpu_power_limit(250.0);
        assert_eq!(applied, 250.0);
        assert!(n.gpus.iter().all(|g| g.power_limit_w() == 250.0));
        n.reset_gpu_power_limits();
        assert!(n.gpus.iter().all(|g| g.power_limit_w() == 400.0));
    }

    #[test]
    fn assemble_sums_components() {
        let cpu = PowerTrace::from_segments(0.0, [(2.0, 100.0)]);
        let mem = PowerTrace::from_segments(0.0, [(2.0, 30.0)]);
        let gpus = vec![
            PowerTrace::from_segments(0.0, [(2.0, 200.0)]),
            PowerTrace::from_segments(0.0, [(2.0, 210.0)]),
        ];
        let periph = PowerTrace::from_segments(0.0, [(2.0, 130.0)]);
        let c = ComponentTraces::assemble(cpu, mem, gpus, periph);
        assert!((c.node.power_at(1.0) - 670.0).abs() < 1e-9);
        assert!((c.gpu_total().power_at(1.0) - 410.0).abs() < 1e-9);
    }

    #[test]
    fn node_energy_is_the_bits_of_the_assembled_node_channel() {
        // Offset GPU traces and a short CPU trace, so the merge sweeps
        // breakpoints the inputs do not share.
        let mut rng = Rng::new(11);
        let mut trace = |start: f64| {
            PowerTrace::from_segments(
                start,
                (0..200)
                    .map(|_| (rng.uniform(0.01, 1.0), rng.uniform(50.0, 400.0)))
                    .collect::<Vec<_>>(),
            )
        };
        let (cpu, mem) = (trace(0.0), trace(0.0));
        let gpus: Vec<PowerTrace> = (0..4).map(|g| trace(0.1 * f64::from(g))).collect();
        let periph = PowerTrace::from_segments(0.0, [(150.0, 168.0)]);
        let e = ComponentTraces::node_energy(&cpu, &mem, &gpus, &periph);
        let c = ComponentTraces::assemble(cpu, mem, gpus, periph);
        assert_eq!(e.to_bits(), c.node.energy().to_bits());
    }

    #[test]
    fn node_channel_exceeds_metered_components() {
        // The "gap" of Fig. 3: node > cpu + mem + gpus because peripherals
        // are not individually metered.
        let cpu = PowerTrace::from_segments(0.0, [(1.0, 100.0)]);
        let mem = PowerTrace::from_segments(0.0, [(1.0, 30.0)]);
        let gpus = vec![PowerTrace::from_segments(0.0, [(1.0, 300.0)])];
        let periph = PowerTrace::from_segments(0.0, [(1.0, 150.0)]);
        let c = ComponentTraces::assemble(cpu, mem, gpus, periph);
        let metered = c.cpu.power_at(0.5) + c.mem.power_at(0.5) + c.gpus[0].power_at(0.5);
        assert!(c.node.power_at(0.5) > metered);
    }

    #[test]
    fn append_concatenates_all_channels() {
        let mk = |t0: f64, w: f64| {
            ComponentTraces::assemble(
                PowerTrace::from_segments(t0, [(1.0, w)]),
                PowerTrace::from_segments(t0, [(1.0, 10.0)]),
                vec![PowerTrace::from_segments(t0, [(1.0, 50.0)])],
                PowerTrace::from_segments(t0, [(1.0, 20.0)]),
            )
        };
        let mut a = mk(0.0, 100.0);
        let b = mk(1.0, 200.0);
        a.append(&b);
        assert!((a.node.duration() - 2.0).abs() < 1e-9);
        assert_eq!(a.cpu.power_at(1.5), 200.0);
    }
}
