//! The job executor: replay a per-rank plan on modelled nodes.

use crate::network::NetworkModel;
use vpp_dft::{CollectiveKind, Op, PhaseKind, ScfPlan};
use vpp_gpu::{Executed, Gpu, Kernel, KernelKind};
use vpp_node::{ComponentTraces, CpuModel, MemoryModel, NodeInstance};
use vpp_sim::{EnergyFold, PowerTrace, Rng};
use vpp_substrate::{span, trace};

/// Fault injection: one underperforming node (failing DIMM, thermal issue,
/// congested NIC) — what the paper's five-repeat / DGEMM-screen protocol
/// exists to catch (§III-B.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// Index of the slow node within the allocation.
    pub node: usize,
    /// Multiplier on that node's GPU kernel durations (> 1 = slower).
    pub slowdown: f64,
}

/// Job configuration: where and how a plan runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Allocated nodes (4 GPUs / MPI ranks each).
    pub nodes: usize,
    /// GPU power limit applied via the node's `nvidia-smi` analogue;
    /// `None` = default 400 W.
    pub gpu_power_cap_w: Option<f64>,
    /// Fleet seed: selects which physical nodes the job lands on.
    pub seed: u64,
    /// Job start time on the shared clock, seconds.
    pub start_s: f64,
    /// Startup stage (input parsing, wavefunction init), seconds.
    pub init_host_s: f64,
    /// Optional injected straggler node.
    pub straggler: Option<Straggler>,
    /// OS-noise amplitude: each op on each rank is stretched by up to this
    /// fraction (uniform, per-rank deterministic). 0 = no jitter.
    pub os_jitter: f64,
    /// Fault injection for regression-triage testing: stretch every
    /// compute op (GPU and host, not collectives) inside phases of the
    /// given kind by the factor. `vpp trace diff` must name exactly this
    /// phase as the culprit.
    pub phase_slowdown: Option<(PhaseKind, f64)>,
    /// The communication-side counterpart of `phase_slowdown`: stretch
    /// every collective's network time (not compute, not waits) by the
    /// factor. `vpp trace diff` must see `job.collective` move — and
    /// nothing but communication — so triage can tell a network
    /// regression from a compute one.
    pub collective_slowdown: Option<f64>,
}

impl JobSpec {
    /// A default job on `nodes` nodes.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        Self {
            nodes,
            gpu_power_cap_w: None,
            seed: 0x5641_5350, // "VASP"
            start_s: 0.0,
            init_host_s: 6.0,
            straggler: None,
            os_jitter: 0.0,
            phase_slowdown: None,
            collective_slowdown: None,
        }
    }
}

/// Outcome of one job execution.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Wall-clock runtime, seconds (the paper's performance metric).
    pub runtime_s: f64,
    /// Monitoring channels: every allocated node's from [`execute`], node
    /// 0's alone from [`execute_node0`].
    pub node_traces: Vec<ComponentTraces>,
    /// Node-total energy of every allocated node, summed in node order.
    energy_j: f64,
}

impl JobResult {
    /// Total energy-to-solution across all nodes, joules (Figs. 7, 8):
    /// every allocated node's, whichever entry point ran the job.
    #[must_use]
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }
}

/// Execute `plan` under `spec` over `network`, returning every node's
/// channels: for readers of the whole allocation (Fig. 1's per-node
/// spread, the straggler screen, per-window energy over all nodes).
#[must_use]
pub fn execute(plan: &ScfPlan, spec: &JobSpec, network: &NetworkModel) -> JobResult {
    run(plan, spec, network, |ran: Ran<PowerTrace>| ran.read_out(spec.nodes))
}

/// [`execute`] for a reader of node 0 alone, as the §III-B protocol is:
/// the same run, with node 0's channels, the same runtime and the same
/// all-node energy, bit for bit. Nodes 1.. still run every op, but their
/// node-total channels are folded into energy
/// ([`ComponentTraces::node_energy`]) instead of being built.
#[must_use]
pub fn execute_node0(plan: &ScfPlan, spec: &JobSpec, network: &NetworkModel) -> JobResult {
    run(plan, spec, network, |ran: Ran<PowerTrace>| ran.read_out(1))
}

/// [`execute`]'s runtime alone, seconds, bit for bit: for a caller that
/// chooses among runs by runtime (the §III-B protocol) before reading one
/// out. The run records what [`execute`] records (spans, counters and
/// histograms, phase `energy_j` and `power_watts` included), but each
/// channel keeps only its tally ([`EnergyFold`]), not its segments, so the
/// call allocates next to nothing. The runtime reads the ranks' clocks
/// alone, and the tallies feed only the recorded phase energies, so with
/// no session bound the channels keep nothing at all.
#[must_use]
pub fn job_runtime(plan: &ScfPlan, spec: &JobSpec, network: &NetworkModel) -> f64 {
    if trace::enabled() {
        run(plan, spec, network, |ran: Ran<EnergyFold>| ran.t_end - ran.start_s)
    } else {
        run(plan, spec, network, |ran: Ran<()>| ran.t_end - ran.start_s)
    }
}

/// What the op loop keeps of each channel it drives: the segments
/// ([`PowerTrace`]), their tally ([`EnergyFold`]), or nothing (`()`).
/// The first two apply `push`'s rules, so `end` and `energy`, and with
/// them every recorded phase energy, read the same bits either way. No
/// clock reads a channel, so the runtime is the same with any of the
/// three.
trait Channel {
    /// An empty channel from `start`, with room for `segments` segments.
    fn open(start: f64, segments: usize) -> Self;
    fn push(&mut self, dur: f64, watts: f64);
    fn end(&self) -> f64;
    fn energy(&self) -> f64;
}

impl Channel for PowerTrace {
    fn open(start: f64, segments: usize) -> Self {
        PowerTrace::with_capacity(start, segments)
    }
    fn push(&mut self, dur: f64, watts: f64) {
        PowerTrace::push(self, dur, watts);
    }
    fn end(&self) -> f64 {
        PowerTrace::end(self)
    }
    fn energy(&self) -> f64 {
        PowerTrace::energy(self)
    }
}

impl Channel for EnergyFold {
    fn open(start: f64, _segments: usize) -> Self {
        EnergyFold::new(start)
    }
    fn push(&mut self, dur: f64, watts: f64) {
        EnergyFold::push(self, dur, watts);
    }
    fn end(&self) -> f64 {
        EnergyFold::end(self)
    }
    fn energy(&self) -> f64 {
        EnergyFold::energy(self)
    }
}

/// An untraced runtime pass's channel: it keeps nothing, and reads as
/// ending at +∞ with no energy, so the loop's host-side catch-up and final
/// pads push nothing into it. Only the phase energies, which a bound
/// session alone records, read a channel's values.
impl Channel for () {
    fn open(_start: f64, _segments: usize) -> Self {}
    fn push(&mut self, _dur: f64, _watts: f64) {}
    fn end(&self) -> f64 {
        f64::INFINITY
    }
    fn energy(&self) -> f64 {
        0.0
    }
}

/// A finished op loop, handed to the readout inside the job's span: the
/// nodes, every channel (rank r's GPU at `gpu[r]`, node n's CPU and DDR
/// at `cpu[n]` and `mem[n]`), the final barrier, and the segments each
/// host channel was sized for.
struct Ran<C> {
    start_s: f64,
    nodes: Vec<NodeInstance>,
    gpu: Vec<C>,
    cpu: Vec<C>,
    mem: Vec<C>,
    t_end: f64,
    host_segments: usize,
}

impl Ran<PowerTrace> {
    /// Assemble the first `keep` nodes' channels (peripherals active for
    /// the job's span) and fold each later node through the merge its
    /// node channel would take, so the energy keeps every bit either way.
    fn read_out(self, keep: usize) -> JobResult {
        debug_assert!(
            self.cpu
                .iter()
                .chain(&self.mem)
                .all(|t| t.len() <= self.host_segments),
            "a host trace outgrew its {} reserved segments",
            self.host_segments
        );
        let gpn = self.gpu.len() / self.nodes.len();
        let mut node_traces = Vec::with_capacity(keep);
        let mut node_energy = Vec::with_capacity(self.nodes.len());
        let mut gpu_iter = self.gpu.into_iter();
        for ((node, cpu), mem) in self.nodes.iter().zip(self.cpu).zip(self.mem) {
            let gpus: Vec<PowerTrace> = gpu_iter.by_ref().take(gpn).collect();
            let periph = PowerTrace::from_segments(
                self.start_s,
                [(self.t_end - self.start_s, node.periph_active_w)],
            );
            if node_traces.len() < keep {
                let c = ComponentTraces::assemble(cpu, mem, gpus, periph);
                node_energy.push(c.node.energy());
                node_traces.push(c);
            } else {
                node_energy.push(ComponentTraces::node_energy(&cpu, &mem, &gpus, &periph));
            }
        }
        JobResult {
            runtime_s: self.t_end - self.start_s,
            node_traces,
            energy_j: node_energy.into_iter().sum(),
        }
    }
}

/// Bitwise kernel identity: fields equal by `==` may still differ in the
/// sign of a zero, and the tables must return what a fresh solve would.
fn same_kernel(a: &Kernel, b: &Kernel) -> bool {
    a.kind == b.kind
        && a.width.to_bits() == b.width.to_bits()
        && a.duration_s.to_bits() == b.duration_s.to_bits()
        && a.duty.to_bits() == b.duty.to_bits()
}

/// Each GPU's solves for one run, made once per distinct input and kept in
/// first-use order: a plan replays a handful of distinct kernels (5 to 11
/// for a Table I plan) over up to ~1.4·10⁵ GPU ops. `Gpu::execute`,
/// `uncapped_power` and `effective_ceiling` are pure, so an entry is the
/// value a per-op call would return, bit for bit. The tables live for one
/// run: the cap and the fleet seed fix the GPUs they were solved on.
#[derive(Default)]
struct Solved {
    /// Distinct kernels, each with every rank's `Gpu::execute` result.
    kernels: Vec<(Kernel, Vec<Executed>)>,
    /// Distinct collective payloads (per-rank bytes), each with every
    /// rank's NCCL transfer power, watts.
    transfers: Vec<(f64, Vec<f64>)>,
}

impl Solved {
    /// Every rank's solve of `kernel`, indexed by rank.
    fn kernel(&mut self, kernel: &Kernel, gpus: &[&Gpu]) -> &[Executed] {
        let known = self
            .kernels
            .iter()
            .position(|(k, _)| same_kernel(k, kernel));
        let i = known.unwrap_or_else(|| {
            let solves = gpus.iter().map(|g| g.execute(kernel)).collect();
            self.kernels.push((*kernel, solves));
            self.kernels.len() - 1
        });
        &self.kernels[i].1
    }

    /// Every rank's power while a collective of `bytes` per rank transfers
    /// for `comm_s`, indexed by rank. The power follows the payload, not
    /// the duration, so one entry serves every collective of that payload.
    fn transfer_w(&mut self, bytes: f64, comm_s: f64, gpus: &[&Gpu]) -> &[f64] {
        let known = self
            .transfers
            .iter()
            .position(|(b, _)| b.to_bits() == bytes.to_bits());
        let i = known.unwrap_or_else(|| {
            let k = Kernel::new(KernelKind::NcclComm, bytes, comm_s);
            let watts = gpus
                .iter()
                .map(|g| g.uncapped_power(&k).min(g.effective_ceiling()))
                .collect();
            self.transfers.push((bytes, watts));
            self.transfers.len() - 1
        });
        &self.transfers[i].1
    }
}

/// The one executor body behind [`execute`], [`execute_node0`] and
/// [`job_runtime`]: runs every op on channels of kind `C`, then hands them
/// to `read` inside the job's span.
fn run<C: Channel, R>(
    plan: &ScfPlan,
    spec: &JobSpec,
    network: &NetworkModel,
    read: impl FnOnce(Ran<C>) -> R,
) -> R {
    assert!(spec.nodes > 0);
    let fleet = Rng::new(spec.seed);
    let mut nodes: Vec<NodeInstance> = (0..spec.nodes)
        .map(|i| NodeInstance::sample(&mut fleet.fork(i as u64)))
        .collect();
    if let Some(cap) = spec.gpu_power_cap_w {
        for n in &mut nodes {
            n.set_gpu_power_limit(cap);
        }
    }
    let gpn = nodes[0].gpus.len();
    let ranks = spec.nodes * gpn;
    // Rank r runs on GPU r % gpn of node r / gpn.
    let gpus: Vec<&Gpu> = nodes.iter().flat_map(|n| &n.gpus).collect();
    let mut solved = Solved::default();

    // Every trace is sized for its most segments, so none reallocates: the
    // injected init stage and the final barrier pad, one push per op, and
    // on the GPUs a collective's barrier wait on top of its transfer. On
    // the hosts every GPU op pushes the same drive power, so a run of them
    // merges into one segment: each other op opens at most one segment
    // for itself and one for the GPU run after it.
    let host_ops = plan
        .ops
        .iter()
        .filter(|op| !matches!(op, Op::Gpu(_)))
        .count();
    let host_segments = (2 + plan.ops.len()).min(3 + 2 * host_ops);
    let gpu_segments = 2 + plan.ops.len() + plan.collective_count();
    let traces = |n: usize, segments: usize| -> Vec<C> {
        (0..n).map(|_| C::open(spec.start_s, segments)).collect()
    };
    let mut gpu_traces = traces(ranks, gpu_segments);
    let mut cpu_traces = traces(spec.nodes, host_segments);
    let mut mem_traces = traces(spec.nodes, host_segments);
    let mut clock: Vec<f64> = vec![spec.start_s; ranks];

    assert!(
        (0.0..1.0).contains(&spec.os_jitter),
        "os_jitter must be in [0, 1)"
    );
    if let Some(s) = spec.straggler {
        assert!(s.node < spec.nodes, "straggler node out of range");
        assert!(s.slowdown >= 1.0, "straggler must not speed up");
    }
    if let Some((_, f)) = spec.phase_slowdown {
        assert!(f.is_finite() && f > 0.0, "phase slowdown factor must be positive");
    }
    if let Some(f) = spec.collective_slowdown {
        assert!(
            f.is_finite() && f > 0.0,
            "collective slowdown factor must be positive"
        );
    }
    let collective_factor = spec.collective_slowdown.unwrap_or(1.0);
    // Op-index → slowdown factor for the injected phase perturbation. The
    // injected init op at seq 0 precedes the plan, so plan op `i` runs at
    // sequence `i + 1`.
    let phase_factor = |seq: usize| -> f64 {
        let Some((kind, f)) = spec.phase_slowdown else {
            return 1.0;
        };
        let Some(i) = seq.checked_sub(1) else {
            return 1.0;
        };
        if plan
            .phases
            .iter()
            .any(|ph| ph.kind == kind && ph.start <= i && i < ph.end)
        {
            f
        } else {
            1.0
        }
    };
    let mut jitter_rngs: Vec<Rng> = (0..ranks)
        .map(|r| Rng::new(spec.seed ^ 0x6a69_7474).fork(r as u64))
        .collect();
    let stretch = |r: usize, rngs: &mut Vec<Rng>| -> f64 {
        let mut f = 1.0;
        if let Some(s) = spec.straggler {
            if r / gpn == s.node {
                f *= s.slowdown;
            }
        }
        if spec.os_jitter > 0.0 {
            f *= 1.0 + spec.os_jitter * rngs[r].f64();
        }
        f
    };

    let init = Op::Host {
        duration_s: spec.init_host_s,
        cpu_active: 0.30,
        mem_active: 0.40,
    };

    let mut job_span = span!(
        "job.execute",
        workload = plan.name.clone(),
        nodes = spec.nodes,
        ranks = ranks,
        ops = plan.ops.len(),
    );
    if let Some(s) = spec.straggler {
        trace::mark_with("job.straggler", || {
            vec![("node", s.node.into()), ("slowdown", s.slowdown.into())]
        });
    }
    let tracing = trace::enabled();
    // Phase spans follow the plan's phase table; the injected init op at
    // sequence 0 shifts every plan op index by one. `sim_t0`/`sim_t1`
    // bracket each phase on the simulated clock (min at entry, max at
    // exit) so traced boundaries can be compared with changepoints found
    // on the power signal alone. Each phase also snapshots the fleet's
    // accumulated component energy at entry so its exit can record the
    // exact energy attributed to the phase's ops (`energy_j`) — the
    // quantity the flight-recorder baselines and `vpp trace diff` track.
    struct OpenPhase {
        guard: trace::SpanGuard,
        end: usize,
        energy0: f64,
        cpu_ends0: Vec<f64>,
        sim_t0: f64,
    }
    let mut open_phase: Option<OpenPhase> = None;
    let clock_min = |c: &[f64]| c.iter().copied().fold(f64::INFINITY, f64::min);
    let clock_max = |c: &[f64]| c.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let acc_energy = |gpu: &[C], cpu: &[C], mem: &[C]| -> f64 {
        gpu.iter()
            .chain(cpu.iter())
            .chain(mem.iter())
            .map(C::energy)
            .sum()
    };
    // Energy attributed to the open phase: growth of the accumulated
    // GPU/CPU/DDR energy since phase entry, plus peripherals over each
    // node's locally elapsed span. Exact (not a window estimate): every
    // queried interval ends at a trace's current end.
    let phase_energy = |ph: &OpenPhase, gpu: &[C], cpu: &[C], mem: &[C], nodes: &[NodeInstance]| {
        let periph: f64 = nodes
            .iter()
            .zip(cpu.iter().zip(&ph.cpu_ends0))
            .map(|(n, (c, e0))| (c.end() - e0) * n.periph_active_w)
            .sum();
        acc_energy(gpu, cpu, mem) - ph.energy0 + periph
    };
    // Duration-weighted power residency: every GPU power segment lands in
    // the `power_watts` histogram with its simulated duration (in µs) as
    // the observation count, so bucket mass measures GPU-*time* share —
    // the quantity behind the paper's high-power-mode fraction — rather
    // than segment counts. Recorded at each gpu_traces push, so a live
    // `/metrics` scrape reconstructs the residency mid-run.
    let record_power = |dur_s: f64, watts: f64| {
        if !tracing {
            return;
        }
        let us = (dur_s * 1e6).round();
        if us >= 1.0 {
            trace::histogram_count("power_watts", watts, us as u64);
        }
    };

    for (seq, op) in std::iter::once(&init).chain(plan.ops.iter()).enumerate() {
        if tracing {
            if let Some(open) = open_phase.as_ref() {
                if seq >= open.end {
                    let mut ph = open_phase.take().unwrap();
                    let e = phase_energy(&ph, &gpu_traces, &cpu_traces, &mem_traces, &nodes);
                    let t1 = clock_max(&clock);
                    ph.guard.record("sim_t1", t1);
                    ph.guard.record("energy_j", e);
                    trace::histogram("phase_sim_seconds", t1 - ph.sim_t0);
                }
            }
            if open_phase.is_none() {
                let next = if seq == 0 {
                    (!plan.phases.is_empty()).then(|| (PhaseKind::Init.name(), 0, 1))
                } else {
                    plan.phases
                        .iter()
                        .find(|ph| ph.start + 1 == seq)
                        .map(|ph| (ph.kind.name(), ph.index, ph.end + 1))
                };
                if let Some((name, index, end)) = next {
                    let t0 = clock_min(&clock);
                    let g = trace::SpanGuard::open(name, || {
                        vec![("index", index.into()), ("sim_t0", t0.into())]
                    });
                    open_phase = Some(OpenPhase {
                        guard: g,
                        end,
                        energy0: acc_energy(&gpu_traces, &cpu_traces, &mem_traces),
                        cpu_ends0: cpu_traces.iter().map(C::end).collect(),
                        sim_t0: t0,
                    });
                }
            }
            trace::counter(
                match op {
                    Op::Gpu(_) => "job.ops.gpu",
                    Op::Host { .. } => "job.ops.host",
                    Op::Collective { .. } => "job.ops.collective",
                },
                1,
            );
        }
        let pf = phase_factor(seq);
        match op {
            Op::Gpu(kernel) => {
                let solves = solved.kernel(kernel, &gpus);
                for (r, ex) in solves.iter().enumerate() {
                    let dur = ex.duration_s * stretch(r, &mut jitter_rngs) * pf;
                    gpu_traces[r].push(dur, ex.watts);
                    record_power(dur, ex.watts);
                    clock[r] += dur;
                }
                for (n, node) in nodes.iter().enumerate() {
                    // The host drives launch queues while GPUs compute; use
                    // the node's first rank as the node-local timeline.
                    let dur = solves[n * gpn].duration_s * pf;
                    cpu_traces[n].push(dur, node.cpu.power(CpuModel::GPU_HOST_DRIVE));
                    mem_traces[n].push(dur, node.mem.power(MemoryModel::GPU_HOST_DRIVE));
                }
            }
            Op::Host {
                duration_s,
                cpu_active,
                mem_active,
            } => {
                let dur = duration_s * pf;
                for (r, gpu) in gpus.iter().enumerate() {
                    gpu_traces[r].push(dur, gpu.idle_w());
                    record_power(dur, gpu.idle_w());
                    clock[r] += dur;
                }
                for (n, node) in nodes.iter().enumerate() {
                    cpu_traces[n].push(dur, node.cpu.power(*cpu_active));
                    mem_traces[n].push(dur, node.mem.power(*mem_active));
                }
            }
            Op::Collective { bytes, kind } => {
                let t_sync = clock.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let comm_s =
                    network.collective_time(*kind, *bytes, spec.nodes, gpn) * collective_factor;
                let mut cspan = trace::SpanGuard::open("job.collective", || {
                    let kind_name = match kind {
                        CollectiveKind::AllReduce => "all_reduce",
                        CollectiveKind::Broadcast => "broadcast",
                        CollectiveKind::AllToAll => "all_to_all",
                    };
                    vec![("bytes", (*bytes).into()), ("kind", kind_name.into())]
                });
                cspan.record("comm_s", comm_s);
                cspan.record("sim_wait_s", t_sync - clock_min(&clock));
                // The pure-communication sim window (waits excluded):
                // aggregated `job.collective` sim_s depends only on the
                // network model, so trace-diff triage can pin a
                // communication regression to exactly this row.
                cspan.record("sim_t0", t_sync);
                cspan.record("sim_t1", t_sync + comm_s);
                let transfer_w = (comm_s > 0.0).then(|| solved.transfer_w(*bytes, comm_s, &gpus));
                for (r, gpu) in gpus.iter().enumerate() {
                    let wait = t_sync - clock[r];
                    if wait > 0.0 {
                        gpu_traces[r].push(wait, gpu.idle_w());
                        record_power(wait, gpu.idle_w());
                    }
                    if let Some(transfer_w) = transfer_w {
                        let p = transfer_w[r];
                        gpu_traces[r].push(comm_s, p);
                        record_power(comm_s, p);
                    }
                    clock[r] = t_sync + comm_s;
                }
                for (n, node) in nodes.iter().enumerate() {
                    // Host side: progress engine + NIC staging for the
                    // node-local span of this collective.
                    let span = clock[n * gpn] - cpu_traces[n].end();
                    if span > 0.0 {
                        cpu_traces[n].push(span, node.cpu.power(0.12));
                        mem_traces[n].push(span, node.mem.power(0.35));
                    }
                }
            }
        }
    }

    // Final barrier: the job ends when the slowest rank finishes. Pad
    // every channel out to the barrier first, so the last phase's energy
    // attribution includes the barrier-wait idle energy.
    let t_end = clock.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    job_span.record("runtime_s", t_end - spec.start_s);
    for (r, gpu) in gpus.iter().enumerate() {
        let pad = t_end - clock[r];
        if pad > 0.0 {
            gpu_traces[r].push(pad, gpu.idle_w());
            record_power(pad, gpu.idle_w());
        }
    }
    for (n, node) in nodes.iter().enumerate() {
        let pad = t_end - cpu_traces[n].end();
        if pad > 0.0 {
            cpu_traces[n].push(pad, node.cpu.power(0.0));
        }
        let pad = t_end - mem_traces[n].end();
        if pad > 0.0 {
            mem_traces[n].push(pad, node.mem.power(0.0));
        }
    }
    if let Some(mut ph) = open_phase.take() {
        let e = phase_energy(&ph, &gpu_traces, &cpu_traces, &mem_traces, &nodes);
        ph.guard.record("sim_t1", t_end);
        ph.guard.record("energy_j", e);
        trace::histogram("phase_sim_seconds", t_end - ph.sim_t0);
    }

    read(Ran {
        start_s: spec.start_s,
        nodes,
        gpu: gpu_traces,
        cpu: cpu_traces,
        mem: mem_traces,
        t_end,
        host_segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpp_dft::{build_plan, CostModel, Incar, ParallelLayout, Supercell, SystemParams};
    use vpp_substrate::trace::TraceReport;

    fn si_plan(atoms: usize, nodes: usize) -> ScfPlan {
        let mut deck = Incar::default_deck();
        deck.nelm = 10;
        let p = SystemParams::derive(&Supercell::silicon(atoms), &deck);
        build_plan(&p, &ParallelLayout::nodes(nodes), &CostModel::calibrated())
    }

    fn quick_spec(nodes: usize) -> JobSpec {
        let mut s = JobSpec::new(nodes);
        s.init_host_s = 1.0;
        s
    }

    /// Execute under a trace session.
    fn execute_traced(plan: &ScfPlan, spec: &JobSpec) -> (JobResult, TraceReport) {
        let session = trace::session(1 << 16);
        let res = execute(plan, spec, &NetworkModel::perlmutter());
        (res, session.finish())
    }

    #[test]
    fn single_node_job_produces_traces() {
        let plan = si_plan(64, 1);
        let res = execute(&plan, &quick_spec(1), &NetworkModel::perlmutter());
        assert_eq!(res.node_traces.len(), 1);
        assert_eq!(res.node_traces[0].gpus.len(), 4);
        assert!(res.runtime_s > 1.0);
        assert!(res.energy_j() > 0.0);
    }

    #[test]
    fn all_channels_span_the_full_runtime() {
        let plan = si_plan(64, 2);
        let res = execute(&plan, &quick_spec(2), &NetworkModel::perlmutter());
        for c in &res.node_traces {
            assert!((c.node.duration() - res.runtime_s).abs() < 1e-6);
            assert!((c.cpu.duration() - res.runtime_s).abs() < 1e-6);
            assert!((c.mem.duration() - res.runtime_s).abs() < 1e-6);
            for g in &c.gpus {
                assert!((g.duration() - res.runtime_s).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn execution_is_deterministic() {
        let plan = si_plan(64, 1);
        let a = execute(&plan, &quick_spec(1), &NetworkModel::perlmutter());
        let b = execute(&plan, &quick_spec(1), &NetworkModel::perlmutter());
        assert_eq!(a.runtime_s, b.runtime_s);
        assert_eq!(a.node_traces[0].node, b.node_traces[0].node);
    }

    #[test]
    fn different_seeds_select_different_nodes() {
        let plan = si_plan(64, 1);
        let mut s1 = quick_spec(1);
        let mut s2 = quick_spec(1);
        s1.seed = 1;
        s2.seed = 2;
        let a = execute(&plan, &s1, &NetworkModel::perlmutter());
        let b = execute(&plan, &s2, &NetworkModel::perlmutter());
        assert_ne!(
            a.node_traces[0].node.energy(),
            b.node_traces[0].node.energy()
        );
    }

    #[test]
    fn more_nodes_run_faster_but_less_than_linearly() {
        let p1 = si_plan(256, 1);
        let p4 = si_plan(256, 4);
        let net = NetworkModel::perlmutter();
        let r1 = execute(&p1, &quick_spec(1), &net);
        let r4 = execute(&p4, &quick_spec(4), &net);
        assert!(r4.runtime_s < r1.runtime_s, "speedup expected");
        assert!(
            r4.runtime_s > r1.runtime_s / 4.0,
            "perfect scaling is impossible with serial terms"
        );
    }

    #[test]
    fn power_cap_slows_and_caps_power() {
        // Use a large saturating workload so the cap binds.
        let plan = si_plan(1024, 1);
        let net = NetworkModel::perlmutter();
        let base = execute(&plan, &quick_spec(1), &net);
        let mut capped_spec = quick_spec(1);
        capped_spec.gpu_power_cap_w = Some(200.0);
        let capped = execute(&plan, &capped_spec, &net);
        assert!(capped.runtime_s > base.runtime_s, "throttling slows the job");
        let max_gpu = capped.node_traces[0]
            .gpus
            .iter()
            .filter_map(|g| g.max_power())
            .fold(0.0, f64::max);
        assert!(max_gpu <= 200.0 + 1e-9, "max GPU power {max_gpu} over cap");
    }

    #[test]
    fn node_power_stays_under_tdp() {
        let plan = si_plan(512, 1);
        let res = execute(&plan, &quick_spec(1), &NetworkModel::perlmutter());
        let peak = res.node_traces[0].node.max_power().unwrap();
        assert!(peak < 2350.0, "node peak {peak} exceeds TDP");
        assert!(peak > 600.0, "a 512-atom run should load the node: {peak}");
    }

    #[test]
    fn gpus_dominate_node_power_for_big_systems() {
        // Fig. 3: >70 % of node power from the four GPUs for hot workloads.
        let plan = si_plan(1024, 1);
        let res = execute(&plan, &quick_spec(1), &NetworkModel::perlmutter());
        let c = &res.node_traces[0];
        let t0 = c.node.start() + 2.0;
        let t1 = c.node.end() - 2.0;
        let gpu_e: f64 = c.gpus.iter().map(|g| g.energy_between(t0, t1)).sum();
        let node_e = c.node.energy_between(t0, t1);
        let share = gpu_e / node_e;
        assert!(share > 0.60, "GPU share = {share}");
    }

    #[test]
    fn straggler_slows_the_whole_job() {
        // One slow node gates every collective: the job runtime follows the
        // straggler, and healthy nodes wait at barriers (the §III-B.1
        // screening protocol exists to catch exactly this).
        let plan = si_plan(256, 2);
        let net = NetworkModel::perlmutter();
        let base = execute(&plan, &quick_spec(2), &net);
        let mut spec = quick_spec(2);
        spec.straggler = Some(Straggler {
            node: 1,
            slowdown: 1.30,
        });
        let slow = execute(&plan, &spec, &net);
        let ratio = slow.runtime_s / base.runtime_s;
        assert!(
            (1.20..1.40).contains(&ratio),
            "30% straggler should gate the job: ratio {ratio}"
        );
        // The healthy node idles at barriers: its mean power drops.
        let healthy_mean = |r: &JobResult| {
            r.node_traces[0].node.energy() / r.node_traces[0].node.duration()
        };
        assert!(healthy_mean(&slow) < healthy_mean(&base));
    }

    #[test]
    #[should_panic(expected = "straggler node out of range")]
    fn straggler_index_is_validated() {
        let plan = si_plan(64, 1);
        let mut spec = quick_spec(1);
        spec.straggler = Some(Straggler {
            node: 5,
            slowdown: 2.0,
        });
        let _ = execute(&plan, &spec, &NetworkModel::perlmutter());
    }

    #[test]
    fn os_jitter_stretches_runtime_deterministically() {
        let plan = si_plan(64, 1);
        let net = NetworkModel::perlmutter();
        let base = execute(&plan, &quick_spec(1), &net);
        let mut spec = quick_spec(1);
        spec.os_jitter = 0.05;
        let a = execute(&plan, &spec, &net);
        let b = execute(&plan, &spec, &net);
        assert_eq!(a.runtime_s, b.runtime_s, "jitter must be seeded");
        assert!(a.runtime_s > base.runtime_s);
        assert!(a.runtime_s < base.runtime_s * 1.10, "5% jitter, ≤10% effect");
    }

    #[test]
    fn zero_jitter_is_bitwise_identical_to_default() {
        let plan = si_plan(64, 1);
        let net = NetworkModel::perlmutter();
        let base = execute(&plan, &quick_spec(1), &net);
        let mut spec = quick_spec(1);
        spec.os_jitter = 0.0;
        spec.straggler = None;
        let same = execute(&plan, &spec, &net);
        assert_eq!(base.runtime_s.to_bits(), same.runtime_s.to_bits());
    }

    #[test]
    fn executor_emits_phase_spans_matching_the_plan() {
        let plan = si_plan(64, 1);
        let (res, report) = execute_traced(&plan, &quick_spec(1));
        assert!(report.well_formed().is_ok(), "{:?}", report.well_formed());

        let spans = report.spans();
        let root = spans.iter().find(|s| s.name == "job.execute").unwrap();
        assert!(
            (root.field_f64("runtime_s").unwrap() - res.runtime_s).abs() < 1e-9,
            "traced runtime must equal the result"
        );

        let iters: Vec<_> = spans.iter().filter(|s| s.name == "phase.scf_iter").collect();
        assert_eq!(iters.len(), plan.iterations);
        // Every phase span nests under the job span and carries sim-time
        // boundaries that tile [0, runtime] in order.
        let mut prev_t1 = 0.0;
        let init = spans.iter().find(|s| s.name == "phase.init").unwrap();
        assert_eq!(init.parent, Some(root.id));
        assert_eq!(init.field_f64("sim_t0"), Some(0.0));
        for ph in std::iter::once(&init).chain(iters.iter()) {
            assert_eq!(ph.parent, Some(root.id));
            let t0 = ph.field_f64("sim_t0").unwrap();
            let t1 = ph.field_f64("sim_t1").unwrap();
            assert!(t0 >= prev_t1 - 1e-9, "phase starts must ascend");
            assert!(t1 >= t0);
            prev_t1 = t1;
        }
        assert!(
            (prev_t1 - res.runtime_s).abs() < 1e-9,
            "last phase must end at the job end"
        );

        // Collective spans nest inside phases and carry payload fields.
        let coll = spans.iter().find(|s| s.name == "job.collective").unwrap();
        assert!(coll.field_f64("bytes").unwrap() > 0.0);
        assert!(spans.iter().any(|s| coll.parent == Some(s.id) && s.name.starts_with("phase.")));
        assert_eq!(
            report.counters["job.ops.collective"] as usize,
            plan.collective_count()
        );
    }

    #[test]
    fn phase_energy_attribution_sums_to_job_energy() {
        let plan = si_plan(64, 1);
        let (res, report) = execute_traced(&plan, &quick_spec(1));
        let spans = report.spans();
        let phases: Vec<_> = spans
            .iter()
            .filter(|s| s.name.starts_with("phase."))
            .collect();
        assert!(!phases.is_empty());
        for ph in &phases {
            assert!(
                ph.field_f64("energy_j").unwrap() > 0.0,
                "{} must attribute energy",
                ph.name
            );
        }
        // Every op belongs to exactly one phase and the final-barrier pad
        // is folded into the last phase, so the attribution partitions
        // the job's total energy.
        let phase_e: f64 = phases.iter().map(|s| s.field_f64("energy_j").unwrap()).sum();
        let total = res.energy_j();
        assert!(
            (phase_e - total).abs() < 1e-6 * total,
            "phase sum {phase_e} vs job total {total}"
        );
    }

    #[test]
    fn phase_slowdown_stretches_only_the_target_phase() {
        let plan = si_plan(64, 1);
        let run_traced = |spec: &JobSpec| {
            let (res, report) = execute_traced(&plan, spec);
            (res, report.aggregate())
        };
        let (base, base_agg) = run_traced(&quick_spec(1));
        let mut spec = quick_spec(1);
        spec.phase_slowdown = Some((PhaseKind::ScfIter, 1.5));
        let (slow, slow_agg) = run_traced(&spec);
        let (again, _) = run_traced(&spec);
        assert_eq!(slow.runtime_s, again.runtime_s, "injection must be seeded");
        assert!(slow.runtime_s > base.runtime_s);

        let sim = |agg: &vpp_substrate::trace::TraceAggregate, name: &str| {
            agg.span(name).unwrap().sim_s
        };
        assert_eq!(
            sim(&base_agg, "phase.init"),
            sim(&slow_agg, "phase.init"),
            "untargeted phase must be untouched"
        );
        let ratio = sim(&slow_agg, "phase.scf_iter") / sim(&base_agg, "phase.scf_iter");
        assert!(
            (1.2..=1.5 + 1e-9).contains(&ratio),
            "compute ops stretch 1.5x, collectives don't: ratio {ratio}"
        );
    }

    #[test]
    fn collective_slowdown_stretches_only_communication() {
        let plan = si_plan(64, 2);
        let run_traced = |spec: &JobSpec| {
            let (res, report) = execute_traced(&plan, spec);
            (res, report.aggregate())
        };
        let (base, base_agg) = run_traced(&quick_spec(2));
        let mut spec = quick_spec(2);
        spec.collective_slowdown = Some(1.5);
        let (slow, slow_agg) = run_traced(&spec);
        assert!(slow.runtime_s > base.runtime_s);

        let sim = |agg: &vpp_substrate::trace::TraceAggregate, name: &str| {
            agg.span(name).unwrap().sim_s
        };
        let base_comm = sim(&base_agg, "job.collective");
        assert!(base_comm > 0.0, "collectives must carry a sim window");
        let ratio = sim(&slow_agg, "job.collective") / base_comm;
        assert!(
            (ratio - 1.5).abs() < 1e-9,
            "network time scales exactly by the factor: ratio {ratio}"
        );
        // The compute-side perturbation leaves communication untouched —
        // the two fault classes move disjoint trace rows.
        let mut compute = quick_spec(2);
        compute.phase_slowdown = Some((PhaseKind::ScfIter, 1.5));
        let (_, compute_agg) = run_traced(&compute);
        let drift = (sim(&compute_agg, "job.collective") - base_comm).abs();
        assert!(
            drift < 1e-9,
            "compute slowdown must not move job.collective sim_s (drift {drift})"
        );
    }

    #[test]
    #[should_panic(expected = "collective slowdown factor must be positive")]
    fn collective_slowdown_factor_is_validated() {
        let plan = si_plan(64, 1);
        let mut spec = quick_spec(1);
        spec.collective_slowdown = Some(f64::NAN);
        let _ = execute(&plan, &spec, &NetworkModel::perlmutter());
    }

    #[test]
    #[should_panic(expected = "phase slowdown factor must be positive")]
    fn phase_slowdown_factor_is_validated() {
        let plan = si_plan(64, 1);
        let mut spec = quick_spec(1);
        spec.phase_slowdown = Some((PhaseKind::ScfIter, 0.0));
        let _ = execute(&plan, &spec, &NetworkModel::perlmutter());
    }

    #[test]
    fn power_histogram_matches_trace_derived_high_power_residency() {
        // The live `power_watts` histogram (µs-weighted per segment) must
        // reproduce the high-power-mode residency computed from the full
        // power traces within 2% — the paper's headline quantity, read
        // from a single `/metrics` scrape instead of a trace download.
        let plan = si_plan(256, 1);
        let (res, report) = execute_traced(&plan, &quick_spec(1));
        let hist = report
            .histograms
            .get("power_watts")
            .expect("executor records the power_watts histogram");
        let thr = vpp_substrate::trace::HIGH_POWER_THRESHOLD_W;
        let live = hist.fraction_above(thr);
        let (mut above, mut total) = (0.0, 0.0);
        for c in &res.node_traces {
            for g in &c.gpus {
                for s in g.segments() {
                    total += s.duration();
                    if s.watts > thr {
                        above += s.duration();
                    }
                }
            }
        }
        let truth = above / total;
        assert!(
            (0.05..0.95).contains(&truth),
            "workload should be bimodal, residency {truth}"
        );
        assert!(
            (live - truth).abs() <= 0.02,
            "histogram residency {live} vs trace-derived {truth}"
        );
    }

    #[test]
    fn phase_histogram_matches_phase_span_count() {
        let plan = si_plan(64, 1);
        let (_, report) = execute_traced(&plan, &quick_spec(1));
        let hist = report
            .histograms
            .get("phase_sim_seconds")
            .expect("executor records per-phase sim durations");
        let phases = report
            .spans()
            .iter()
            .filter(|s| s.name.starts_with("phase."))
            .count() as u64;
        assert_eq!(hist.count(), phases, "one observation per closed phase");
        assert!(hist.sum() > 0.0);
    }

    #[test]
    fn node0_readout_keeps_every_bit_of_the_all_node_run() {
        let net = NetworkModel::perlmutter();
        let capped = |nodes: usize, cap: f64| {
            let mut s = quick_spec(nodes);
            s.gpu_power_cap_w = Some(cap);
            s
        };
        let mut straggling = quick_spec(4);
        straggling.straggler = Some(Straggler {
            node: 3,
            slowdown: 1.3,
        });
        straggling.os_jitter = 0.05;
        let mut phase = quick_spec(2);
        phase.phase_slowdown = Some((PhaseKind::ScfIter, 1.5));
        let mut collective = quick_spec(2);
        collective.collective_slowdown = Some(1.6);
        let specs = [
            quick_spec(1),
            capped(2, 200.0),
            capped(2, 100.0),
            straggling,
            phase,
            collective,
            quick_spec(16),
        ];
        for spec in specs {
            let plan = si_plan(64, spec.nodes);
            let all = execute(&plan, &spec, &net);
            let node0 = execute_node0(&plan, &spec, &net);
            assert_eq!(all.node_traces.len(), spec.nodes, "{spec:?}");
            assert_eq!(node0.node_traces.len(), 1, "{spec:?}");
            assert_eq!(
                node0.runtime_s.to_bits(),
                all.runtime_s.to_bits(),
                "{spec:?}"
            );
            assert_eq!(
                job_runtime(&plan, &spec, &net).to_bits(),
                all.runtime_s.to_bits(),
                "{spec:?}"
            );
            assert_eq!(
                node0.energy_j().to_bits(),
                all.energy_j().to_bits(),
                "{spec:?}"
            );
            let (a, b) = (&all.node_traces[0], &node0.node_traces[0]);
            assert_eq!(a, b, "{spec:?}");
            let channels = |c: &ComponentTraces| -> Vec<u64> {
                [&c.node, &c.cpu, &c.mem]
                    .into_iter()
                    .chain(&c.gpus)
                    .map(|t| t.energy().to_bits())
                    .collect()
            };
            assert_eq!(channels(a), channels(b), "{spec:?}");
        }
    }

    /// A report's spans with process-unique ids replaced by list
    /// positions and wall times left out: what two runs of one spec share.
    fn span_shape(report: &TraceReport) -> Vec<(&'static str, Option<usize>, String)> {
        let spans = report.spans();
        let position = |id: u64| spans.iter().position(|s| s.id == id);
        spans
            .iter()
            .map(|s| (s.name, s.parent.and_then(position), format!("{:?}", s.fields)))
            .collect()
    }

    #[test]
    fn runtime_pass_records_what_execute_records() {
        let net = NetworkModel::perlmutter();
        let mut straggling = quick_spec(2);
        straggling.straggler = Some(Straggler {
            node: 1,
            slowdown: 1.3,
        });
        straggling.os_jitter = 0.05;
        let mut phase = quick_spec(2);
        phase.phase_slowdown = Some((PhaseKind::ScfIter, 1.5));
        for spec in [quick_spec(1), straggling, phase] {
            let plan = si_plan(64, spec.nodes);
            let (full, want) = execute_traced(&plan, &spec);
            let session = trace::session(1 << 16);
            let runtime = job_runtime(&plan, &spec, &net);
            let got = session.finish();
            assert_eq!(runtime.to_bits(), full.runtime_s.to_bits(), "{spec:?}");
            assert_eq!((got.dropped, want.dropped), (0, 0), "{spec:?}");
            let shape = span_shape(&got);
            assert!(shape.len() > plan.iterations, "{spec:?}: {shape:?}");
            assert_eq!(shape, span_shape(&want), "{spec:?}");
            let marks = |r: &TraceReport| -> Vec<(&str, String)> {
                r.marks()
                    .iter()
                    .map(|e| (e.name, format!("{:?}", e.fields)))
                    .collect()
            };
            assert_eq!(marks(&got), marks(&want), "{spec:?}");
            assert_eq!(got.counters, want.counters, "{spec:?}");
            assert_eq!(got.gauges, want.gauges, "{spec:?}");
            assert!(got.histograms.contains_key("power_watts"));
            assert_eq!(got.histograms, want.histograms, "{spec:?}");
        }
    }

    #[test]
    fn mean_node_power_is_reasonable() {
        let plan = si_plan(256, 1);
        let res = execute(&plan, &quick_spec(1), &NetworkModel::perlmutter());
        let p = res.energy_j() / res.runtime_s / res.node_traces.len() as f64;
        assert!((500.0..2350.0).contains(&p), "mean node power = {p}");
    }
}
