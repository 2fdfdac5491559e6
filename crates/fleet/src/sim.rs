//! The fleet simulator.

use vpp_cluster::{execute, JobSpec, NetworkModel};
use vpp_dft::ScfPlan;
use vpp_sim::PowerTrace;

/// One queued job: a pre-lowered plan plus scheduling metadata.
#[derive(Debug, Clone)]
pub struct JobRequest {
    pub id: u64,
    pub name: String,
    /// Plan lowered for exactly `nodes` nodes.
    pub plan: ScfPlan,
    pub nodes: usize,
    /// Submission time, seconds.
    pub arrival_s: f64,
    /// GPU cap the policy assigned (None = default limit).
    pub cap_w: Option<f64>,
    /// Estimated per-node power for admission control, watts.
    pub est_node_power_w: f64,
}

/// Fleet configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Nodes in the managed partition.
    pub nodes: usize,
    /// Optional facility power budget over the partition, watts
    /// (admission-time check against `est_node_power_w`).
    pub power_budget_w: Option<f64>,
    /// Fleet seed (which physical nodes each job lands on).
    pub seed: u64,
    /// Mean idle power assumed for unallocated nodes, watts.
    pub idle_node_w: f64,
    /// Facility power-usage effectiveness: total facility power =
    /// IT power × PUE (Perlmutter's liquid-cooled hall runs ≈ 1.08).
    pub pue: f64,
}

impl FleetSpec {
    /// A partition of `nodes` Perlmutter-like nodes, no budget.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0);
        Self {
            nodes,
            power_budget_w: None,
            seed: 0xF1EE_7001,
            idle_node_w: 445.0,
            pue: 1.08,
        }
    }
}

/// One completed job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub id: u64,
    pub name: String,
    pub nodes: usize,
    pub arrival_s: f64,
    pub start_s: f64,
    pub end_s: f64,
    /// Energy over the job's nodes, joules.
    pub energy_j: f64,
    /// Mean node power while running, watts.
    pub mean_node_power_w: f64,
}

impl JobRecord {
    /// Queue wait before the job started, seconds.
    #[must_use]
    pub fn wait_s(&self) -> f64 {
        self.start_s - self.arrival_s
    }
}

/// The simulated machine interval.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Aggregate IT power of the whole partition (running jobs + idle
    /// nodes); multiply by [`FleetSpec::pue`] for facility power.
    pub system_trace: PowerTrace,
    pub jobs: Vec<JobRecord>,
    /// Time the last job finished, seconds.
    pub makespan_s: f64,
    /// Node-seconds busy / (nodes × makespan).
    pub utilisation: f64,
    /// The PUE the spec declared (carried for facility conversions).
    pub pue: f64,
}

impl FleetOutcome {
    /// Mean system power over the interval, watts.
    #[must_use]
    pub fn mean_system_power_w(&self) -> f64 {
        if self.system_trace.duration() <= 0.0 {
            return 0.0;
        }
        self.system_trace.energy() / self.system_trace.duration()
    }

    /// Peak system power, watts.
    #[must_use]
    pub fn peak_system_power_w(&self) -> f64 {
        self.system_trace.max_power().unwrap_or(0.0)
    }

    /// Facility energy including cooling/distribution overhead, joules.
    #[must_use]
    pub fn facility_energy_j(&self) -> f64 {
        self.system_trace.energy() * self.pue
    }

    /// Mean queue wait, seconds.
    #[must_use]
    pub fn mean_wait_s(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().map(JobRecord::wait_s).sum::<f64>() / self.jobs.len() as f64
    }
}

/// Run the fleet: FIFO admission with backfill over free nodes (and the
/// optional power budget), each admitted job executed through the cluster
/// simulator at its start time.
///
/// # Panics
/// If a job wants more nodes than the partition has, or its estimated
/// power alone exceeds the budget.
#[must_use]
pub fn simulate(spec: &FleetSpec, requests: &[JobRequest], network: &NetworkModel) -> FleetOutcome {
    for r in requests {
        assert!(
            r.nodes <= spec.nodes,
            "job {} wants {} of {} nodes",
            r.id,
            r.nodes,
            spec.nodes
        );
        if let Some(budget) = spec.power_budget_w {
            assert!(
                r.est_node_power_w * r.nodes as f64 <= budget,
                "job {} alone exceeds the fleet budget",
                r.id
            );
        }
    }

    #[derive(Debug)]
    struct Running {
        end_s: f64,
        nodes: usize,
        est_power_w: f64,
    }

    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        requests[a]
            .arrival_s
            .total_cmp(&requests[b].arrival_s)
            .then(requests[a].id.cmp(&requests[b].id))
    });

    let mut pending: Vec<usize> = order;
    let mut running: Vec<Running> = Vec::new();
    let mut records: Vec<JobRecord> = Vec::new();
    let mut node_traces: Vec<PowerTrace> = Vec::new();
    let mut busy_changes: Vec<(f64, i64)> = Vec::new(); // (time, ±nodes)
    let mut t = pending
        .first()
        .map_or(0.0, |&i| requests[i].arrival_s);

    while !pending.is_empty() || !running.is_empty() {
        running.retain(|r| r.end_s > t + 1e-9);

        let mut used_nodes: usize = running.iter().map(|r| r.nodes).sum();
        let mut used_power: f64 = running.iter().map(|r| r.est_power_w).sum();
        // One pass admits everything that fits: within a wake capacity only
        // shrinks and the arrived set is fixed, so a job skipped once stays
        // unfit until the next event.
        let mut i = 0;
        while i < pending.len() {
            let req = &requests[pending[i]];
            let power = req.est_node_power_w * req.nodes as f64;
            let fits_budget = spec
                .power_budget_w
                .is_none_or(|b| used_power + power <= b + 1e-9);
            if req.arrival_s <= t + 1e-9 && used_nodes + req.nodes <= spec.nodes && fits_budget {
                // Execute the job for real, starting now.
                let job_spec = JobSpec {
                    nodes: req.nodes,
                    gpu_power_cap_w: req.cap_w,
                    seed: spec.seed ^ (req.id.wrapping_mul(0x9E37_79B9)),
                    start_s: t,
                    init_host_s: 6.0,
                    straggler: None,
                    os_jitter: 0.0,
                    phase_slowdown: None,
                    collective_slowdown: None,
                };
                let result = execute(&req.plan, &job_spec, network);
                let end_s = t + result.runtime_s;
                let energy_j = result.energy_j();
                records.push(JobRecord {
                    id: req.id,
                    name: req.name.clone(),
                    nodes: req.nodes,
                    arrival_s: req.arrival_s,
                    start_s: t,
                    end_s,
                    energy_j,
                    mean_node_power_w: energy_j
                        / result.runtime_s.max(f64::MIN_POSITIVE)
                        / req.nodes as f64,
                });
                for c in result.node_traces {
                    node_traces.push(c.node);
                }
                busy_changes.push((t, req.nodes as i64));
                busy_changes.push((end_s, -(req.nodes as i64)));
                running.push(Running {
                    end_s,
                    nodes: req.nodes,
                    est_power_w: power,
                });
                used_nodes += req.nodes;
                used_power += power;
                pending.remove(i);
            } else {
                i += 1;
            }
        }

        if pending.is_empty() && running.is_empty() {
            break;
        }
        // Advance to the next event: a finish or an arrival.
        let next_finish = running.iter().map(|r| r.end_s).fold(f64::INFINITY, f64::min);
        let next_arrival = pending
            .iter()
            .map(|&i| requests[i].arrival_s)
            .filter(|&a| a > t + 1e-9)
            .fold(f64::INFINITY, f64::min);
        let next = next_finish.min(next_arrival);
        assert!(next.is_finite(), "fleet stalled at t = {t}");
        t = next;
    }

    let makespan_s = records.iter().map(|r| r.end_s).fold(0.0, f64::max);

    // Idle-node power: nodes not allocated draw the idle floor.
    busy_changes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut idle_trace = PowerTrace::new(0.0);
    let mut busy: i64 = 0;
    let mut cursor = 0.0;
    for (at, delta) in busy_changes {
        if at > cursor {
            let idle_nodes = spec.nodes as i64 - busy;
            idle_trace.push(at - cursor, idle_nodes.max(0) as f64 * spec.idle_node_w);
            cursor = at;
        }
        busy += delta;
    }
    if makespan_s > cursor {
        let idle_nodes = spec.nodes as i64 - busy;
        idle_trace.push(makespan_s - cursor, idle_nodes.max(0) as f64 * spec.idle_node_w);
    }

    let mut parts: Vec<&PowerTrace> = node_traces.iter().collect();
    parts.push(&idle_trace);
    let system_trace = PowerTrace::sum(&parts);

    let busy_node_seconds: f64 = records
        .iter()
        .map(|r| (r.end_s - r.start_s) * r.nodes as f64)
        .sum();
    let utilisation = if makespan_s > 0.0 {
        busy_node_seconds / (spec.nodes as f64 * makespan_s)
    } else {
        0.0
    };

    FleetOutcome {
        system_trace,
        jobs: records,
        makespan_s,
        utilisation,
        pue: spec.pue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpp_dft::{build_plan, CostModel, Incar, ParallelLayout, Supercell, SystemParams};

    fn si_plan(atoms: usize, nelm: usize, nodes: usize) -> ScfPlan {
        let mut deck = Incar::default_deck();
        deck.nelm = nelm;
        let p = SystemParams::derive(&Supercell::silicon(atoms), &deck);
        build_plan(&p, &ParallelLayout::nodes(nodes), &CostModel::calibrated())
    }

    fn request(id: u64, nodes: usize, arrival_s: f64) -> JobRequest {
        JobRequest {
            id,
            name: format!("si256-job{id}"),
            plan: si_plan(256, 10, nodes),
            nodes,
            arrival_s,
            cap_w: None,
            est_node_power_w: 1300.0,
        }
    }

    #[test]
    fn single_job_fleet() {
        let spec = FleetSpec::new(4);
        let out = simulate(&spec, &[request(1, 2, 0.0)], &NetworkModel::perlmutter());
        assert_eq!(out.jobs.len(), 1);
        assert!(out.makespan_s > 10.0);
        assert!(out.utilisation > 0.0 && out.utilisation <= 0.51);
        // System power = job nodes + 2 idle nodes.
        let mid = out.makespan_s / 2.0;
        let p = out.system_trace.power_at(mid);
        assert!(p > 2.0 * 445.0 + 1000.0, "system power {p}");
    }

    #[test]
    fn node_capacity_serialises_jobs() {
        let spec = FleetSpec::new(2);
        let reqs = vec![request(1, 2, 0.0), request(2, 2, 0.0)];
        let out = simulate(&spec, &reqs, &NetworkModel::perlmutter());
        assert_eq!(out.jobs.len(), 2);
        let (a, b) = (&out.jobs[0], &out.jobs[1]);
        assert!(b.start_s >= a.end_s - 1e-6, "jobs must not overlap");
        assert!(b.wait_s() > 0.0);
    }

    #[test]
    fn power_budget_gates_admission() {
        // Two 1-node jobs at ~1300 W estimated; budget fits only one.
        let mut spec = FleetSpec::new(4);
        spec.power_budget_w = Some(2000.0);
        let reqs = vec![request(1, 1, 0.0), request(2, 1, 0.0)];
        let out = simulate(&spec, &reqs, &NetworkModel::perlmutter());
        let (a, b) = (&out.jobs[0], &out.jobs[1]);
        assert!(
            b.start_s >= a.end_s - 1e-6,
            "budget must serialise: {} vs {}",
            b.start_s,
            a.end_s
        );
    }

    #[test]
    fn arrivals_are_respected_and_waits_accounted() {
        let spec = FleetSpec::new(8);
        let reqs = vec![request(1, 2, 0.0), request(2, 2, 50.0)];
        let out = simulate(&spec, &reqs, &NetworkModel::perlmutter());
        let b = out.jobs.iter().find(|j| j.id == 2).unwrap();
        assert!(b.start_s >= 50.0 - 1e-9);
        assert!(out.mean_wait_s() < 5.0, "plenty of room: no real waiting");
    }

    #[test]
    fn system_energy_equals_jobs_plus_idle() {
        let spec = FleetSpec::new(3);
        let out = simulate(&spec, &[request(1, 1, 0.0)], &NetworkModel::perlmutter());
        let job_e: f64 = out.jobs.iter().map(|j| j.energy_j).sum();
        let idle_e = 2.0 * spec.idle_node_w * out.makespan_s;
        let total = out.system_trace.energy();
        assert!(
            (total - job_e - idle_e).abs() / total < 0.01,
            "total {total} vs job {job_e} + idle {idle_e}"
        );
    }

    #[test]
    fn capped_fleet_draws_less_peak_power() {
        let spec = FleetSpec::new(2);
        let base = simulate(&spec, &[request(1, 2, 0.0)], &NetworkModel::perlmutter());
        let mut capped_req = request(1, 2, 0.0);
        capped_req.cap_w = Some(200.0);
        let capped = simulate(&spec, &[capped_req], &NetworkModel::perlmutter());
        assert!(capped.peak_system_power_w() < base.peak_system_power_w() - 300.0);
    }

    #[test]
    #[should_panic(expected = "exceeds the fleet budget")]
    fn impossible_budget_panics() {
        let mut spec = FleetSpec::new(4);
        spec.power_budget_w = Some(500.0);
        let _ = simulate(&spec, &[request(1, 1, 0.0)], &NetworkModel::perlmutter());
    }

    #[test]
    fn facility_energy_includes_pue() {
        let spec = FleetSpec::new(2);
        let out = simulate(&spec, &[request(1, 1, 0.0)], &NetworkModel::perlmutter());
        let it = out.system_trace.energy();
        assert!((out.facility_energy_j() - it * 1.08).abs() < 1e-6);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let spec = FleetSpec::new(4);
        let reqs = vec![request(1, 2, 0.0), request(2, 1, 30.0)];
        let a = simulate(&spec, &reqs, &NetworkModel::perlmutter());
        let b = simulate(&spec, &reqs, &NetworkModel::perlmutter());
        assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
        assert_eq!(a.system_trace, b.system_trace);
    }
}
