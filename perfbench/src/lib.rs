//! End-to-end and per-layer benchmark of the VASP power-profile
//! reproduction. `README.md` in this directory lists every metric, the
//! layer it belongs to, the end-to-end number it should move, and why
//! each workload exists.
//!
//! Each run measures one workload in one process. An untraced run
//! prints the end-to-end metrics. A traced run (`--trace 1`) spends half
//! its window untraced and half traced (`serve_jobs`: a third each, then
//! a third of direct handler runs), replays the public calls each op
//! makes, and prints the per-layer metrics.

pub mod alloc;
pub mod campaigns;
pub mod host;
pub mod http;
pub mod paper;
pub mod report;
pub mod service;
pub mod spans;

use report::{Layers, Report, Window};
use std::time::{Duration, Instant};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0;

/// A seed kept out of development and tuning; the acceptance runs
/// repeat every check on it.
pub const HELD_OUT_SEED: u64 = 7919;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperGrid,
    CampaignPartitioned,
    CampaignSite,
    ServeJobs,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::CampaignPartitioned,
        Workload::CampaignSite,
        Workload::ServeJobs,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::CampaignPartitioned => "campaign_partitioned",
            Workload::CampaignSite => "campaign_site",
            Workload::ServeJobs => "serve_jobs",
        }
    }

    /// Look a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    /// The timed window as a duration.
    #[must_use]
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// Run one workload and return its report.
#[must_use]
pub fn run(cfg: &Config) -> Report {
    match cfg.workload {
        Workload::PaperGrid => paper::run(cfg),
        Workload::CampaignPartitioned | Workload::CampaignSite => campaigns::run(cfg),
        Workload::ServeJobs => service::run(cfg),
    }
}

/// Run `setup` `n` times (at least once), timing each; returns the times
/// and the last set-up's state, earlier states dropped untimed.
pub fn timed_setups<T>(n: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(n);
    let mut state = None;
    for _ in 0..n.max(1) {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (times, state.expect("at least one set-up ran"))
}

/// Combine a traced run's untraced half `plain` and traced half
/// `traced`: op accounting covers both, and the tracing overhead is the
/// extra time per op the traced half took.
#[must_use]
pub fn traced_report(plain: &Window, traced: &Window, mut layers: Layers) -> Report {
    let overhead = if traced.ops_per_s > 0.0 {
        plain.ops_per_s / traced.ops_per_s - 1.0
    } else {
        0.0
    };
    layers.set("bench.trace_overhead_frac", overhead);
    Report::traced(&[plain, traced], &layers)
}

/// Write a traced run's span log to
/// `.perfbench/<workload>-seed<seed>.spans.jsonl` under the working
/// directory. The spans are diagnostics, not results: a failed write is
/// reported on stderr and the run goes on.
pub fn write_spans(tracer: &spans::Tracer, cfg: &Config) {
    let path = std::path::PathBuf::from(".perfbench").join(format!(
        "{}-seed{}.spans.jsonl",
        cfg.workload.name(),
        cfg.seed
    ));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
