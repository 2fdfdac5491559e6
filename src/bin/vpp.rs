//! `vpp` — the operator's command-line tool.
//!
//! Commands register in a declarative table ([`COMMANDS`]): each entry
//! names its words (multi-word commands like `trace diff` match by
//! longest prefix), its operand, its flag specs and its handler. Usage
//! and `--help` text are generated from the table, and unknown flags are
//! rejected per-command (`--straggler` belongs to `screen` and nothing
//! else), so the parser cannot drift from the documentation.
//!
//! ```text
//! vpp list
//! vpp profile      <benchmark|dir> [--nodes N] [--cap W] [--quick] [--metrics-port PORT]
//! vpp caps         <benchmark>     [--nodes N] [--quick] [--metrics-port PORT]
//! vpp screen       <benchmark>     [--nodes N] [--straggler IDX:FACTOR]
//! vpp phases       <benchmark>     [--nodes N]
//! vpp trace        <benchmark>     [--nodes N] [--cap W] [--quick]
//!                                  [--format tree|csv|json|jsonl|prom]
//!                                  [--perturb PHASE:FACTOR] [--metrics-port PORT]
//! vpp trace diff   <benchmark>     [--perturb PHASE:FACTOR]
//! vpp trace accept <benchmark>     [--tolerance PHASE:PCT]...
//! vpp serve        [benchmark]     [--nodes N] [--cap W] [--quick]
//!                                  [--repeat N] [--metrics-port PORT]
//!                                  [--max-sessions N] [--federate URL]...
//! vpp logs         <url>           [--after SEQ] [--level LVL] [--limit N]
//! ```
//!
//! `<benchmark>` is a Table I name (see `vpp list`); a directory containing
//! `INCAR` / `POSCAR` (and optionally `KPOINTS`) works everywhere a
//! benchmark name does.
//!
//! `trace diff` re-runs the benchmark with the pinned baseline recipe,
//! compares the per-phase trace aggregates against the baseline stored in
//! `BENCH_results.json` (group `trace_baselines`), and exits 1 when a
//! significant regression is found. `--perturb` injects an artificial
//! slowdown — a phase kind stretches compute, `collective:FACTOR`
//! stretches network time only.
//!
//! `trace accept` re-captures the baseline with the same pinned recipe
//! and blesses it in place, persisting any `--tolerance PHASE:PCT`
//! overrides alongside the samples; it is the only writer of stored
//! baselines. Both commands also take `campaign`, the pinned campaign
//! recipe, as their target.
//!
//! `serve` (and `--metrics-port` on `profile` / `caps` / `trace`) starts
//! the std-only observability endpoint (DESIGN.md §3.7): `GET /metrics`,
//! `/healthz` and `/trace?format=json|jsonl|csv` scrape the in-flight
//! run live.
//!
//! `serve` is also the multi-tenant job service: `POST /jobs` submits a
//! JSON job spec (validated against the Table I recipes), `GET /jobs`
//! lists sessions, and `/jobs/<id>`, `/jobs/<id>/trace?after=SEQ` and
//! `/jobs/<id>/metrics` expose each job's status, cursor-streamed trace
//! and Prometheus series. `--max-sessions` bounds concurrent sessions
//! (further jobs queue); `--federate URL` (repeatable) merges peer
//! `/metrics` expositions into this instance's, labelled by peer. The
//! benchmark operand is optional — without one the process runs as a
//! service that only executes POSTed jobs.
//!
//! `logs` fetches one chunk of a running service's structured log
//! journal (`GET /logs?after=SEQ&level=LVL&limit=N`) as jsonl on stdout;
//! the next cursor and drop accounting print to stderr so the output
//! pipes cleanly into `jq`.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use vasp_power_profiles::cluster::{execute, JobResult, JobSpec, NetworkModel, Straggler};
use vasp_power_profiles::core::{benchmarks, flight, protocol, ProtocolJobHandler};
use vasp_power_profiles::dft::{parse_incar, parse_kpoints, parse_poscar, PhaseKind};
use vasp_power_profiles::powercap::policy::FixedCap;
use vasp_power_profiles::powercap::{campaign, CampaignSpec, CapPolicy, TcoAware};
use vasp_power_profiles::stats::{trace_diff, DiffConfig, Segmenter};
use vasp_power_profiles::substrate::bench::{
    load_baseline, store_baseline, TraceBaseline, BASELINE_GROUP,
};
use vasp_power_profiles::substrate::serve::{self, RunState, ServeConfig, ServeHandle};
use vasp_power_profiles::substrate::trace::{self, ExportFormat};
use vasp_power_profiles::telemetry::{Sampler, Screener};

// ---------------------------------------------------------------------------
// Declarative command table
// ---------------------------------------------------------------------------

/// One flag a command accepts.
struct FlagSpec {
    /// Name without the leading `--`.
    name: &'static str,
    /// Metavar when the flag takes a value; `None` for booleans.
    value: Option<&'static str>,
    /// May appear more than once.
    repeatable: bool,
    help: &'static str,
}

const fn flag(name: &'static str, value: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        value: Some(value),
        repeatable: false,
        help,
    }
}

const fn switch(name: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        value: None,
        repeatable: false,
        help,
    }
}

const NODES: FlagSpec = flag("nodes", "N", "nodes to simulate");
const CAP: FlagSpec = flag("cap", "W", "per-GPU power cap, watts");
const QUICK: FlagSpec = switch("quick", "reduced repeats / settings for smoke runs");
const METRICS_PORT: FlagSpec = flag(
    "metrics-port",
    "PORT",
    "serve /metrics, /healthz and /trace on 127.0.0.1:PORT for the run (0 = ephemeral)",
);

/// One `vpp` subcommand: words, operand, flags and handler.
struct CommandSpec {
    /// Command words; multi-word entries (`trace diff`) match by longest
    /// prefix against the raw argv.
    words: &'static [&'static str],
    /// Operand metavar shown in usage, empty when the command takes none.
    operand: &'static str,
    summary: &'static str,
    flags: &'static [FlagSpec],
    run: fn(&Parsed) -> Result<(), String>,
}

const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        words: &["list"],
        operand: "",
        summary: "name the Table I benchmarks",
        flags: &[],
        run: cmd_list,
    },
    CommandSpec {
        words: &["profile"],
        operand: "<benchmark|dir>",
        summary: "run the measurement protocol and print the power summary",
        flags: &[NODES, CAP, QUICK, METRICS_PORT],
        run: cmd_profile,
    },
    CommandSpec {
        words: &["caps"],
        operand: "<benchmark>",
        summary: "sweep GPU power caps (400/300/200/100 W)",
        flags: &[NODES, QUICK, METRICS_PORT],
        run: cmd_caps,
    },
    CommandSpec {
        words: &["screen"],
        operand: "<benchmark>",
        summary: "per-node power screening with z-score outlier verdicts",
        flags: &[
            NODES,
            flag("straggler", "IDX:FACTOR", "inject a slow node before screening"),
        ],
        run: cmd_screen,
    },
    CommandSpec {
        words: &["phases"],
        operand: "<benchmark>",
        summary: "segment the node power series into phases",
        flags: &[NODES],
        run: cmd_phases,
    },
    CommandSpec {
        words: &["campaign"],
        operand: "",
        summary: "simulate a seeded job campaign under each cap policy",
        flags: &[
            flag("jobs", "N", "jobs to generate (default 2000)"),
            flag("seed", "S", "campaign master seed (default 7)"),
            flag("partitions", "P", "independent machine partitions (default 8)"),
            flag("shards", "K", "parallel shards (default: one per partition)"),
            flag("cap", "WATTS", "add a fixed-cap policy column at WATTS"),
            flag("policy", "NAME", "add a named policy column (tco)"),
            flag(
                "site-budget",
                "WATTS",
                "site-wide envelope: couple partitions through the watt ledger",
            ),
        ],
        run: cmd_campaign,
    },
    CommandSpec {
        words: &["trace"],
        operand: "<benchmark>",
        summary: "one traced execution: span tree or a machine export",
        flags: &[
            NODES,
            CAP,
            QUICK,
            flag("format", "FMT", "tree|csv|json|jsonl|prom (default tree)"),
            flag(
                "perturb",
                "PHASE:FACTOR",
                "slow one phase kind, or `collective:FACTOR` for network time",
            ),
            METRICS_PORT,
        ],
        run: cmd_trace,
    },
    CommandSpec {
        words: &["trace", "diff"],
        operand: "<benchmark>",
        summary: "re-run the pinned recipe and diff against the stored baseline",
        flags: &[flag(
            "perturb",
            "PHASE:FACTOR",
            "slow one phase kind, or `collective:FACTOR` — the regression fixture",
        )],
        run: cmd_trace_diff,
    },
    CommandSpec {
        words: &["trace", "accept"],
        operand: "<benchmark>",
        summary: "re-capture and bless the stored trace baseline in place",
        flags: &[FlagSpec {
            name: "tolerance",
            value: Some("PHASE:PCT"),
            repeatable: true,
            help: "persist a per-span drift tolerance (percent) in the baseline",
        }],
        run: cmd_trace_accept,
    },
    CommandSpec {
        words: &["serve"],
        operand: "[benchmark]",
        summary: "observability endpoint + multi-tenant POST /jobs service",
        flags: &[
            NODES,
            CAP,
            QUICK,
            flag("repeat", "N", "measured runs before settling into serve-only mode"),
            METRICS_PORT,
            flag(
                "max-sessions",
                "N",
                "concurrent job sessions; further POSTed jobs queue (default 2)",
            ),
            flag(
                "max-queue",
                "N",
                "queued submissions before POST /jobs answers 429 (default 32)",
            ),
            flag(
                "job-ttl",
                "DUR",
                "evict terminal jobs after DUR (30s/15m/1h; default 15m; 0 disables the TTL; \
                 the 256 most recently finished jobs are kept)",
            ),
            FlagSpec {
                name: "federate",
                value: Some("URL"),
                repeatable: true,
                help: "merge this peer's /metrics into ours, labelled peer=\"URL\"",
            },
        ],
        run: cmd_serve,
    },
    CommandSpec {
        words: &["logs"],
        operand: "<url>",
        summary: "fetch a running service's structured log journal (jsonl)",
        flags: &[
            flag("after", "SEQ", "cursor from the previous chunk (default 0)"),
            flag("level", "LVL", "minimum severity: debug|info|warn|error (default debug)"),
            flag("limit", "N", "records per chunk (default 512)"),
        ],
        run: cmd_logs,
    },
];

/// Parsed argv for one command: operands plus `(flag, raw value)` pairs
/// in order of appearance (booleans store an empty value).
struct Parsed {
    positional: Vec<String>,
    flags: Vec<(&'static str, String)>,
}

impl Parsed {
    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.flags
            .iter()
            .filter(move |(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }
}

impl CommandSpec {
    fn id(&self) -> String {
        self.words.join(" ")
    }

    fn parse(&self, rest: &[String]) -> Result<Parsed, String> {
        let mut parsed = Parsed {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = rest.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                parsed.positional.push(a.clone());
                continue;
            };
            let Some(spec) = self.flags.iter().find(|f| f.name == name) else {
                return Err(format!("unknown flag '--{name}' for 'vpp {}'", self.id()));
            };
            let value = match spec.value {
                Some(metavar) => it
                    .next()
                    .ok_or_else(|| format!("--{name} needs {metavar}"))?
                    .clone(),
                None => String::new(),
            };
            if !spec.repeatable && parsed.flags.iter().any(|(n, _)| *n == spec.name) {
                return Err(format!("--{name} given more than once"));
            }
            parsed.flags.push((spec.name, value));
        }
        Ok(parsed)
    }

    fn usage(&self) -> String {
        let mut s = format!("usage: vpp {}", self.id());
        if !self.operand.is_empty() {
            s.push(' ');
            s.push_str(self.operand);
        }
        for f in self.flags {
            match f.value {
                Some(metavar) => s.push_str(&format!(" [--{} {metavar}]", f.name)),
                None => s.push_str(&format!(" [--{}]", f.name)),
            }
            if f.repeatable {
                s.push_str("...");
            }
        }
        s.push('\n');
        s
    }

    fn help(&self) -> String {
        let mut s = self.usage();
        s.push_str(&format!("\n{}\n", self.summary));
        if !self.flags.is_empty() {
            s.push_str("\nflags:\n");
            for f in self.flags {
                let head = match f.value {
                    Some(metavar) => format!("--{} {metavar}", f.name),
                    None => format!("--{}", f.name),
                };
                s.push_str(&format!("  {head:<28} {}\n", f.help));
            }
        }
        s
    }
}

fn global_usage() -> String {
    let mut s = String::from("usage: vpp <command> [flags]\n\ncommands:\n");
    for c in COMMANDS {
        let left = if c.operand.is_empty() {
            c.id()
        } else {
            format!("{} {}", c.id(), c.operand)
        };
        s.push_str(&format!("  {left:<28} {}\n", c.summary));
    }
    s.push_str("\nrun `vpp <command> --help` for that command's flags\n");
    s
}

/// Longest-prefix match of `raw` against the command table; returns the
/// spec and the remaining (un-consumed) argv.
fn match_command(raw: &[String]) -> Option<(&'static CommandSpec, &[String])> {
    let mut best: Option<(&'static CommandSpec, usize)> = None;
    for c in COMMANDS {
        let n = c.words.len();
        let hit = raw.len() >= n && raw[..n].iter().zip(c.words).all(|(a, b)| a == b);
        if hit && best.is_none_or(|(_, len)| n > len) {
            best = Some((c, n));
        }
    }
    best.map(|(c, n)| (c, &raw[n..]))
}

// ---------------------------------------------------------------------------
// Typed flag readers
// ---------------------------------------------------------------------------

fn flag_parse<T: std::str::FromStr>(p: &Parsed, name: &str) -> Result<Option<T>, String> {
    p.value(name)
        .map(|v| v.parse().map_err(|_| format!("bad --{name} '{v}'")))
        .transpose()
}

/// `--cap W`, checked against the GPU's settable window before anything
/// runs or binds.
fn flag_cap(p: &Parsed) -> Result<Option<f64>, String> {
    flag_parse::<f64>(p, "cap")?
        .map(|cap| protocol::check_cap_w("--cap", cap))
        .transpose()
}

/// A `--perturb PHASE:FACTOR` value: either a compute phase kind or the
/// `collective` pseudo-phase stretching network time only.
#[derive(Clone, Copy)]
enum Perturb {
    Phase(PhaseKind, f64),
    Collective(f64),
}

impl Perturb {
    fn label(self) -> String {
        match self {
            Perturb::Phase(kind, factor) => format!("{} x{factor:.2}", kind.name()),
            Perturb::Collective(factor) => format!("collective x{factor:.2}"),
        }
    }

    fn apply(self, cfg: protocol::RunConfig) -> protocol::RunConfig {
        match self {
            Perturb::Phase(kind, factor) => cfg.perturbed(kind, factor),
            Perturb::Collective(factor) => cfg.perturbed_collective(factor),
        }
    }
}

fn flag_perturb(p: &Parsed) -> Result<Option<Perturb>, String> {
    let Some(v) = p.value("perturb") else {
        return Ok(None);
    };
    let (phase, factor) = v
        .split_once(':')
        .ok_or_else(|| format!("bad --perturb '{v}' (want PHASE:FACTOR)"))?;
    let factor: f64 = factor
        .parse()
        .map_err(|_| format!("bad perturb factor '{factor}'"))?;
    if !(factor > 0.0 && factor.is_finite()) {
        return Err(format!("perturb factor must be positive, got {factor}"));
    }
    if phase == "collective" {
        return Ok(Some(Perturb::Collective(factor)));
    }
    let kind = PhaseKind::parse(phase).ok_or_else(|| {
        format!("unknown phase '{phase}' (init|scf_iter|rpa_diag|rpa_chi0|collective)")
    })?;
    Ok(Some(Perturb::Phase(kind, factor)))
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Resolve a benchmark name or an input-deck directory.
fn resolve(target: &str) -> Result<benchmarks::Benchmark, String> {
    if let Some(b) = benchmarks::suite().into_iter().find(|b| b.name() == target) {
        return Ok(b);
    }
    let dir = std::path::Path::new(target);
    if dir.is_dir() {
        let incar = std::fs::read_to_string(dir.join("INCAR"))
            .map_err(|e| format!("cannot read {target}/INCAR: {e}"))?;
        let poscar = std::fs::read_to_string(dir.join("POSCAR"))
            .map_err(|e| format!("cannot read {target}/POSCAR: {e}"))?;
        let mut deck = parse_incar(&incar).map_err(|e| format!("INCAR: {e}"))?.deck;
        let cell = parse_poscar(&poscar).map_err(|e| format!("POSCAR: {e}"))?;
        if let Ok(kp) = std::fs::read_to_string(dir.join("KPOINTS")) {
            deck.kpoints = parse_kpoints(&kp).map_err(|e| format!("KPOINTS: {e}"))?;
        }
        deck.validate().map_err(|e| format!("combined deck: {e}"))?;
        return Ok(benchmarks::Benchmark {
            cell,
            deck,
            cap_study_nodes: 1,
        });
    }
    Err(format!(
        "'{target}' is neither a benchmark name nor an input directory; try `vpp list`"
    ))
}

fn ctx(quick: bool) -> protocol::StudyContext {
    if quick {
        protocol::StudyContext::quick()
    } else {
        protocol::StudyContext::paper()
    }
}

fn flush_stdout() {
    let _ = std::io::stdout().flush();
}

/// Start the observability server when a `--metrics-port` was given. The
/// bound address is printed (and flushed) immediately so a scraper can
/// find an ephemeral port before the run starts.
fn start_server(p: &Parsed) -> Result<Option<ServeHandle>, String> {
    let Some(port) = flag_parse::<u16>(p, "metrics-port")? else {
        return Ok(None);
    };
    let handle =
        serve::serve(port).map_err(|e| format!("cannot bind metrics port {port}: {e}"))?;
    println!("serving on http://{}", handle.addr());
    println!("endpoints   : /metrics /healthz /trace?format=json|jsonl|csv");
    flush_stdout();
    Ok(Some(handle))
}

// ---------------------------------------------------------------------------
// Command handlers
// ---------------------------------------------------------------------------

fn cmd_list(_p: &Parsed) -> Result<(), String> {
    println!("{:<14} {:>9} {:>7} {:>8}  functional", "benchmark", "electrons", "ions", "NPLWV");
    for b in benchmarks::suite() {
        let p = b.params();
        println!(
            "{:<14} {:>9} {:>7} {:>8}  {:?}",
            b.name(),
            p.nelect,
            p.n_ions,
            p.nplwv,
            p.xc
        );
    }
    Ok(())
}

fn cmd_profile(p: &Parsed) -> Result<(), String> {
    let target = p.positional.first().ok_or("profile needs a target")?;
    let bench = resolve(target)?;
    let nodes = flag_parse(p, "nodes")?.unwrap_or(1);
    let cap = flag_cap(p)?;
    let cfg = match cap {
        Some(c) => protocol::RunConfig::capped(nodes, c),
        None => protocol::RunConfig::nodes(nodes),
    };
    // The server reports on the session bound when it starts, so open one
    // for it to scrape even though `profile` keeps no trace of its own.
    let _session = p
        .has("metrics-port")
        .then(|| trace::session(flight::SESSION_CAPACITY));
    let server = start_server(p)?;
    if let Some(h) = &server {
        h.set_workload(bench.name(), 1);
        h.set_state(RunState::Running);
    }
    let m = protocol::measure(&bench, &cfg, &ctx(p.has("quick")));
    if let Some(h) = &server {
        h.run_completed();
        h.set_state(RunState::Done);
    }
    println!("workload   : {} on {nodes} node(s)", bench.name());
    if let Some(c) = cap {
        println!("GPU cap    : {c:.0} W");
    }
    println!("runtime    : {:.0} s", m.runtime_s);
    println!("energy     : {:.2} MJ", m.energy_j / 1e6);
    println!("node power : {}", m.node_summary);
    println!("GPU0 power : {}", m.gpu_summary);
    Ok(())
}

fn cmd_caps(p: &Parsed) -> Result<(), String> {
    let target = p.positional.first().ok_or("caps needs a target")?;
    let bench = resolve(target)?;
    let nodes = flag_parse(p, "nodes")?.unwrap_or(bench.cap_study_nodes);
    let c = ctx(p.has("quick"));
    let _session = p
        .has("metrics-port")
        .then(|| trace::session(flight::SESSION_CAPACITY));
    let server = start_server(p)?;
    if let Some(h) = &server {
        h.set_workload(bench.name(), 4);
        h.set_state(RunState::Running);
    }
    println!(
        "{:>6} {:>10} {:>6} {:>12} {:>10}",
        "cap W", "runtime s", "perf", "node mode W", "energy MJ"
    );
    let base = protocol::measure(&bench, &protocol::RunConfig::nodes(nodes), &c);
    if let Some(h) = &server {
        h.run_completed();
    }
    for cap in [400.0, 300.0, 200.0, 100.0] {
        let m = if cap >= 400.0 {
            base.clone()
        } else {
            let m = protocol::measure(&bench, &protocol::RunConfig::capped(nodes, cap), &c);
            if let Some(h) = &server {
                h.run_completed();
            }
            m
        };
        println!(
            "{cap:>6.0} {:>10.0} {:>6.2} {:>12.0} {:>10.2}",
            m.runtime_s,
            base.runtime_s / m.runtime_s,
            m.node_summary.high_mode_w,
            m.energy_j / 1e6
        );
        flush_stdout();
    }
    if let Some(h) = &server {
        h.set_state(RunState::Done);
    }
    Ok(())
}

fn cmd_screen(p: &Parsed) -> Result<(), String> {
    let target = p.positional.first().ok_or("screen needs a target")?;
    let bench = resolve(target)?;
    let nodes = flag_parse::<usize>(p, "nodes")?.unwrap_or(4).max(3);
    let c = ctx(true);
    let plan = protocol::plan_for(&bench, nodes, &c);
    let mut spec = JobSpec::new(nodes);
    if let Some(v) = p.value("straggler") {
        let (idx, factor) = v
            .split_once(':')
            .ok_or_else(|| format!("bad --straggler '{v}' (want IDX:FACTOR)"))?;
        let idx: usize = idx
            .parse()
            .map_err(|_| format!("bad straggler index '{idx}'"))?;
        let factor: f64 = factor
            .parse()
            .map_err(|_| format!("bad straggler factor '{factor}'"))?;
        if idx >= nodes {
            return Err(format!("straggler index {idx} out of {nodes} nodes"));
        }
        spec.straggler = Some(Straggler {
            node: idx,
            slowdown: factor,
        });
        println!("(injected straggler: node {idx} at {factor}x)");
    }
    let res = execute(&plan, &spec, &NetworkModel::perlmutter());
    let sampler = Sampler::ideal(1.0);
    let per_node: Vec<_> = res
        .node_traces
        .iter()
        .map(|t| sampler.sample(&t.node))
        .collect();
    println!("{:>5} {:>10} {:>8}  verdict", "node", "mean W", "z");
    for v in Screener::default_threshold().screen(&per_node) {
        println!(
            "{:>5} {:>10.0} {:>8.2}  {}",
            v.node,
            v.mean_w,
            v.z_score,
            if v.outlier { "OUTLIER" } else { "ok" }
        );
    }
    Ok(())
}

fn cmd_phases(p: &Parsed) -> Result<(), String> {
    let target = p.positional.first().ok_or("phases needs a target")?;
    let bench = resolve(target)?;
    let nodes = flag_parse(p, "nodes")?.unwrap_or(1);
    let m = protocol::measure(&bench, &protocol::RunConfig::nodes(nodes), &ctx(true));
    let interval = m.node_series.mean_interval_s().unwrap_or(1.0);
    println!("{:>10} {:>12} {:>10}", "duration s", "mean W", "samples");
    for seg in Segmenter::node_power().segment(m.node_series.values()) {
        println!(
            "{:>10.0} {:>12.0} {:>10}",
            seg.len() as f64 * interval,
            seg.mean_w,
            seg.len()
        );
    }
    Ok(())
}

/// Sum of node-level energy over a sim-time window, joules.
fn window_energy_j(run: &JobResult, t0: f64, t1: f64) -> f64 {
    run.node_traces
        .iter()
        .map(|c| c.node.energy_between(t0, t1))
        .sum()
}

/// Per-span detail column: sim-time window plus attributed energy for
/// phase spans, the recorded sim runtime for execution-level spans.
fn span_detail(rec: &trace::SpanRecord, run: &JobResult) -> String {
    if let (Some(t0), Some(t1)) = (rec.field_f64("sim_t0"), rec.field_f64("sim_t1")) {
        let e = window_energy_j(run, t0, t1);
        let total = run.energy_j().max(1e-12);
        return format!(
            "sim {t0:>7.1} -> {t1:>7.1} s  {:>9.1} kJ ({:>4.1}%)",
            e / 1e3,
            100.0 * e / total
        );
    }
    if let Some(r) = rec.field_f64("runtime_s") {
        return format!("sim runtime {r:.0} s");
    }
    String::new()
}

fn print_trace_line(label: &str, depth: usize, wall_ms: f64, detail: &str) {
    let padded = format!("{}{label}", "  ".repeat(depth));
    println!("{padded:<44} {wall_ms:>9.3}  {detail}");
}

fn print_span(node: &trace::SpanNode, depth: usize, run: &JobResult) {
    let label = match node.record.field_f64("index") {
        Some(i) => format!("{}[{}]", node.record.name, i as u64),
        None => node.record.name.to_string(),
    };
    let wall_ms = node.record.duration_ns().map_or(f64::NAN, |d| d as f64 / 1e6);
    print_trace_line(&label, depth, wall_ms, &span_detail(&node.record, run));
    print_span_children(&node.children, depth + 1, run);
}

/// Print a sibling list, collapsing runs of more than four same-named
/// spans (SCF iterations, collectives) into one aggregate row so deep
/// traces stay readable.
fn print_span_children(children: &[trace::SpanNode], depth: usize, run: &JobResult) {
    let mut i = 0;
    while i < children.len() {
        let name = children[i].record.name;
        let mut j = i;
        while j < children.len() && children[j].record.name == name {
            j += 1;
        }
        let group = &children[i..j];
        if group.len() <= 4 {
            for n in group {
                print_span(n, depth, run);
            }
        } else {
            let wall_ms: f64 = group
                .iter()
                .filter_map(|n| n.record.duration_ns())
                .sum::<u64>() as f64
                / 1e6;
            let t0 = group
                .iter()
                .filter_map(|n| n.record.field_f64("sim_t0"))
                .fold(f64::INFINITY, f64::min);
            let t1 = group
                .iter()
                .filter_map(|n| n.record.field_f64("sim_t1"))
                .fold(f64::NEG_INFINITY, f64::max);
            let detail = if t0.is_finite() && t1.is_finite() {
                let e = window_energy_j(run, t0, t1);
                let total = run.energy_j().max(1e-12);
                format!(
                    "sim {t0:>7.1} -> {t1:>7.1} s  {:>9.1} kJ ({:>4.1}%)",
                    e / 1e3,
                    100.0 * e / total
                )
            } else {
                String::new()
            };
            print_trace_line(&format!("{name} x{}", group.len()), depth, wall_ms, &detail);
        }
        i = j;
    }
}

fn bench_out_path() -> String {
    std::env::var("VPP_BENCH_OUT").unwrap_or_else(|_| "BENCH_results.json".to_string())
}

/// Simulate a seeded campaign of heterogeneous jobs under every cap
/// policy and print the what-if comparison table.
fn cmd_campaign(p: &Parsed) -> Result<(), String> {
    let jobs = flag_parse(p, "jobs")?.unwrap_or(2000usize);
    let seed = flag_parse(p, "seed")?.unwrap_or(7u64);
    let partitions = flag_parse(p, "partitions")?.unwrap_or(8usize);
    if jobs == 0 || partitions == 0 {
        return Err("--jobs and --partitions must be positive".into());
    }
    let mut spec = CampaignSpec {
        partitions,
        ..CampaignSpec::new(jobs, seed)
    };
    if let Some(budget) = flag_parse::<f64>(p, "site-budget")? {
        if !(budget > 0.0 && budget.is_finite()) {
            return Err(format!("--site-budget must be positive watts, got {budget}"));
        }
        spec.site_budget_w = Some(budget);
    }
    let shards = flag_parse(p, "shards")?.unwrap_or(spec.partitions);
    if shards == 0 {
        return Err("--shards must be positive".into());
    }
    // Fixed-cap storage must outlive the borrow the policy table takes.
    let fixed: Option<FixedCap> = flag_cap(p)?.map(FixedCap);
    let mut policies: Vec<(String, &dyn CapPolicy)> = campaign::baseline_policies()
        .into_iter()
        .map(|(n, p)| (n.to_string(), p as &dyn CapPolicy))
        .collect();
    if let Some(fc) = &fixed {
        policies.push((format!("fixed_{:.0}w", fc.0), fc));
    }
    if let Some(name) = p.value("policy") {
        match name {
            "tco" | "tco_aware" => policies.push(("tco_aware".into(), &TcoAware::DEFAULT)),
            other => return Err(format!("unknown --policy '{other}'; known: tco")),
        }
    }
    println!(
        "campaign : {} jobs, seed {}, {} partitions x {} nodes ({:.0} kW each), {} shard(s)",
        spec.jobs,
        spec.seed,
        spec.partitions,
        spec.nodes_per_partition,
        spec.partition_budget_w / 1e3,
        shards
    );
    if let Some(budget) = spec.site_budget_w {
        println!(
            "site     : {:.1} kW envelope ({:.0} % of the summed {:.1} kW), global backfill on",
            budget / 1e3,
            100.0 * budget / spec.summed_budget_w(),
            spec.summed_budget_w() / 1e3
        );
    }
    println!();
    println!(
        "{:<14} {:>8} {:>10} {:>9} {:>9} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "policy",
        "jobs/h",
        "makespan",
        "peak kW",
        "mean kW",
        "energy MJ",
        "tco $",
        "slow p50",
        "slow p90",
        "backfill"
    );
    let t0 = std::time::Instant::now();
    let mut worst_peak_w: f64 = 0.0;
    for (name, policy) in &policies {
        let out = campaign::run(&spec, *policy, shards);
        worst_peak_w = worst_peak_w.max(out.merged.peak_power_w);
        println!(
            "{:<14} {:>8.1} {:>9.2}h {:>9.1} {:>9.1} {:>10.1} {:>9.2} {:>9.3} {:>9.3} {:>9}",
            name,
            out.throughput_per_hour(),
            out.merged.makespan_s / 3600.0,
            out.merged.peak_power_w / 1e3,
            out.merged.mean_power_w / 1e3,
            out.total_energy_j / 1e6,
            out.tco_usd,
            out.slowdown.p50,
            out.slowdown.p90,
            out.backfilled
        );
    }
    println!();
    if let Some(budget) = spec.site_budget_w {
        let ok = worst_peak_w <= budget + 1e-6;
        println!(
            "within budget : {} (worst peak {:.1} kW vs {:.1} kW envelope)",
            if ok { "yes" } else { "NO" },
            worst_peak_w / 1e3,
            budget / 1e3
        );
    }
    println!(
        "simulated {} policy runs in {:.2} s wall",
        policies.len(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// A `trace diff` / `trace accept` target: the name its baseline is
/// stored under, what the re-run is, and the capture of its pinned recipe.
struct BaselineTarget {
    name: String,
    rerun: String,
    capture: Box<dyn FnOnce() -> TraceBaseline>,
}

/// Resolve the target of `trace diff` and `trace accept`: `campaign` is
/// the pinned campaign recipe; anything else is a benchmark under the
/// pinned protocol recipe, stretched by `--perturb` when given.
fn baseline_target(p: &Parsed) -> Result<BaselineTarget, String> {
    let target = p
        .positional
        .first()
        .ok_or("needs a target: a benchmark or `campaign`")?;
    let perturb = flag_perturb(p)?;
    if target == campaign::BASELINE_NAME {
        // Not one of the Table I benchmarks: it has no perturbable
        // protocol phases.
        if perturb.is_some() {
            return Err("--perturb applies to protocol benchmarks, not the campaign".into());
        }
        return Ok(BaselineTarget {
            name: target.clone(),
            rerun: "pinned campaign recipe (unperturbed)".into(),
            capture: Box::new(|| {
                TraceBaseline::capture(campaign::SAMPLE_SPAN, campaign::baseline_body)
            }),
        });
    }
    let bench = resolve(target)?;
    let mut cfg = flight::baseline_cfg();
    let rerun = match perturb {
        Some(perturb) => {
            cfg = perturb.apply(cfg);
            format!("perturbed, {}", perturb.label())
        }
        None => "unperturbed baseline recipe".into(),
    };
    Ok(BaselineTarget {
        name: bench.name().to_string(),
        rerun,
        capture: Box::new(move || flight::capture(&bench, &cfg, &flight::baseline_ctx())),
    })
}

/// Re-run the target's pinned recipe, diff its per-phase trace aggregates
/// against the stored baseline, and print the ranked triage table. Exits
/// 1 when a significant regression is found.
fn cmd_trace_diff(p: &Parsed) -> Result<(), String> {
    let target = baseline_target(p)?;
    let path = bench_out_path();
    let base = load_baseline(&path, &target.name)?;
    println!(
        "baseline : {path} / {BASELINE_GROUP} / {} ({} repeat sample(s))",
        target.name,
        base.samples.len()
    );
    println!("re-run   : {}", target.rerun);
    let current = (target.capture)();
    let d = trace_diff(&base, &current, &DiffConfig::default());
    print_trace_diff(&d)
}

/// Print the ranked diff table, counters and verdict; exits 1 on a
/// significant regression.
fn print_trace_diff(d: &vasp_power_profiles::stats::TraceDiff) -> Result<(), String> {
    println!("paired   : {} repeat(s) bootstrapped", d.paired_repeats);
    println!();
    println!(
        "{:>4}  {:<26} {:<9} {:>12} {:>12} {:>8}  {:<26} verdict",
        "rank", "span", "metric", "base", "current", "delta%", "95% CI (delta)"
    );
    for (i, r) in d.rows.iter().enumerate() {
        let rel = if r.rel_delta.is_finite() {
            format!("{:+.1}", 100.0 * r.rel_delta)
        } else {
            "new".to_string()
        };
        let ci = match &r.ci {
            Some(ci) => format!("[{:+.3e}, {:+.3e}]", ci.lo, ci.hi),
            None => "(exact)".to_string(),
        };
        let verdict = if r.regression {
            "REGRESSION"
        } else if r.significant {
            "improved"
        } else if r.metric == "wall_ns" {
            "context"
        } else {
            "ok"
        };
        println!(
            "{:>4}  {:<26} {:<9} {:>12.4} {:>12.4} {:>8}  {:<26} {verdict}",
            i + 1,
            r.span,
            r.metric,
            r.base,
            r.current,
            rel,
            ci
        );
    }
    if d.counter_deltas.is_empty() {
        println!("\ncounters : all equal");
    } else {
        println!("\ncounters :");
        for c in &d.counter_deltas {
            println!("  {:<30} {:>12} -> {:>12}", c.name, c.base, c.current);
        }
    }
    println!();
    match d.top_regression() {
        Some(top) => {
            println!(
                "verdict  : REGRESSION — {} {} moved {:+.1}% beyond noise",
                top.span,
                top.metric,
                100.0 * top.rel_delta
            );
            std::process::exit(1);
        }
        None if d.significant().is_empty() => {
            println!("verdict  : clean — run matches the stored baseline");
        }
        None => {
            println!("verdict  : changed but not regressed (significant improvements only)");
        }
    }
    Ok(())
}

/// Parse repeated `--tolerance PHASE:PCT` flags into span-name fractions.
fn parse_tolerances(p: &Parsed) -> Result<BTreeMap<String, f64>, String> {
    let mut tolerances = BTreeMap::new();
    for v in p.values("tolerance") {
        let (span, pct) = v
            .split_once(':')
            .ok_or_else(|| format!("bad --tolerance '{v}' (want PHASE:PCT)"))?;
        // Phase kinds normalise to their span names; anything dotted is
        // taken as a raw span name (`job.collective`).
        let name = match PhaseKind::parse(span) {
            Some(kind) => kind.name().to_string(),
            None if span.contains('.') => span.to_string(),
            None => {
                return Err(format!(
                    "unknown phase '{span}' (init|scf_iter|rpa_diag|rpa_chi0, \
                     or a span name like job.collective)"
                ))
            }
        };
        let pct: f64 = pct
            .parse()
            .map_err(|_| format!("bad tolerance percent '{pct}'"))?;
        if !(pct >= 0.0 && pct.is_finite()) {
            return Err(format!("tolerance percent must be >= 0, got {pct}"));
        }
        tolerances.insert(name, pct / 100.0);
    }
    Ok(tolerances)
}

/// Re-capture the target with its pinned recipe and bless the result as
/// the stored baseline, persisting `--tolerance` overrides next to it.
fn cmd_trace_accept(p: &Parsed) -> Result<(), String> {
    let target = baseline_target(p)?;
    let tolerances = parse_tolerances(p)?;
    let baseline = TraceBaseline {
        tolerances,
        ..(target.capture)()
    };
    let path = bench_out_path();
    store_baseline(&path, &target.name, &baseline)?;
    println!(
        "blessed  : {path} / {BASELINE_GROUP} / {} ({} repeat sample(s))",
        target.name,
        baseline.samples.len()
    );
    if baseline.tolerances.is_empty() {
        println!("tolerance: none (exact noise floor applies)");
    } else {
        for (name, frac) in &baseline.tolerances {
            println!("tolerance: {name} ±{:.1}%", 100.0 * frac);
        }
    }
    Ok(())
}

fn cmd_trace(p: &Parsed) -> Result<(), String> {
    let target = p.positional.first().ok_or("trace needs a target")?;
    let bench = resolve(target)?;
    let nodes = flag_parse(p, "nodes")?.unwrap_or(1);
    let cap = flag_cap(p)?;
    let mut cfg = match cap {
        Some(c) => protocol::RunConfig::capped(nodes, c),
        None => protocol::RunConfig::nodes(nodes),
    };
    let perturb = flag_perturb(p)?;
    if let Some(perturb) = perturb {
        cfg = perturb.apply(cfg);
    }
    let fmt = match p.value("format") {
        Some(v) => v
            .parse::<ExportFormat>()
            .map_err(|_| format!("unknown --format '{v}' ({})", ExportFormat::choices()))?,
        None => ExportFormat::Tree,
    };
    let mut c = ctx(p.has("quick"));
    // One traced run: the span tree of a single execution, not the
    // protocol's repeat spread.
    c.repeats = 1;
    let session = trace::session(1 << 20);
    let server = start_server(p)?;
    if let Some(h) = &server {
        h.set_workload(bench.name(), 1);
        h.set_state(RunState::Running);
    }
    let m = protocol::measure(&bench, &cfg, &c);
    if let Some(h) = &server {
        h.run_completed();
        h.set_state(RunState::Done);
    }
    let report = session.finish();
    report.well_formed()?;
    if let Some(body) = report.render(fmt) {
        print!("{body}");
        return Ok(());
    }
    // The tree's energy column reads the run's traces: re-run the
    // measured repeat, after the session closed so it records nothing.
    let plan = protocol::plan_for(&bench, m.nodes, &c);
    let run = execute(&plan, &m.spec, &c.network);
    println!("workload    : {} on {nodes} node(s)", bench.name());
    if let Some(cap) = cap {
        println!("GPU cap     : {cap:.0} W");
    }
    if let Some(perturb) = perturb {
        println!("perturbed   : {}", perturb.label());
    }
    println!(
        "sim runtime : {:.0} s    energy {:.2} MJ",
        m.runtime_s,
        m.energy_j / 1e6
    );
    println!();
    println!("{:<44} {:>9}  detail", "span", "wall ms");
    for root in report.span_tree() {
        print_span(&root, 0, &run);
    }
    if !report.counters.is_empty() {
        println!();
        println!("counters:");
        for (k, v) in &report.counters {
            println!("  {k:<30} {v:>12}");
        }
    }
    if !report.gauges.is_empty() {
        println!();
        println!("gauges:");
        for (k, v) in &report.gauges {
            println!("  {k:<30} {v:>12.1}");
        }
    }
    if report.dropped > 0 {
        println!();
        println!("(ring overflow: {} events dropped)", report.dropped);
    }
    Ok(())
}

/// Parse a human duration: a non-negative number with an optional
/// `s`/`m`/`h` suffix (bare numbers are seconds). `0` (any suffix)
/// means "no TTL" and maps to `None`.
fn parse_duration(raw: &str) -> Result<Option<Duration>, String> {
    let (digits, scale_s) = match raw.strip_suffix(['s', 'm', 'h']) {
        Some(num) => {
            let scale = match raw.as_bytes()[raw.len() - 1] {
                b'm' => 60.0,
                b'h' => 3600.0,
                _ => 1.0,
            };
            (num, scale)
        }
        None => (raw, 1.0),
    };
    let n: f64 = digits
        .parse()
        .map_err(|_| format!("expected a duration like 30s/15m/1h or 0, got '{raw}'"))?;
    if !n.is_finite() || n < 0.0 {
        return Err(format!("duration must be non-negative and finite, got '{raw}'"));
    }
    if n == 0.0 {
        return Ok(None);
    }
    Ok(Some(Duration::from_secs_f64(n * scale_s)))
}

/// Run the (optional) benchmark under the observability endpoint, then
/// keep serving — including the multi-tenant `POST /jobs` service —
/// until the process is interrupted.
fn cmd_serve(p: &Parsed) -> Result<(), String> {
    let bench = p.positional.first().map(|t| resolve(t)).transpose()?;
    let nodes = flag_parse(p, "nodes")?.unwrap_or(1);
    let cap = flag_cap(p)?;
    let repeat = flag_parse::<usize>(p, "repeat")?.unwrap_or(1).max(1);
    let port = flag_parse::<u16>(p, "metrics-port")?.unwrap_or(0);
    let max_sessions = flag_parse::<usize>(p, "max-sessions")?.unwrap_or(0);
    let max_queue = flag_parse::<usize>(p, "max-queue")?.unwrap_or(0);
    let federate: Vec<String> = p.values("federate").map(str::to_string).collect();
    let mut serve_cfg = ServeConfig::new(port)
        .federate(federate)
        .handler(Arc::new(ProtocolJobHandler));
    if max_sessions > 0 {
        serve_cfg = serve_cfg.max_sessions(max_sessions);
    }
    if max_queue > 0 {
        serve_cfg = serve_cfg.max_queue(max_queue);
    }
    if let Some(raw) = p.value("job-ttl") {
        serve_cfg = serve_cfg.job_ttl(parse_duration(raw).map_err(|e| format!("--job-ttl: {e}"))?);
    }
    // The server reports on the session bound when it starts. It stays
    // open for the life of the process so late scrapes keep seeing the
    // final trace state; POSTed jobs record into their own sessions and
    // leave this one alone.
    let _session = trace::session(flight::SESSION_CAPACITY);
    let handle =
        serve::serve_with(serve_cfg).map_err(|e| format!("cannot bind metrics port {port}: {e}"))?;
    println!("serving on http://{}", handle.addr());
    println!("endpoints   : /metrics /healthz /trace?format=json|jsonl|csv /logs?after=SEQ&level=warn");
    println!("job service : POST /jobs, GET /jobs, DELETE /jobs/<id>, /jobs/<id>[/trace?after=SEQ|/metrics]");
    flush_stdout();
    if let Some(bench) = &bench {
        let cfg = match cap {
            Some(c) => protocol::RunConfig::capped(nodes, c),
            None => protocol::RunConfig::nodes(nodes),
        };
        handle.set_workload(bench.name(), repeat as u64);
        handle.set_state(RunState::Running);
        let c = ctx(p.has("quick"));
        for r in 0..repeat {
            let m = protocol::measure(bench, &cfg, &c);
            handle.run_completed();
            println!(
                "run {}/{repeat} : runtime {:.0} s, energy {:.2} MJ",
                r + 1,
                m.runtime_s,
                m.energy_j / 1e6
            );
            flush_stdout();
        }
        handle.set_state(RunState::Done);
        println!("all runs complete; serving until interrupted (Ctrl-C to stop)");
    } else {
        println!("no benchmark operand; serving POSTed jobs until interrupted (Ctrl-C to stop)");
    }
    flush_stdout();
    loop {
        std::thread::park();
    }
}

fn cmd_logs(p: &Parsed) -> Result<(), String> {
    let target = p
        .positional
        .first()
        .ok_or("logs needs the service address, e.g. `vpp logs 127.0.0.1:9100`")?;
    let after = flag_parse::<u64>(p, "after")?.unwrap_or(0);
    let limit = flag_parse::<usize>(p, "limit")?;
    let level = match p.value("level") {
        // Validate locally so a typo fails with the level vocabulary
        // instead of a server round-trip.
        Some(raw) => raw.parse::<trace::LogLevel>()?.name(),
        None => trace::LogLevel::Debug.name(),
    };
    let mut path = format!("/logs?after={after}&level={level}");
    if let Some(n) = limit {
        path.push_str(&format!("&limit={n}"));
    }
    let hostport = target
        .strip_prefix("http://")
        .unwrap_or(target)
        .split('/')
        .next()
        .unwrap_or(target);
    let (status, head, body) = serve::scrape_peer(&format!("{hostport}{path}"))?;
    if status != 200 {
        return Err(format!("{hostport} answered {status}: {}", body.trim_end()));
    }
    print!("{body}");
    flush_stdout();
    // Cursor bookkeeping goes to stderr so stdout stays pure jsonl.
    for (header, label) in [
        ("x-vpp-next-cursor:", "next cursor"),
        ("x-vpp-more:", "more"),
        ("x-vpp-dropped:", "dropped"),
    ] {
        if let Some(v) = head
            .lines()
            .find(|l| l.to_ascii_lowercase().starts_with(header))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim())
        {
            eprintln!("{label} : {v}");
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        eprint!("{}", global_usage());
        std::process::exit(2);
    }
    if raw[0] == "--help" || raw[0] == "-h" || raw[0] == "help" {
        print!("{}", global_usage());
        return;
    }
    let Some((spec, rest)) = match_command(&raw) else {
        eprintln!("error: unknown command '{}'", raw[0]);
        eprint!("{}", global_usage());
        std::process::exit(2);
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", spec.help());
        return;
    }
    let parsed = match spec.parse(rest) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", spec.usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = (spec.run)(&parsed) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}
