//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics with `--trace 1`).
//! The line before it records host context. Exit status 2 on bad
//! arguments.

use perfbench::{host::HostProbe, Config, Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: perfbench --workload paper_grid|campaign_partitioned|campaign_site|serve_jobs \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::PaperGrid,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => cfg.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0) {
                    return Err(format!("--seconds {value}: must be a non-negative number"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let probe = HostProbe::start();
    let report = perfbench::run(&cfg);
    for failure in &report.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", probe.finish());
    println!("{}", report.json_line());
}
