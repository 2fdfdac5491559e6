//! Regenerate every table and figure of the paper.
//!
//! Usage:
//! ```text
//! repro                       # run everything (Table I + Figs. 1–13 + predict)
//! repro table1 fig12          # run a subset
//! repro --quick               # fewer protocol repeats (faster)
//! repro --csv out/            # also write machine-readable CSVs per experiment
//! ```
//!
//! Sections are independent experiments, so they fan out across the
//! substrate work pool and print in the canonical order once everything
//! has finished. A single-section invocation bypasses the pool, letting
//! the sweep inside that section parallelise instead.

use std::time::Instant;
use vpp_core::experiments::{
    capping, fig01, fig02, fig03, fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11,
    fig12, fig13, predict_eval, scaling, table1,
};
use vpp_core::flight;
use vpp_core::protocol::StudyContext;

/// `(section name, rendered body, CSV payload)` tuples one job produced.
type SectionOut = Vec<(&'static str, String, String)>;
type Job = Box<dyn Fn() -> SectionOut + Send + Sync>;

/// Every section name the command line may select.
const SECTIONS: &str = "table1 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 \
                        fig13 predict phase_energy campaign_contention";

/// Reject the command line: one error line plus the usage line, exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("usage: repro [--quick] [--csv DIR] [SECTION...] (sections: {SECTIONS})");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut csv_dir: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--csv" => match args.next() {
                Some(dir) if !dir.starts_with("--") => csv_dir = Some(dir),
                _ => usage_error("--csv needs a directory"),
            },
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag '{flag}'")),
            name if !SECTIONS.split_whitespace().any(|s| s == name) => {
                usage_error(&format!("unknown section '{name}'"))
            }
            _ => selected.push(arg),
        }
    }
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            usage_error(&format!("cannot create the CSV directory '{dir}': {e}"));
        }
    }
    let want = |name: &str| selected.is_empty() || selected.iter().any(|s| s == name);

    let ctx = if quick {
        StudyContext::quick()
    } else {
        StudyContext::paper()
    };

    let mut jobs: Vec<(&'static str, Job)> = Vec::new();
    let mut add = |name: &'static str, job: Job| jobs.push((name, job));

    if want("table1") {
        add("table1", Box::new(|| {
            let r = table1::run();
            vec![("table1", r.to_string(), r.csv())]
        }));
    }
    if want("fig1") {
        add("fig1", Box::new(move || {
            let r = fig01::run(&ctx);
            vec![("fig1", r.to_string(), r.csv())]
        }));
    }
    if want("fig2") {
        add("fig2", Box::new(move || {
            let r = fig02::run(&ctx);
            vec![("fig2", r.to_string(), r.csv())]
        }));
    }
    if want("fig3") {
        add("fig3", Box::new(move || {
            let r = fig03::run(&ctx);
            vec![("fig3", r.to_string(), r.csv())]
        }));
    }

    // Figs. 4 and 5 share one node-count sweep.
    if want("fig4") || want("fig5") {
        let (w4, w5) = (want("fig4"), want("fig5"));
        add("fig4+fig5", Box::new(move || {
            let data = scaling::measure_suite(
                &vpp_core::benchmarks::suite(),
                &scaling::NODE_COUNTS,
                &ctx,
            );
            let mut out = SectionOut::new();
            if w4 {
                let r = fig04::from_scaling(&data, &scaling::NODE_COUNTS);
                out.push(("fig4", r.to_string(), r.csv()));
            }
            if w5 {
                let r = fig05::from_scaling(&data, &scaling::NODE_COUNTS);
                out.push(("fig5", r.to_string(), r.csv()));
            }
            out
        }));
    }

    if want("fig6") {
        add("fig6", Box::new(move || {
            let r = fig06::run(&ctx);
            vec![("fig6", r.to_string(), r.csv())]
        }));
    }
    if want("fig7") {
        add("fig7", Box::new(move || {
            let r = fig07::run(&ctx);
            vec![("fig7", r.to_string(), r.csv())]
        }));
    }
    if want("fig8") {
        add("fig8", Box::new(move || {
            let r = fig08::run(&ctx);
            vec![("fig8", r.to_string(), r.csv())]
        }));
    }
    if want("fig9") {
        add("fig9", Box::new(move || {
            let r = fig09::run(&ctx);
            vec![("fig9", r.to_string(), r.csv())]
        }));
    }

    // Figs. 10 and 12 share one cap sweep.
    if want("fig10") || want("fig12") {
        let (w10, w12) = (want("fig10"), want("fig12"));
        add("fig10+fig12", Box::new(move || {
            let data = capping::measure_caps(&vpp_core::benchmarks::suite(), &ctx);
            let mut out = SectionOut::new();
            if w10 {
                let r = fig10::from_caps(&data);
                out.push(("fig10", r.to_string(), r.csv()));
            }
            if w12 {
                let r = fig12::from_caps(&data);
                out.push(("fig12", r.to_string(), r.csv()));
            }
            out
        }));
    }

    if want("fig11") {
        add("fig11", Box::new(move || {
            let r = fig11::run(&ctx);
            vec![("fig11", r.to_string(), r.csv())]
        }));
    }
    if want("predict") {
        add("predict", Box::new(move || {
            let r = predict_eval::run(&ctx);
            vec![("predict", r.to_string(), r.csv())]
        }));
    }
    if want("fig13") {
        add("fig13", Box::new(move || {
            let r = fig13::run(&ctx);
            vec![("fig13", r.to_string(), r.csv())]
        }));
    }
    if want("phase_energy") {
        add("phase_energy", Box::new(move || {
            let r = flight::phase_energy(&ctx);
            vec![("phase_energy", r.to_string(), r.csv())]
        }));
    }
    if want("campaign_contention") {
        add("campaign_contention", Box::new(|| {
            let r = vpp_powercap::campaign::contention_report();
            vec![("campaign_contention", r.to_string(), r.csv())]
        }));
    }

    let wall = Instant::now();
    let results = vpp_substrate::par_map(jobs, |(name, job)| {
        let t = Instant::now();
        let outputs = job();
        (name, outputs, t.elapsed().as_secs_f64())
    });

    // Print and persist in canonical order, after all sections finished.
    for (name, outputs, secs) in results {
        for (section, body, csv) in outputs {
            println!("{body}");
            if let Some(dir) = &csv_dir {
                let path = format!("{dir}/{section}.csv");
                std::fs::write(&path, csv).expect("cannot write CSV");
                eprintln!("[wrote {path}]");
            }
        }
        eprintln!("[{name} done in {secs:.1}s]");
    }
    eprintln!("[all sections done in {:.1}s wall]", wall.elapsed().as_secs_f64());
}
