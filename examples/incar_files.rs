//! Drive the simulator from real VASP-format input files.
//!
//! ```text
//! cargo run --release --example incar_files [dir-with-INCAR-POSCAR-KPOINTS]
//! ```
//!
//! With no argument, runs a built-in GaAsBi-64-style deck to show the
//! format. With a directory, reads `INCAR`, `POSCAR`, and (optionally)
//! `KPOINTS` from it, derives the computational parameters, and measures
//! the workload's power profile.

use vasp_power_profiles::core::protocol::StudyContext;
use vasp_power_profiles::dft::{
    build_plan, parse_incar, parse_kpoints, parse_poscar, ParallelLayout, SystemParams,
};

const DEMO_INCAR: &str = "\
SYSTEM = GaAsBi-64 demo
ALGO   = Fast
GGA    = PE
NELM   = 60
NBANDS = 192
KPAR   = 2
";

const DEMO_POSCAR: &str = "\
GaAsBi-64
1.0
17.55 0.0 0.0
0.0 17.55 0.0
0.0 0.0 17.55
Ga As Bi
32 31 1
Direct
";

const DEMO_KPOINTS: &str = "\
Automatic mesh
0
Gamma
4 4 4
";

fn read_or(dir: Option<&str>, file: &str, fallback: &str) -> String {
    match dir {
        Some(d) => std::fs::read_to_string(format!("{d}/{file}"))
            .unwrap_or_else(|e| panic!("cannot read {d}/{file}: {e}")),
        None => fallback.to_string(),
    }
}

fn main() {
    let dir = std::env::args().nth(1);
    let dir = dir.as_deref();
    if dir.is_none() {
        println!("(no directory given — using the built-in GaAsBi-64 deck)\n");
    }

    let incar_text = read_or(dir, "INCAR", DEMO_INCAR);
    let poscar_text = read_or(dir, "POSCAR", DEMO_POSCAR);

    let parsed = parse_incar(&incar_text).expect("INCAR parse failed");
    let mut deck = parsed.deck;
    if !parsed.ignored.is_empty() {
        println!(
            "tags parsed but not modelled: {}",
            parsed
                .ignored
                .iter()
                .map(|(t, _)| t.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    let cell = parse_poscar(&poscar_text).expect("POSCAR parse failed");

    // KPOINTS is optional (Γ-only default).
    let kpoints_text = match dir {
        Some(d) => std::fs::read_to_string(format!("{d}/KPOINTS")).ok(),
        None => Some(DEMO_KPOINTS.to_string()),
    };
    if let Some(text) = kpoints_text {
        deck.kpoints = parse_kpoints(&text).expect("KPOINTS parse failed");
    }
    deck.validate().expect("combined deck invalid");

    let params = SystemParams::derive(&cell, &deck);
    println!("structure  : {} ({} ions, {} electrons)", cell.name, params.n_ions, params.nelect);
    println!(
        "derived    : NBANDS {}, NPLWV {} (grid {}x{}x{}), {} k-points (KPAR {})",
        params.nbands,
        params.nplwv,
        params.fft_grid[0],
        params.fft_grid[1],
        params.fft_grid[2],
        params.nk,
        params.kpar
    );

    let ctx = StudyContext::quick();
    let plan = build_plan(&params, &ParallelLayout::nodes(1), &ctx.cost);
    let result = vasp_power_profiles::cluster::execute_node0(
        &plan,
        &vasp_power_profiles::cluster::JobSpec::new(1),
        &ctx.network,
    );
    let series = ctx.sampler.sample(&result.node_traces[0].node);
    let summary = vasp_power_profiles::stats::PowerSummary::from_samples(series.values());
    println!("runtime    : {:.0} s on 1 node", result.runtime_s);
    println!("node power : {summary}");
}
