//! # vasp-power-profiles
//!
//! A simulation-based reproduction of *"Understanding VASP Power Profiles
//! on NVIDIA A100 GPUs"* (Zhao, Rrapaj, Austin, Wright — SC 2024).
//!
//! The paper is an empirical power study of VASP on NERSC's Perlmutter
//! system; both the application (licensed) and the testbed (A100 nodes +
//! Cray PM / LDMS / OMNI telemetry) are inaccessible, so this workspace
//! rebuilds the entire measurement chain as calibrated models:
//!
//! * [`gpu`] / [`node`] — A100 and Perlmutter-node power models, including
//!   DVFS-based power capping and manufacturing variability;
//! * [`dft`] — a plane-wave DFT workload simulator reproducing VASP's
//!   parallelisation structure and per-method kernel mixes;
//! * [`cluster`] — a multi-node executor with an NCCL/Slingshot model;
//! * [`telemetry`] — the LDMS-like sampling and quarantine pipeline;
//! * [`stats`] — the paper's analysis methodology (KDE, high power mode,
//!   FWHM, violins, parallel efficiency);
//! * [`powercap`] — the §VI power-aware scheduler, its cap policies and
//!   campaigns, and a closed-loop budget controller;
//! * [`lqcd`] — the §VI-B follow-up: a MILC-like lattice-QCD workload run
//!   through the identical pipeline;
//! * [`core`] — the Table I benchmark suite, the §III-B measurement
//!   protocol, and one experiment runner per table/figure.
//!
//! ## Quickstart
//!
//! ```
//! use vasp_power_profiles::core::{benchmarks, protocol};
//!
//! let ctx = protocol::StudyContext::quick();
//! let bench = benchmarks::b_hr105_hse();
//! let m = protocol::measure(&bench, &protocol::RunConfig::nodes(1), &ctx);
//! assert!(m.node_summary.high_mode_w > 400.0);
//! println!("{}: {}", m.name, m.node_summary);
//! ```
//!
//! The `repro` binary regenerates every table and figure:
//! `cargo run --release --bin repro` (or `--bin repro -- fig12` for one).

pub use vpp_cluster as cluster;
pub use vpp_core as core;
pub use vpp_dft as dft;
pub use vpp_gpu as gpu;
pub use vpp_lqcd as lqcd;
pub use vpp_node as node;
pub use vpp_powercap as powercap;
pub use vpp_sim as sim;
pub use vpp_stats as stats;
pub use vpp_substrate as substrate;
pub use vpp_telemetry as telemetry;
