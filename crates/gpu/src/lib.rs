//! NVIDIA A100 GPU model.
//!
//! The paper measures how VASP's GPU power responds to workload shape and to
//! `nvidia-smi` power caps on A100-40GB parts (§II, §V). This crate models
//! the device at the level those measurements depend on:
//!
//! * a **power model** mapping kernel utilisation and arithmetic intensity to
//!   instantaneous board power (idle floor → TDP),
//! * a **DVFS curve** (voltage/frequency with a voltage floor) used both for
//!   the physically-derived throttle response and the ablation benches,
//! * a **power-capping response** calibrated against the behaviour the paper
//!   reports: 300 W caps are free, 200 W caps cost ≈9 % on power-hungry
//!   workloads, 100 W caps are catastrophic for them, and at the 100 W floor
//!   the regulator visibly overshoots (Fig. 10),
//! * **manufacturing variability** between individual boards (§III-B.2).
//!
//! The calibration constants live in [`calib`] and are asserted against the
//! paper's published numbers by this crate's tests and by the workspace-level
//! integration tests.

pub mod calib;
pub mod dvfs;
pub mod kernel;
pub mod power;
pub mod thermal;
pub mod variability;

pub use calib::A100Spec;
pub use dvfs::DvfsCurve;
pub use kernel::{Kernel, KernelKind};
pub use power::{Executed, Gpu};
pub use thermal::ThermalModel;
pub use variability::GpuVariability;
