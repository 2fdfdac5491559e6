//! Simulation substrate for the VASP power-profile reproduction.
//!
//! This crate provides the primitives everything else is built on:
//!
//! * [`PowerTrace`] — a piecewise-constant power signal in watts over
//!   simulated seconds. All hardware models emit these; the telemetry and
//!   statistics layers consume them. [`EnergyFold`] keeps only a
//!   channel's end, last power and joules, for runs that read no segment.
//! * [`Rng`] — a small, fully deterministic SplitMix64-based random number
//!   generator so that every experiment is reproducible bit-for-bit across
//!   platforms and library versions (the paper's protocol repeats each run
//!   five times; we need stable streams per repeat).
//!
//! Times are `f64` seconds from an arbitrary epoch; powers are `f64` watts;
//! energies are joules.

pub mod trace;

/// Deterministic SplitMix64 RNG, hosted by `vpp-substrate` (the layer
/// below) and re-exported here so every historical `vpp_sim::Rng` /
/// `vpp_sim::rng` path keeps working.
pub use vpp_substrate::rng;

pub use rng::Rng;
pub use trace::{EnergyFold, PowerTrace, Segment};
