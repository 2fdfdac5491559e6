//! Power statistics — the paper's analysis methodology (§III-B.3).
//!
//! The study characterises a workload's power by the **high power mode**:
//! the mode of the power distribution located at the highest power, found
//! from a Gaussian kernel density estimate of the timeline samples, together
//! with the **full width at half maximum** (FWHM) of that mode. This crate
//! implements:
//!
//! * [`kde`] — Gaussian KDE with Silverman/Scott bandwidths;
//! * [`modes`] — mode detection with prominence filtering, the high power
//!   mode, and FWHM extraction;
//! * [`describe`] — descriptive statistics (quantiles, mean, spread);
//! * [`violin`] — the quartile + density summaries behind Fig. 9;
//! * [`perf`] — speedup / parallel-efficiency helpers (Fig. 4);
//! * [`summary`] — the one-stop [`summary::PowerSummary`] the experiment
//!   harness reports for every run;
//! * [`trace_diff`](mod@trace_diff) — flight-recorder regression triage: paired-bootstrap
//!   comparison of per-phase trace aggregates against a stored baseline.

pub mod bootstrap;
pub mod describe;
pub mod energy_metrics;
pub mod kde;
pub mod modes;
pub mod perf;
pub mod phases;
pub mod summary;
pub mod trace_diff;
pub mod violin;

pub use bootstrap::{bootstrap_ci, high_power_mode_ci, ConfidenceInterval};
pub use energy_metrics::{best_point, Objective, OperatingPoint};
pub use kde::Kde;
pub use modes::{find_modes, fwhm, high_power_mode, DensityProfile, Mode};
pub use perf::parallel_efficiency;
pub use phases::{Phase, Segmenter};
pub use summary::{PowerSummary, ScreenedSummary};
pub use trace_diff::{diff as trace_diff, CounterDelta, DiffConfig, DiffRow, TraceDiff};
pub use violin::ViolinStats;
