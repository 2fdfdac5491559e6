//! Power telemetry: the LDMS analogue (§II-B).
//!
//! NERSC's monitoring stack samples Cray PM counters at a nominal 1-second
//! interval, but aggregate data rates force drops, yielding an effective
//! 2-second cadence; the counters themselves report window-averaged power.
//! This crate reproduces that pipeline:
//!
//! * [`Sampler`] — window-averaged sampling of a [`vpp_sim::PowerTrace`] at
//!   a configurable interval, with stochastic sample drops and jitter;
//! * [`TimeSeries`] — the sampled series, with the down-sampling used in the
//!   paper's Fig. 2 sampling-rate study and gap statistics;
//! * [`quality`] — the quarantine-and-quality ingest that screens dirty
//!   raw streams into valid series plus a [`DataQuality`] account;
//! * [`faults`] — the seeded [`FaultPlan`] injector reproducing realistic
//!   telemetry pathologies (dropout bursts, stuck sensors, NaN/spike
//!   glitches, clock skew, counter resets, reordering, duplicates);
//! * [`screening`] — the §III-B.1 per-node screen that flags nodes whose
//!   power deviates from the rest of the job's fleet.

pub mod faults;
pub mod quality;
pub mod sampler;
pub mod screening;
pub mod series;

pub use faults::{FaultLog, FaultPlan};
pub use quality::{quarantine, CleanSeries, DataQuality, QualityConfig, RawSeries};
pub use sampler::Sampler;
pub use screening::{NodeVerdict, Screener};
pub use series::TimeSeries;
