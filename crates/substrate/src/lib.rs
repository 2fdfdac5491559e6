//! Std-only execution substrate for the workspace.
//!
//! The reproduction must build and run with **no external crates** (the
//! target environments resolve dependencies offline), yet the experiment
//! harness wants data parallelism, the test suite wants property-based
//! testing, and the perf trajectory wants a benchmark harness with
//! machine-readable output. This crate provides all three on `std` alone:
//!
//! * [`pool`] — a scoped-thread work pool ([`par_map`]) that replaces rayon
//!   in the experiment harness. Nested calls degrade to serial execution
//!   so fan-out never oversubscribes the machine.
//! * [`prop`] — a minimal property-test harness and the [`properties!`]
//!   macro that replace proptest: deterministic per-case RNG streams,
//!   failing-case seed reporting, `prop_assume!`-style discards.
//! * [`bench`](mod@bench) — a warmup/iterations/median benchmark harness that replaces
//!   criterion and emits `BENCH_results.json` so before/after numbers are
//!   tracked in-tree.
//! * [`json`] — the tiny JSON value model backing the bench reports.
//! * [`rng`] — the deterministic SplitMix64 generator every stochastic
//!   model ingredient draws from (re-exported by `vpp-sim` for its
//!   historical `vpp_sim::Rng` path).
//! * [`trace`] — a structured tracing + metrics substrate: a bounded
//!   recorder per session, all of its state behind one lock (bound to the
//!   calling thread per [`trace::session`], and inherited by [`par_map`]
//!   workers), collecting typed spans ([`span!`]), marks, counters, gauges
//!   and histograms, with a near-zero-cost no-op path when no session is
//!   bound.
//! * [`serve`] — a std-only HTTP/1.1 observability server exposing the
//!   session it was started under over `GET /metrics` (Prometheus text),
//!   `/healthz` and `/trace?format=json|jsonl|csv`, with a leak-free
//!   shutdown handle.

pub mod bench;
pub mod json;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod serve;
pub mod trace;

pub use bench::Harness;
pub use pool::par_map;
pub use rng::Rng;
