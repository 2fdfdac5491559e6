//! Multi-node job execution.
//!
//! Executes a `vpp-dft` plan on modelled Perlmutter nodes: one MPI rank per
//! GPU, four ranks per node (§III-B), NCCL collectives over NVLink within a
//! node and Slingshot between nodes, per-board manufacturing variability
//! desynchronising ranks between collectives, and GPU power caps applied
//! through the node's `nvidia-smi`-like interface.
//!
//! The output is one [`vpp_node::ComponentTraces`] per node — exactly the
//! channels the paper's monitoring stack records — plus the job runtime and
//! energy. [`execute_node0`] runs the same job for a reader of node 0
//! alone: it hands back node 0's channels and folds the other nodes into
//! the energy total. [`job_runtime`] runs it for a reader of the runtime
//! alone: every channel keeps a tally ([`vpp_sim::EnergyFold`]) instead of
//! segments, or nothing when no trace session is bound, and the run
//! records the same trace events. All three run one op-loop body, so they
//! agree bit for bit.

pub mod job;
pub mod network;

pub use job::{execute, execute_node0, job_runtime, JobResult, JobSpec, Straggler};
pub use network::NetworkModel;
