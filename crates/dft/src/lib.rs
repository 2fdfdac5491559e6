//! Plane-wave DFT workload simulator — the VASP analogue.
//!
//! VASP itself is licensed software, so this crate implements the parts of
//! it the paper's power study actually depends on (DESIGN.md §1):
//!
//! * **Structures** ([`cell`]) — the seven benchmark systems of Table I and
//!   a silicon-supercell generator for the §IV sweeps.
//! * **Input deck** ([`incar`]) — the INCAR-level controls the paper varies:
//!   algorithm (iteration scheme), functional, ENCUT, NBANDS, KPOINTS, KPAR,
//!   NSIM, NELM.
//! * **Derived parameters** ([`params`]) — electron counts, default NBANDS,
//!   FFT grids / NPLWV, plane-wave basis size, exactly the quantities
//!   Table I reports.
//! * **The SCF loop** ([`scf`]) — lowered to a per-rank stream of GPU kernel
//!   blocks, host stages, and collectives ([`plan`]), with per-method cost
//!   models ([`costs`]) for Blocked Davidson, RMM-DIIS, damped CG, hybrid
//!   (HSE) exact exchange, van der Waals corrections, and ACFDT/RPA with its
//!   CPU-side exact diagonalisation.
//!
//! The crate knows nothing about nodes or networks: it produces a
//! [`plan::ScfPlan`] that `vpp-cluster` executes on modelled hardware.

pub mod cell;
pub mod costs;
pub mod incar;
pub mod io;
pub mod method;
pub mod params;
pub mod plan;
pub mod scf;

pub use cell::{Element, Supercell};
pub use costs::CostModel;
pub use incar::{Algo, Binary, Incar, Xc};
pub use io::{parse_incar, parse_kpoints, parse_poscar, ParseError};
pub use method::Method;
pub use params::SystemParams;
pub use plan::{CollectiveKind, Op, PhaseKind, PlanPhase, ScfPlan};
pub use scf::{build_plan, ParallelLayout};
