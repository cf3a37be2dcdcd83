//! Exact and approximate GED baselines.
//!
//! * [`astar`] — the exact A* algorithm (used to generate ground truth for
//!   graphs with ≤ 10 nodes, Section 6.1) and the A*-Beam approximation
//!   [Neuhaus et al. 2006]. These also stand in for the closed-source exact
//!   comparators (Nass, AStar-BMao) in the Figure 15 scalability study —
//!   same role: exponential-time exact search.
//! * [`classic`] — the cubic-time assignment-based baselines: Hungarian
//!   [Riesen & Bunke 2009], VJ [Fankhauser et al. 2011], and "Classic"
//!   (the better of the two), all realizing their mappings as feasible edit
//!   paths.
//! * [`simgnn`], [`gedgnn`], [`tagsim`] — the neural baselines of
//!   Section 6.2, built on the same `ged-nn` substrate as GEDIOT.
//! * [`noah`] — a Noah-like hybrid: beam search guided by a learned
//!   coupling matrix (substituting the paper's GPN guidance; the [`noah`]
//!   module docs give the reason).
//! * [`solvers`] — `GedSolver` adapters putting every baseline behind the
//!   uniform `ged_core::solver` interface.

#![warn(missing_docs)]

pub mod astar;
pub mod classic;
pub mod encoder;
pub mod gedgnn;
pub mod noah;
pub mod simgnn;
pub mod solvers;
pub mod tagsim;

pub use astar::{
    astar_beam, astar_beam_in, astar_exact, astar_exact_with_limit, AstarResult, BeamWorkspace,
};
pub use classic::{classic_ged, hungarian_ged, vj_ged, ClassicResult};
pub use gedgnn::{Gedgnn, GedgnnConfig};
pub use noah::noah_like;
pub use simgnn::{Simgnn, SimgnnConfig, SimgnnVariant};
pub use solvers::{ClassicSolver, GedgnnSolver, NoahSolver, SimgnnSolver, TagsimSolver};
pub use tagsim::{TagSim, TagSimConfig};
