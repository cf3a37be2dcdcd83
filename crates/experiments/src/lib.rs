//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (Section 6 and Appendix G) on the synthetic dataset
//! stand-ins.
//!
//! Each experiment is a library function (`run_table3`, `run_fig15`, …)
//! with a thin binary wrapper in `src/bin/`, so `cargo run -p
//! ged-experiments --release --bin table3_ged` regenerates the
//! corresponding rows. `run_all` chains everything.
//!
//! Scale: the env var `GED_SCALE` selects `quick` (CI-sized, default) or
//! `full` (closer to the paper's protocol; minutes of CPU time).
//!
//! All method dispatch goes through the `ged_core::engine::GedEngine`
//! query API ([`MethodKind`] is re-exported from `ged-core`); the
//! harness builds one engine per trained model zoo via
//! [`TrainedModels::engine`].

#![warn(missing_docs)]

pub mod exp;
pub mod harness;

pub use harness::{ExpConfig, MethodKind, PreparedDataset, TrainedModels, ValueRow};
