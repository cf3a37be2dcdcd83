//! Criterion micro-benchmarks for the `ot-ged` kernels.
//!
//! The benches regenerate the *time* columns of the paper's tables and
//! figures at micro scale; run them with `cargo bench`. Each bench target
//! in `benches/` is named after the table or figure it times
//! (`table3_methods`, `fig15_exact`, ...).
