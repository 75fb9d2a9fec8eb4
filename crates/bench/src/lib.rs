//! # rds-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation section (§VI).
//!
//! * [`harness`] — workload construction (experiment × scheme × query type
//!   × load) and solver timing.
//! * [`figures`] — one entry point per paper figure (5-10), each returning
//!   the same series the paper plots.
//! * [`report`] — plain-text rendering of series and tables.
//! * [`rig`] — the one place binaries parse flags, time arms (alternated,
//!   every sample kept) and write their `BENCH_*.json` + `results/*.txt`
//!   record.
//!
//! Binaries:
//!
//! * `figures` — regenerates figure data (`cargo run -p rds-bench --release
//!   --bin figures -- --fig 9`).
//! * `tables` — prints the paper's Tables I-IV and the allocation grids of
//!   Figure 2.
//!
//! Plain-`main` benches (`cargo bench -p rds-bench`) cover the same
//! comparisons on fixed mid-size workloads.

pub mod figures;
pub mod harness;
pub mod report;
pub mod rig;
