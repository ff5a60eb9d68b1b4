//! # dfx-bench — the benchmark harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! from the simulator and the calibrated baselines, printing the same
//! rows/series the paper reports side by side with the published values.
//!
//! Run `cargo run -p dfx-bench --release --bin reproduce -- all` to
//! regenerate everything, or pass an individual id (`fig14`, `table2`,
//! `batching`, ...). [`experiments::CATALOG`] lists every id with what
//! it regenerates (also printed by `reproduce --help`); see
//! `ARCHITECTURE.md` at the repository root for the paper-section ↔
//! crate map. Criterion benches (`cargo bench`) measure the simulator's
//! own component performance.
//!
//! Experiments produce [`table::ExperimentReport`]s — plain data that
//! renders to GitHub-flavoured markdown. A runner whose setup can fail
//! (an indivisible device count, a stream the model cannot serve)
//! returns `Result<ExperimentReport, SimError>`; `reproduce` reports
//! such an error and exits 1:
//!
//! ```
//! use dfx_bench::experiments::CATALOG;
//! use dfx_bench::table::{fmt, ExperimentReport, MdTable};
//!
//! // Every reproduce id is documented...
//! assert!(CATALOG.iter().any(|e| e.id == "batching"));
//!
//! // ...and every experiment returns the same report shape.
//! let mut report = ExperimentReport::new("demo", "A demo report");
//! let mut table = MdTable::new("One row", &["x", "y"]);
//! table.push_row(vec![fmt(1.0, 1), fmt(2.5, 1)]);
//! report.table(table);
//! assert!(report.to_markdown().contains("| 1.0 | 2.5 |"));
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod observability;
pub mod paper;
pub mod table;
