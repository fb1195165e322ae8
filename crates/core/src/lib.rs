//! # problp-core — the ProbLP framework pipeline
//!
//! This crate wires the substrates together into the framework of the
//! paper's Fig. 2: given an arithmetic circuit, a query type and an error
//! tolerance, [`Problp`] runs the fixed- and floating-point error
//! analyses, finds the least bit widths, compares predicted energies,
//! selects a representation and generates the pipelined hardware.
//!
//! [`measure_errors`] provides the experimental half: observed
//! low-precision errors over a test set (Table 2's `max error observed`
//! column, Fig. 5's curves).
//!
//! # Examples
//!
//! ```
//! use problp_ac::compile;
//! use problp_bayes::networks;
//! use problp_bounds::{QueryType, Tolerance};
//! use problp_core::Problp;
//!
//! let ac = compile(&networks::alarm(7))?;
//! let report = Problp::new(&ac)
//!     .query(QueryType::Conditional)
//!     .tolerance(Tolerance::Relative(0.01))
//!     .run()?;
//! // Conditional + relative error: float point is the only option
//! // (paper §3.2.2), and the generated RTL is part of the report.
//! assert!(report.selected.repr.is_float());
//! assert!(report.hardware.verilog.contains("problp_fp_mul"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod measure;
mod pipeline;

pub use error::CoreError;
pub use measure::{measure_errors, measure_errors_with, ErrorStats};
pub use pipeline::{gate_level_energy_nj, Candidate, HardwareReport, Problp, Report};
