//! # problp-conformance — differential cross-check of every execution
//! backend
//!
//! The paper's central claim is that the generated low-precision hardware
//! computes the *same* inference answers as the software evaluation at
//! the chosen representation. This crate turns that claim into standing,
//! reusable infrastructure: a seeded differential harness that evaluates
//! the same evidence lanes on every backend the workspace has and
//! asserts the results **bit-identical** per arithmetic and semiring.
//!
//! The seven result streams per case:
//!
//! | backend | crate | what runs |
//! |---------|-------|-----------|
//! | `scalar` (reference) | `problp-ac` | [`problp_ac::AcGraph::evaluate_nodes`], one tree-walk per lane |
//! | `tape` | `problp-engine` | compact tape ([`problp_engine::Tape::compile`]), SoA batch sweep on the scalar kernel |
//! | `tape-full` | `problp-engine` | full-values tape ([`problp_engine::Tape::compile_full`]) on the scalar kernel, plus per-node spot checks |
//! | `fused-compact` | `problp-engine` | the compact tape's fused stream ([`problp_engine::Tape::fuse`]), the `Engine` default kernel, in the context [`problp_engine::visit_arith`] picks (word lanes where the format fits) |
//! | `fused-full` | `problp-engine` | the full-values tape's fused stream, in the same context |
//! | `schedule` | `problp-hw` | sequential ALU ([`problp_hw::Schedule::execute_batch`]) |
//! | `pipeline` | `problp-hw` | cycle-accurate pipelined datapath, streaming one lane per cycle ([`problp_hw::PipelineSim::run_batch`]) |
//!
//! The hardware backends model a sum/product datapath, so they join the
//! comparison for [`problp_ac::Semiring::SumProduct`]; the software
//! backends are cross-checked on all three semirings. Alongside the
//! equality verdict the harness reports per-backend work (pipeline
//! cycles, ALU cycles, tape instructions, scalar operator applications)
//! and measured lane throughput.
//!
//! Fault injection ([`ConformanceConfig::inject_fault`]) deliberately
//! corrupts one backend's stream so tests — and sceptical operators —
//! can confirm the harness actually detects divergence instead of
//! vacuously passing.
//!
//! # Examples
//!
//! ```
//! use problp_bayes::networks;
//! use problp_conformance::{run_conformance, ConformanceConfig};
//!
//! let models = vec![("sprinkler".to_string(), networks::sprinkler())];
//! let config = ConformanceConfig {
//!     batch: 16,
//!     ..ConformanceConfig::default()
//! };
//! let report = run_conformance(&models, &config)?;
//! assert!(report.all_match());
//! # Ok::<(), problp_conformance::ConformanceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod harness;
mod report;
mod spec;

pub use harness::{random_batch, random_models, run_conformance};
pub use report::{BackendRun, CaseReport, ConformanceReport};
pub use spec::{semiring_name, ArithSpec, BackendKind, ConformanceConfig, ConformanceError};
