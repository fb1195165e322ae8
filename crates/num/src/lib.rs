//! # problp-num — low-precision arithmetic for ProbLP
//!
//! This crate is the numeric substrate of the ProbLP framework
//! (Shah et al., *ProbLP: A framework for low-precision probabilistic
//! inference*, DAC 2019). It provides software implementations of the two
//! reduced-precision representations the framework chooses between:
//!
//! * [`Fixed`] / [`FixedFormat`] — unsigned fixed point with `I` integer and
//!   `F` fraction bits; exact addition, half-up-rounded multiplication
//!   (the `(p + half) >> F` hardware idiom), satisfying the paper's
//!   `|Δ| <= 2^-(F+1)` per-operation error model.
//! * [`LpFloat`] / [`FloatFormat`] — normalized floating point with `E`
//!   exponent and `M` mantissa bits; round-to-nearest-even everywhere,
//!   satisfying the `(1 ± ε)` per-operation model with `ε = 2^-(M+1)`.
//!   With IEEE widths it matches hardware `f32`/`f64` bit-for-bit on
//!   normal values.
//!
//! Both carry sticky status [`Flags`]; the framework sizes integer and
//! exponent bits so that no flag other than `inexact` is ever raised, and
//! the test-suite asserts this.
//!
//! The [`Arith`] trait abstracts over the number systems so that arithmetic
//! circuits evaluate identically under exact `f64` ([`F64Arith`]),
//! fixed point ([`FixedArith`]) or floating point ([`FloatArith`]).
//! [`FixedWordArith`] and [`FloatWordArith`] compute the same results as
//! the soft contexts for narrow formats, on one native word per value.
//!
//! # Examples
//!
//! Quantify the error of evaluating `0.3 * 0.7 + 0.2` in an 8-fraction-bit
//! fixed-point datapath:
//!
//! ```
//! use problp_num::{Arith, F64Arith, FixedArith, FixedFormat};
//!
//! let mut exact = F64Arith::new();
//! let mut lp = FixedArith::new(FixedFormat::new(1, 8)?);
//!
//! fn eval<A: Arith>(ctx: &mut A) -> f64 {
//!     let a = ctx.from_f64(0.3);
//!     let b = ctx.from_f64(0.7);
//!     let c = ctx.from_f64(0.2);
//!     let p = ctx.mul(&a, &b);
//!     let s = ctx.add(&p, &c);
//!     ctx.to_f64(&s)
//! }
//!
//! let err = (eval(&mut exact) - eval(&mut lp)).abs();
//! assert!(err < 0.01);
//! assert!(!lp.flags().range_violation());
//! # Ok::<(), problp_num::FormatError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod error;
mod fixed;
mod flags;
mod float;
mod repr;
mod spec;
mod wide;
mod word;

pub use arith::{Arith, F64Arith, FixedArith, FloatArith};
pub use error::FormatError;
pub use fixed::{Fixed, FixedFormat, FixedRounding, MAX_FIXED_WIDTH};
pub use flags::Flags;
pub use float::{FloatFormat, LpFloat, MAX_EXP_BITS, MAX_MANT_BITS, MIN_EXP_BITS, MIN_MANT_BITS};
pub use repr::Representation;
pub use spec::ArithSpec;
pub use wide::U256;
pub use word::{FixedWordArith, FloatWordArith, WordLanes};
