//! The word-lane contexts are defined as their soft types: every op on a
//! `u64`/`f64` lane must return exactly the soft result's raw word or
//! `to_f64` bits, and raise exactly the soft op's four flags.

use problp_num::{
    Arith, FixedArith, FixedFormat, FixedRounding, FixedWordArith, FloatArith, FloatFormat,
    FloatWordArith, LpFloat,
};
use proptest::prelude::*;

/// One binary op of the engine's instruction set.
#[derive(Clone, Copy, Debug)]
enum Op {
    Add,
    Mul,
    Max,
    MinNz,
}

const OPS: [Op; 4] = [Op::Add, Op::Mul, Op::Max, Op::MinNz];

/// `op` through any context, from cleared flags; `MinNz` is the engine's
/// skip-zero min (zero only if both operands are zero).
fn apply<A: Arith>(ctx: &mut A, op: Op, a: &A::Value, b: &A::Value) -> A::Value {
    ctx.clear_flags();
    match op {
        Op::Add => ctx.add(a, b),
        Op::Mul => ctx.mul(a, b),
        Op::Max => ctx.max(a, b),
        Op::MinNz if ctx.to_f64(a) == 0.0 => b.clone(),
        Op::MinNz if ctx.to_f64(b) == 0.0 => a.clone(),
        Op::MinNz => ctx.min(a, b),
    }
}

/// Checks one fixed op on raw words against `Fixed`, value and flags.
fn check_fixed(format: FixedFormat, rounding: FixedRounding, op: Op, x: u64, y: u64) {
    let mut soft = FixedArith::with_rounding(format, rounding);
    let mut word = FixedWordArith::with_rounding(format, rounding).unwrap();
    let fx = problp_num::Fixed::from_raw(x as u128, format).unwrap();
    let fy = problp_num::Fixed::from_raw(y as u128, format).unwrap();
    let want = apply(&mut soft, op, &fx, &fy);
    let got = apply(&mut word, op, &x, &y);
    let case = format!("{format} {rounding:?} {op:?} {x} {y}");
    assert_eq!(want.raw(), got as u128, "value of {case}");
    assert_eq!(soft.flags(), word.flags(), "flags of {case}");
    assert_eq!(
        soft.to_f64(&want).to_bits(),
        word.to_f64(&got).to_bits(),
        "to_f64 of {case}"
    );
}

/// Checks one float op on `f64` lanes against `LpFloat`, value and flags.
/// `x` and `y` must be values of `format` (or ±0, ±inf, NaN).
fn check_float(format: FloatFormat, op: Op, x: f64, y: f64) {
    let mut soft = FloatArith::new(format);
    let mut word = FloatWordArith::new(format).unwrap();
    let (sx, sy) = (soft.from_f64(x), soft.from_f64(y));
    assert!(
        !soft.flags().inexact,
        "{x} and {y} must be values of {format}"
    );
    let want = apply(&mut soft, op, &sx, &sy);
    let got = apply(&mut word, op, &x, &y);
    let case = format!("{format} {op:?} {x:e} {y:e}");
    assert_eq!(
        soft.to_f64(&want).to_bits(),
        got.to_bits(),
        "value of {case}"
    );
    assert_eq!(soft.flags(), word.flags(), "flags of {case}");
}

/// A fixed format with `I + F = total`.
fn fixed_format(total: u32, int_bits: u32) -> FixedFormat {
    let i = int_bits.min(total);
    FixedFormat::new(i, total - i).unwrap()
}

/// A raw word of `format`: uniform, or one of the edges 0, 1 and
/// `max_raw` (and their neighbours).
fn fixed_raw(format: FixedFormat, pick: u8, bits: u64) -> u64 {
    let max = format.max_raw() as u64;
    match pick % 8 {
        0 => 0,
        1 => max,
        2 => max - (bits % 2).min(max),
        3 => 1.min(max),
        // Values near the square root of `max_raw`: products near the
        // saturation point.
        4 => ((max as f64).sqrt() as u64 + bits % 4).min(max),
        _ => bits & max,
    }
}

/// The value `(-1)^sign * sig * 2^(exp - M)` of `format`, with `sig`
/// forced to `M + 1` bits and `exp` clamped into the normal range.
fn float_value(format: FloatFormat, sign: bool, exp: i32, sig: u64) -> f64 {
    let m = format.mant_bits();
    let sig = (sig & ((1u64 << m) - 1)) | (1u64 << m);
    let exp = exp.clamp(format.min_exp(), format.max_exp());
    LpFloat::from_parts(sign, exp, sig as u128, format).to_f64()
}

/// A value of `format`: a random normal, or an edge (zero, the extreme
/// normals, infinity, NaN).
fn float_operand(format: FloatFormat, pick: u8, exp: i32, sig: u64) -> f64 {
    let span = format.max_exp() - format.min_exp() + 1;
    let exp = format.min_exp() + exp.rem_euclid(span);
    match pick % 16 {
        0 => 0.0,
        1 => format.min_positive(),
        2 => format.max_finite(),
        3 => f64::INFINITY,
        4 => f64::NAN,
        5 => -float_value(format, false, exp, sig),
        // Near the bottom of the range, where products underflow.
        6 => float_value(format, false, format.min_exp() + exp.rem_euclid(4), sig),
        // Near the top of the range, where sums and products overflow.
        7 => float_value(format, false, format.max_exp() - exp.rem_euclid(4), sig),
        _ => float_value(format, false, exp, sig),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn fixed_word_ops_match_fixed(
        (total, int_bits) in (1u32..=63, 0u32..=16),
        (pick_x, pick_y, truncate) in (any::<u8>(), any::<u8>(), any::<bool>()),
        (bx, by) in (any::<u64>(), any::<u64>()),
    ) {
        let format = fixed_format(total, int_bits);
        let rounding = if truncate { FixedRounding::Truncate } else { FixedRounding::HalfUp };
        let x = fixed_raw(format, pick_x, bx);
        let y = fixed_raw(format, pick_y, by);
        for op in OPS {
            check_fixed(format, rounding, op, x, y);
        }
    }

    #[test]
    fn float_word_ops_match_lpfloat(
        (e, m) in (2u32..=10, 1u32..=24),
        (pick_x, pick_y) in (any::<u8>(), any::<u8>()),
        (ex, ey) in (any::<i32>(), any::<i32>()),
        (sx, sy) in (any::<u64>(), any::<u64>()),
    ) {
        let format = FloatFormat::new(e, m).unwrap();
        let x = float_operand(format, pick_x, ex, sx);
        let y = float_operand(format, pick_y, ey, sy);
        for op in OPS {
            check_float(format, op, x, y);
            check_float(format, op, y, x);
        }
    }

    /// Additions whose exponent gap straddles the soft adder's `M + 4`
    /// shortcut and the point past 53 where the smaller operand drops out
    /// of the `f64` sum entirely.
    #[test]
    fn float_word_add_matches_across_exponent_gaps(
        (e, m) in (7u32..=10, 1u32..=24),
        (near, gap_off) in (any::<bool>(), 0i32..8),
        (ex, sx, sy) in (any::<i32>(), any::<u64>(), any::<u64>()),
        negate in any::<bool>(),
    ) {
        let format = FloatFormat::new(e, m).unwrap();
        let gap = if near { m as i32 + 1 + gap_off } else { 50 + gap_off };
        let top = format.min_exp() + gap + ex.rem_euclid(format.max_exp() - format.min_exp() - gap + 1);
        let x = float_value(format, false, top, sx);
        let y = float_value(format, negate, top - gap, sy);
        check_float(format, Op::Add, x, y);
        check_float(format, Op::Add, y, x);
    }

    /// Exact round-to-nearest-even ties: `x` plus half of its last place
    /// (and products landing on a tie).
    #[test]
    fn float_word_ties_round_to_even(
        (e, m) in (6u32..=10, 1u32..=24),
        (ex, sx) in (any::<i32>(), any::<u64>()),
    ) {
        let format = FloatFormat::new(e, m).unwrap();
        let exp = ex.rem_euclid(8) - 4;
        let x = float_value(format, false, exp, sx);
        let half_ulp = (exp as f64 - m as f64 - 1.0).exp2();
        check_float(format, Op::Add, x, half_ulp);
        // `x * 1.5` needs one bit more than `x`: an exact tie whenever
        // x's last bit is set. `(1 + 2^-M)^2` leaves a tail below a tie.
        let one_up = 1.0 + (-(m as f64)).exp2();
        check_float(format, Op::Mul, one_up, one_up);
        check_float(format, Op::Mul, x, 1.5);
    }
}

#[test]
fn value_edges_match_in_every_op() {
    for (e, m) in [
        (2, 1),
        (4, 3),
        (5, 10),
        (7, 12),
        (8, 13),
        (9, 14),
        (10, 14),
        (10, 24),
    ] {
        let format = FloatFormat::new(e, m).unwrap();
        let edges = [
            0.0,
            -0.0,
            format.min_positive(),
            2.0 * format.min_positive(),
            format.max_finite(),
            0.5 * format.max_finite(),
            1.0,
            1.0 + (-(m as f64)).exp2(),
            f64::INFINITY,
            f64::NAN,
        ];
        for &x in &edges {
            for &y in &edges {
                for op in OPS {
                    check_float(format, op, x, y);
                }
            }
        }
    }
    // Both sides of the 32-bit line where products leave a `u64`.
    for (i, f) in [
        (0, 1),
        (1, 0),
        (1, 16),
        (2, 14),
        (16, 16),
        (1, 32),
        (1, 62),
        (63, 0),
        (31, 32),
    ] {
        let format = FixedFormat::new(i, f).unwrap();
        let max = format.max_raw() as u64;
        let half = if f == 0 { 0 } else { 1u64 << (f - 1) };
        let edges = [0, 1, half, half + 1, max / 2, max - 1, max];
        for rounding in [FixedRounding::HalfUp, FixedRounding::Truncate] {
            for &x in &edges {
                for &y in &edges {
                    for op in OPS {
                        check_fixed(format, rounding, op, x.min(max), y.min(max));
                    }
                }
            }
        }
    }
}

#[test]
fn the_word_domain_ends_at_the_documented_widths() {
    let fixed = |i, f| FixedFormat::new(i, f).unwrap();
    let float = |e, m| FloatFormat::new(e, m).unwrap();
    assert!(FixedWordArith::new(fixed(1, 62)).is_some());
    assert!(FixedWordArith::new(fixed(2, 62)).is_none());
    assert!(FloatWordArith::new(float(10, 24)).is_some());
    assert!(FloatWordArith::new(float(10, 25)).is_none());
    assert!(FloatWordArith::new(float(11, 13)).is_none());
}

#[test]
fn conversions_match_the_soft_contexts() {
    let format = FloatFormat::new(5, 10).unwrap();
    let mut soft = FloatArith::new(format);
    let mut word = FloatWordArith::new(format).unwrap();
    for x in [
        0.1,
        1e-9,
        7e4,
        1e300,
        f64::MIN_POSITIVE / 4.0,
        -0.3,
        65504.0,
        65520.0,
    ] {
        soft.clear_flags();
        word.clear_flags();
        let want = soft.from_f64(x);
        let got = word.from_f64(x);
        assert_eq!(soft.to_f64(&want).to_bits(), got.to_bits(), "{x:e}");
        assert_eq!(soft.flags(), word.flags(), "{x:e}");
    }
    let format = FixedFormat::new(1, 62).unwrap();
    let mut soft = FixedArith::new(format);
    let mut word = FixedWordArith::new(format).unwrap();
    for x in [0.1, 1.0, 1.9999, 2.0, -1.0, f64::NAN, 1e-30] {
        soft.clear_flags();
        word.clear_flags();
        let want = soft.from_f64(x);
        let got = word.from_f64(x);
        assert_eq!(want.raw(), got as u128, "{x:e}");
        assert_eq!(soft.to_f64(&want).to_bits(), word.to_f64(&got).to_bits());
        assert_eq!(soft.flags(), word.flags(), "{x:e}");
    }
}
