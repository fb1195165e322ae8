//! Word-lane contexts: narrow formats computed on one native machine word.
//!
//! The soft types ([`Fixed`], [`LpFloat`]) carry their format in every
//! value and compute through exact wide intermediates. That is what makes
//! them easy to verify, and what makes them slow: a `Fixed` lane is 32
//! bytes, an `LpFloat` lane 48, and every float op is `U256` arithmetic.
//! The two contexts here keep the format in the context only and store a
//! lane in 8 bytes:
//!
//! * [`FixedWordArith`] — the lane is the raw `u64` word, for formats
//!   with `I + F <= 63` ([`FixedWordArith::MAX_BITS`]). Raw values stay
//!   below `2^63`, so a sum fits `u64` and a product fits `u128` (a
//!   `u64` for formats of at most 32 bits).
//! * [`FloatWordArith`] — the lane is an `f64` holding the
//!   already-rounded value, for formats with `M <= 24` and `E <= 10`.
//!   Each op is one native `f64` op followed by one round-to-nearest-even
//!   to `M` bits. A product of two `M + 1`-bit significands has at most
//!   50 bits, so `f64` multiplication is exact. A sum is rounded twice (to
//!   53 bits, then to `M + 1`), which is harmless when `53 >= 2(M + 1) + 2`
//!   (Figueroa, "When is double rounding innocuous?", SIGNUM Newsletter
//!   1995). `E <= 10` keeps every product of two normals an `f64` normal.
//!
//! Each context's results are *defined* as its soft type's: values and
//! all four [`Flags`] must match bit for bit. The constructors return
//! `None` outside the covered domain; callers then keep the soft context.
//! The property tests in `tests/word_lanes.rs` pin the equivalence.

use crate::arith::Arith;
use crate::fixed::{Fixed, FixedFormat, FixedRounding};
use crate::flags::Flags;
use crate::float::{FloatFormat, LpFloat};

/// The per-lane ops of a word-lane context, with the sticky flags passed
/// explicitly: a row kernel keeps them in a local and merges them once
/// per row ([`Arith::merge_flags`]) instead of writing the context's
/// flags on every op. Each op returns exactly what the [`Arith`] op of
/// the same name does.
pub trait WordLanes: Arith<Value = Self::Word> {
    /// The lane word.
    type Word: Copy + Default;

    /// [`Arith::add`] on lane words.
    fn add_lane(&self, x: Self::Word, y: Self::Word, flags: &mut Flags) -> Self::Word;

    /// [`Arith::mul`] on lane words.
    fn mul_lane(&self, x: Self::Word, y: Self::Word, flags: &mut Flags) -> Self::Word;

    /// [`Arith::max`] on lane words (it raises no flags).
    fn max_lane(x: Self::Word, y: Self::Word) -> Self::Word;

    /// [`Arith::min`] on lane words (it raises no flags).
    fn min_lane(x: Self::Word, y: Self::Word) -> Self::Word;

    /// Whether the lane's value is zero ([`Arith::to_f64`] reads `0.0`).
    fn is_zero(x: Self::Word) -> bool;
}

/// Fixed-point arithmetic on raw `u64` words.
///
/// The lane value is [`Fixed::raw`] of the soft value; every op returns
/// exactly the raw word and flags [`Fixed`] would.
///
/// # Examples
///
/// ```
/// use problp_num::{Arith, FixedFormat, FixedWordArith};
///
/// let mut ctx = FixedWordArith::new(FixedFormat::new(1, 8)?).unwrap();
/// let half = ctx.from_f64(0.5);
/// assert_eq!(half, 128); // the raw encoding
/// let p = ctx.mul(&half, &half);
/// assert_eq!(ctx.to_f64(&p), 0.25);
/// // Too wide for one word: use the soft `FixedArith` instead.
/// assert!(FixedWordArith::new(FixedFormat::new(2, 62)?).is_none());
/// # Ok::<(), problp_num::FormatError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FixedWordArith {
    format: FixedFormat,
    flags: Flags,
    max_raw: u64,
    frac: u32,
    /// The low `F` product bits that rounding drops.
    low_mask: u128,
    /// Added before the shift: half an ulp (half-up) or 0 (truncate).
    bias: u128,
    /// `I + F <= 32`: products fit a `u64`.
    narrow: bool,
    ulp: f64,
}

impl FixedWordArith {
    /// The widest format (`I + F`) a word lane covers.
    pub const MAX_BITS: u32 = 63;

    /// A word-lane context with half-up multiplier rounding, or `None`
    /// when `I + F` exceeds [`FixedWordArith::MAX_BITS`].
    pub fn new(format: FixedFormat) -> Option<Self> {
        Self::with_rounding(format, FixedRounding::HalfUp)
    }

    /// A word-lane context with an explicit multiplier rounding mode, or
    /// `None` when `I + F` exceeds [`FixedWordArith::MAX_BITS`].
    pub fn with_rounding(format: FixedFormat, rounding: FixedRounding) -> Option<Self> {
        if format.total_bits() > Self::MAX_BITS {
            return None;
        }
        let frac = format.frac_bits();
        let low_mask = (1u128 << frac) - 1;
        let bias = match rounding {
            FixedRounding::HalfUp if frac > 0 => 1u128 << (frac - 1),
            _ => 0,
        };
        Some(FixedWordArith {
            format,
            flags: Flags::new(),
            max_raw: format.max_raw() as u64,
            frac,
            low_mask,
            bias,
            narrow: format.total_bits() <= 32,
            ulp: format.ulp(),
        })
    }
}

impl WordLanes for FixedWordArith {
    type Word = u64;

    /// [`Fixed::add`] on raw words: the exact sum, saturating to
    /// `max_raw` with `overflow`.
    #[inline(always)]
    fn add_lane(&self, x: u64, y: u64, flags: &mut Flags) -> u64 {
        // Both words are below 2^63, so the sum cannot wrap.
        let sum = x + y;
        flags.overflow |= sum > self.max_raw;
        sum.min(self.max_raw)
    }

    /// [`Fixed::mul_with`] on raw words: the exact product,
    /// `inexact` on any dropped low bit, the half-up or truncating shift,
    /// saturating to `max_raw` with `overflow`.
    #[inline(always)]
    fn mul_lane(&self, x: u64, y: u64, flags: &mut Flags) -> u64 {
        // Formats of <= 32 bits: x, y < 2^32, so the product and the bias
        // (< 2^31) fit a u64 — a one-word multiply and shift.
        if self.narrow {
            let p = x * y;
            flags.inexact |= p & self.low_mask as u64 != 0;
            let rounded = (p + self.bias as u64) >> self.frac;
            flags.overflow |= rounded > self.max_raw;
            return rounded.min(self.max_raw);
        }
        // Otherwise x, y < 2^63: the product is below 2^126 and adding
        // the bias keeps it below 2^127.
        let p = x as u128 * y as u128;
        flags.inexact |= p & self.low_mask != 0;
        let rounded = (p + self.bias) >> self.frac;
        flags.overflow |= rounded > self.max_raw as u128;
        rounded.min(self.max_raw as u128) as u64
    }

    #[inline(always)]
    fn max_lane(x: u64, y: u64) -> u64 {
        x.max(y)
    }

    #[inline(always)]
    fn min_lane(x: u64, y: u64) -> u64 {
        x.min(y)
    }

    #[inline(always)]
    fn is_zero(x: u64) -> bool {
        x == 0
    }
}

impl Arith for FixedWordArith {
    type Value = u64;

    fn from_f64(&mut self, x: f64) -> u64 {
        // Conversion runs once per constant, not per op: reuse the soft
        // rounding so it cannot drift.
        Fixed::from_f64(x, self.format, &mut self.flags).raw() as u64
    }

    fn to_f64(&self, v: &u64) -> f64 {
        // The same integer-to-f64 rounding and power-of-two scale as
        // `Fixed::to_f64`.
        *v as f64 * self.ulp
    }

    fn zero(&mut self) -> u64 {
        0
    }

    fn one(&mut self) -> u64 {
        Fixed::one(self.format, &mut self.flags).raw() as u64
    }

    fn add(&mut self, a: &u64, b: &u64) -> u64 {
        let mut flags = self.flags;
        let v = self.add_lane(*a, *b, &mut flags);
        self.flags = flags;
        v
    }

    fn mul(&mut self, a: &u64, b: &u64) -> u64 {
        let mut flags = self.flags;
        let v = self.mul_lane(*a, *b, &mut flags);
        self.flags = flags;
        v
    }

    fn max(&mut self, a: &u64, b: &u64) -> u64 {
        *a.max(b)
    }

    fn min(&mut self, a: &u64, b: &u64) -> u64 {
        *a.min(b)
    }

    fn flags(&self) -> Flags {
        self.flags
    }

    fn clear_flags(&mut self) {
        self.flags.clear();
    }

    fn merge_flags(&mut self, flags: Flags) {
        self.flags.merge(flags);
    }
}

const SIGN: u64 = 1 << 63;

/// Narrow floating-point arithmetic on `f64` lanes.
///
/// A lane holds the soft value's [`LpFloat::to_f64`], which is exact in
/// the covered domain; every op returns exactly that value of the
/// [`LpFloat`] result, with the same flags.
///
/// # Examples
///
/// ```
/// use problp_num::{Arith, FloatFormat, FloatWordArith};
///
/// let mut ctx = FloatWordArith::new(FloatFormat::new(8, 2)?).unwrap();
/// let a = ctx.from_f64(1.25);
/// let b = ctx.from_f64(0.125);
/// // 1.375 is a tie between 1.25 and 1.5 at 2 mantissa bits: to even.
/// assert_eq!(ctx.add(&a, &b), 1.5);
/// assert!(ctx.flags().inexact);
/// // Wider than double rounding through f64 allows: stay soft.
/// assert!(FloatWordArith::new(FloatFormat::new(8, 25)?).is_none());
/// # Ok::<(), problp_num::FormatError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FloatWordArith {
    format: FloatFormat,
    flags: Flags,
    /// `52 - M`: the `f64` mantissa bits below the format's last place.
    shift: u32,
    /// The bits rounding drops.
    mask: u64,
    /// Half the dropped range minus one; adding it plus the kept LSB and
    /// masking rounds to nearest, ties to even.
    half: u64,
    /// Bit pattern of the smallest positive normal value.
    min_bits: u64,
    /// Bit pattern of the largest finite value.
    max_bits: u64,
}

impl FloatWordArith {
    /// The widest mantissa a word lane covers (double rounding through
    /// `f64` is innocuous up to here).
    pub const MAX_MANT_BITS: u32 = 24;
    /// The widest exponent a word lane covers (every product of two
    /// normals stays an `f64` normal).
    pub const MAX_EXP_BITS: u32 = 10;

    /// A word-lane context, or `None` when `M` exceeds
    /// [`FloatWordArith::MAX_MANT_BITS`] or `E` exceeds
    /// [`FloatWordArith::MAX_EXP_BITS`].
    pub fn new(format: FloatFormat) -> Option<Self> {
        if format.mant_bits() > Self::MAX_MANT_BITS || format.exp_bits() > Self::MAX_EXP_BITS {
            return None;
        }
        let shift = 52 - format.mant_bits();
        Some(FloatWordArith {
            format,
            flags: Flags::new(),
            shift,
            mask: (1u64 << shift) - 1,
            half: (1u64 << (shift - 1)) - 1,
            min_bits: format.min_positive().to_bits(),
            max_bits: format.max_finite().to_bits(),
        })
    }

    /// Rounds the native result `x` of an op on `a` and `b` to the
    /// format, as `LpFloat`'s `finalize` does: round to nearest even at
    /// `M` bits (`inexact` if any bit dropped or `sticky` says `x` itself
    /// was rounded), then flush below `min_positive` or saturate above
    /// `max_finite`.
    #[inline(always)]
    fn round(&self, x: f64, sticky: bool, a: f64, b: f64, flags: &mut Flags) -> f64 {
        let bits = x.to_bits();
        // Wrapping: a NaN's payload may sit at the top of the word; it takes
        // the out-of-range path whatever the sum.
        let r = bits.wrapping_add(self.half + ((bits >> self.shift) & 1)) & !self.mask;
        // One unsigned compare for `min_bits <= |r| <= max_bits`.
        if (r & !SIGN).wrapping_sub(self.min_bits) <= self.max_bits - self.min_bits {
            flags.inexact |= sticky || bits & self.mask != 0;
            return f64::from_bits(r);
        }
        self.out_of_range(x, r, a, b, flags)
    }

    /// The rare results of [`FloatWordArith::round`]: zero, infinity,
    /// NaN, underflow and overflow.
    #[cold]
    #[inline(never)]
    fn out_of_range(&self, x: f64, r: u64, a: f64, b: f64, flags: &mut Flags) -> f64 {
        if x.is_nan() {
            // `inf - inf` or `0 * inf`; a NaN operand propagates quietly.
            flags.invalid |= !a.is_nan() && !b.is_nan();
            return f64::NAN;
        }
        if x == 0.0 || x.is_infinite() {
            // Exact zeros, and infinities from an infinite operand: finite
            // operands in the domain never overflow an `f64` op.
            return x;
        }
        flags.inexact = true;
        if r & !SIGN < self.min_bits {
            flags.underflow = true;
            0.0f64.copysign(x)
        } else {
            flags.overflow = true;
            f64::INFINITY.copysign(x)
        }
    }
}

impl WordLanes for FloatWordArith {
    type Word = f64;

    /// [`LpFloat::add`] on `f64` lanes. TwoSum's error term supplies
    /// `inexact` when the `f64` sum itself dropped bits of the smaller
    /// operand without leaving any below the format's last place.
    #[inline(always)]
    fn add_lane(&self, x: f64, y: f64, flags: &mut Flags) -> f64 {
        let s = x + y;
        let yv = s - x;
        let err = (x - (s - yv)) + (y - yv);
        self.round(s, err != 0.0, x, y, flags)
    }

    /// [`LpFloat::mul`] on `f64` lanes: the `f64` product of two
    /// `M + 1`-bit significands is exact, so one rounding follows.
    #[inline(always)]
    fn mul_lane(&self, x: f64, y: f64, flags: &mut Flags) -> f64 {
        self.round(x * y, false, x, y, flags)
    }

    /// [`LpFloat::max`]: NaN propagates, ties keep `x`.
    #[inline(always)]
    fn max_lane(x: f64, y: f64) -> f64 {
        if x.is_nan() || y.is_nan() {
            f64::NAN
        } else if x < y {
            y
        } else {
            x
        }
    }

    /// [`LpFloat::min`]: NaN propagates, ties keep `x`.
    #[inline(always)]
    fn min_lane(x: f64, y: f64) -> f64 {
        if x.is_nan() || y.is_nan() {
            f64::NAN
        } else if x > y {
            y
        } else {
            x
        }
    }

    #[inline(always)]
    fn is_zero(x: f64) -> bool {
        x == 0.0
    }
}

impl Arith for FloatWordArith {
    type Value = f64;

    fn from_f64(&mut self, x: f64) -> f64 {
        // Conversion runs once per constant, not per op: reuse the soft
        // rounding so it cannot drift. The result is exact in `f64`.
        LpFloat::from_f64(x, self.format, &mut self.flags).to_f64()
    }

    fn to_f64(&self, v: &f64) -> f64 {
        *v
    }

    fn zero(&mut self) -> f64 {
        0.0
    }

    fn one(&mut self) -> f64 {
        1.0
    }

    fn add(&mut self, a: &f64, b: &f64) -> f64 {
        let mut flags = self.flags;
        let v = self.add_lane(*a, *b, &mut flags);
        self.flags = flags;
        v
    }

    fn mul(&mut self, a: &f64, b: &f64) -> f64 {
        let mut flags = self.flags;
        let v = self.mul_lane(*a, *b, &mut flags);
        self.flags = flags;
        v
    }

    fn max(&mut self, a: &f64, b: &f64) -> f64 {
        <Self as WordLanes>::max_lane(*a, *b)
    }

    fn min(&mut self, a: &f64, b: &f64) -> f64 {
        <Self as WordLanes>::min_lane(*a, *b)
    }

    fn flags(&self) -> Flags {
        self.flags
    }

    fn clear_flags(&mut self) {
        self.flags.clear();
    }

    fn merge_flags(&mut self, flags: Flags) {
        self.flags.merge(flags);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domains_follow_the_word_width() {
        let fx = |i, f| FixedWordArith::new(FixedFormat::new(i, f).unwrap());
        assert!(fx(1, 62).is_some());
        assert!(fx(63, 0).is_some());
        assert!(fx(2, 62).is_none());
        let fl = |e, m| FloatWordArith::new(FloatFormat::new(e, m).unwrap());
        assert!(fl(10, 24).is_some());
        assert!(fl(2, 1).is_some());
        assert!(fl(10, 25).is_none());
        assert!(fl(11, 13).is_none());
    }

    #[test]
    fn float_edges_flush_and_saturate() {
        let format = FloatFormat::new(4, 3).unwrap();
        let mut ctx = FloatWordArith::new(format).unwrap();
        let tiny = ctx.from_f64(format.min_positive());
        let half = ctx.from_f64(0.5);
        assert_eq!(ctx.mul(&tiny, &half), 0.0);
        assert!(ctx.flags().underflow && ctx.flags().inexact);
        ctx.clear_flags();
        let big = ctx.from_f64(format.max_finite());
        assert_eq!(ctx.add(&big, &big), f64::INFINITY);
        assert!(ctx.flags().overflow && ctx.flags().inexact);
        ctx.clear_flags();
        let inf = ctx.add(&big, &big);
        let zero = ctx.zero();
        ctx.clear_flags();
        assert!(ctx.mul(&inf, &zero).is_nan());
        assert!(ctx.flags().invalid);
    }
}
