//! Lane-chunked evaluation kernels behind the [`KernelSet`] trait.
//!
//! # Dispatch model
//!
//! [`crate::Engine::evaluate_batch`] runs one of two evaluator cores,
//! selected at runtime by [`KernelKind`] (see
//! [`crate::Engine::with_kernel`]):
//!
//! * **`Scalar`** — the reference: per-instruction loops through the
//!   [`problp_num::Arith`] context over the unfused tape. The fused
//!   kernel is defined as "bit-identical to this".
//! * **`Fused`** — the default: the [`crate::FusedTape`] superinstruction
//!   stream ([`crate::Tape::fuse`], built on the engine's first fused
//!   sweep) through this trait's row ops. Their vectorized
//!   implementations process fixed-width chunks of [`LANE_WIDTH`] lanes
//!   that the compiler can keep in vector registers (portable
//!   `core::simd`-style: plain local arrays, no intrinsics, a scalar
//!   tail for the remainder), and [`KernelSet::mul_acc_rows`] /
//!   [`KernelSet::reduce_rows`] keep chain partials in local
//!   accumulators instead of round-tripping them through the
//!   destination row.
//!
//! # Which arithmetics have fast paths
//!
//! | Arith | lane | kernels | why it stays bit-identical |
//! |-------|------|---------|----------------------------|
//! | [`F64Arith`] | `f64` | vectorized, width 8 | same scalar op per lane; the multiply and accumulate of `MulAcc` stay two roundings (never FMA-contracted) |
//! | [`FixedWordArith`] (`fixed:I.F`, `I+F <= 63`) | raw `u64` | chunks of per-lane word ops, flags in a local | `u64` sum, `u64` product (`u128` above 32-bit formats), with the exact half-up/truncate rounding, saturation and flag rules of [`problp_num::Fixed`] |
//! | [`FloatWordArith`] (`float:E.M`, `M <= 24`, `E <= 10`) | rounded `f64` | chunks of per-lane word ops, flags in a local | one `f64` op, then one round-to-nearest-even to `M` bits, flush below `min_positive` and saturate above `max_finite`, as [`problp_num::LpFloat`] does; TwoSum supplies `inexact` when the `f64` sum drops bits |
//! | [`FixedArith`], [`FloatArith`] | soft value | scalar reference loops | they *are* the reference; they serve formats too wide for a word |
//!
//! [`visit_arith`] is the one place that picks a context for an
//! [`ArithSpec`]: the word context when the format fits, the soft one
//! otherwise. The word contexts' ops are pinned to the soft ones, values
//! and flags, by `problp-num`'s `tests/word_lanes.rs`.
//!
//! Every override is gated by `problp-conformance`: the differential
//! matrix runs the `fused` backends in the context [`visit_arith`] picks
//! against the soft scalar walk on every arithmetic × semiring, and fails
//! on the first differing bit or flag.

// Row kernels take flat `(op, regs, d, acc, a, b, n)` argument lists on
// purpose: the hot path wants plain scalars, not a params struct the
// optimizer has to see through.
#![allow(clippy::too_many_arguments)]

use problp_num::{
    Arith, ArithSpec, F64Arith, FixedArith, FixedWordArith, Flags, FloatArith, FloatWordArith,
    WordLanes,
};

use crate::fuse::BinOp;

/// Lanes per vector chunk: wide enough for two 4-lane AVX2 `f64` vectors
/// (or one AVX-512 vector), small enough to live in registers.
pub const LANE_WIDTH: usize = 8;

/// Which evaluator core [`crate::Engine::evaluate_batch`] dispatches
/// through. Selected per engine by [`crate::Engine::with_kernel`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum KernelKind {
    /// Reference scalar loops over the unfused tape.
    Scalar,
    /// Fused superinstruction tape through the vectorized row kernels.
    /// The default: bit-identical to `Scalar` and faster in every row
    /// of `BENCH_kernels.json`.
    #[default]
    Fused,
}

impl KernelKind {
    /// Every kernel kind, the reference first.
    pub const ALL: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Fused];

    /// The CLI name (`--kernel scalar|fused`).
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Fused => "fused",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<KernelKind> {
        KernelKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Row-wise evaluation kernels over the SoA register file.
///
/// A "row" is one register's `n` contiguous lanes; arguments `d`/`a`/`b`
/// are pre-multiplied row base offsets into `regs` (`register index ×
/// chunk`). Rows may alias — accumulator chains write their destination
/// row while reading it — so implementations must read operands before
/// writing `d` within a lane.
///
/// The defaulted methods are the scalar reference semantics; vectorized
/// overrides must stay bit-identical to them (including [`Flags`]
/// effects, reported through [`Arith::merge_flags`]). See the [module
/// docs](crate::kernels) for the per-arithmetic table.
pub trait KernelSet: Arith {
    /// `regs[d..][l] = op(regs[a..][l], regs[b..][l])` for `n` lanes.
    fn bin_rows(
        &mut self,
        op: BinOp,
        regs: &mut [Self::Value],
        d: usize,
        a: usize,
        b: usize,
        n: usize,
    ) {
        scalar_bin_rows(self, op, regs, d, a, b, n);
    }

    /// `regs[d..][l] = op(regs[acc..][l], regs[a..][l] * regs[b..][l])`
    /// for `n` lanes — the [`crate::FusedInstr::MulAcc`] superinstruction.
    /// The multiply and the outer op are two separate roundings.
    fn mul_acc_rows(
        &mut self,
        op: BinOp,
        regs: &mut [Self::Value],
        d: usize,
        acc: usize,
        a: usize,
        b: usize,
        n: usize,
    ) {
        scalar_mul_acc_rows(self, op, regs, d, acc, a, b, n);
    }

    /// `regs[d..][l] = fold(op, regs[first..][l], rest rows)` for `n`
    /// lanes — the [`crate::FusedInstr::Reduce`] superinstruction. `rest`
    /// holds register indices; `chunk` converts them to row offsets. The
    /// fold is strictly left to right.
    fn reduce_rows(
        &mut self,
        op: BinOp,
        regs: &mut [Self::Value],
        chunk: usize,
        d: usize,
        first: usize,
        rest: &[u32],
        n: usize,
    ) {
        scalar_reduce_rows(self, op, regs, chunk, d, first, rest, n);
    }
}

/// One scalar application of `op` through the context — the definition
/// every kernel must reproduce per lane.
#[inline]
pub(crate) fn apply_op<A: Arith + ?Sized>(
    ctx: &mut A,
    op: BinOp,
    a: &A::Value,
    b: &A::Value,
) -> A::Value {
    match op {
        BinOp::Add => ctx.add(a, b),
        BinOp::Mul => ctx.mul(a, b),
        BinOp::Max => ctx.max(a, b),
        BinOp::MinNz => min_nz(ctx, a, b),
    }
}

/// Min over non-zero operands, zero only if both are zero — the binary
/// fold step of the min-value-analysis sum (paper §3.1.4). Matches the
/// scalar evaluator's skip-zero fold bit for bit.
#[inline]
pub(crate) fn min_nz<A: Arith + ?Sized>(ctx: &mut A, a: &A::Value, b: &A::Value) -> A::Value {
    if ctx.to_f64(a) == 0.0 {
        b.clone()
    } else if ctx.to_f64(b) == 0.0 {
        a.clone()
    } else {
        ctx.min(a, b)
    }
}

/// The scalar reference loop behind [`KernelSet::bin_rows`] and the
/// [`KernelKind::Scalar`] core. The op is matched once per row, not per
/// lane, so each lane loop is a straight run of one `Arith` call.
pub(crate) fn scalar_bin_rows<A: Arith + ?Sized>(
    ctx: &mut A,
    op: BinOp,
    regs: &mut [A::Value],
    d: usize,
    a: usize,
    b: usize,
    n: usize,
) {
    macro_rules! lanes {
        ($f:expr) => {
            for l in 0..n {
                let v = $f(ctx, &regs[a + l], &regs[b + l]);
                regs[d + l] = v;
            }
        };
    }
    match op {
        BinOp::Add => lanes!(A::add),
        BinOp::Mul => lanes!(A::mul),
        BinOp::Max => lanes!(A::max),
        BinOp::MinNz => lanes!(min_nz),
    }
}

/// The scalar reference loop behind [`KernelSet::mul_acc_rows`].
pub(crate) fn scalar_mul_acc_rows<A: Arith + ?Sized>(
    ctx: &mut A,
    op: BinOp,
    regs: &mut [A::Value],
    d: usize,
    acc: usize,
    a: usize,
    b: usize,
    n: usize,
) {
    for l in 0..n {
        let p = ctx.mul(&regs[a + l], &regs[b + l]);
        let v = apply_op(ctx, op, &regs[acc + l], &p);
        regs[d + l] = v;
    }
}

/// The scalar reference loop behind [`KernelSet::reduce_rows`].
pub(crate) fn scalar_reduce_rows<A: Arith + ?Sized>(
    ctx: &mut A,
    op: BinOp,
    regs: &mut [A::Value],
    chunk: usize,
    d: usize,
    first: usize,
    rest: &[u32],
    n: usize,
) {
    for l in 0..n {
        let mut acc = regs[first + l].clone();
        for &r in rest {
            let v = apply_op(ctx, op, &acc, &regs[r as usize * chunk + l]);
            acc = v;
        }
        regs[d + l] = acc;
    }
}

// ---------------------------------------------------------------------------
// f64: chunked vector kernels.
// ---------------------------------------------------------------------------

/// One scalar `f64` op — the per-lane function the chunked loops repeat.
#[inline(always)]
fn f64_op(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Mul => x * y,
        BinOp::Max => x.max(y),
        // Matches `min_nz` under `F64Arith` (`to_f64` is the identity).
        BinOp::MinNz => {
            if x == 0.0 {
                y
            } else if y == 0.0 {
                x
            } else {
                x.min(y)
            }
        }
    }
}

/// Dispatches `op` once into a monomorphic expansion of `$body`, with
/// `$f` bound to the op's closure. Hoisting the match out of the lane
/// loops is what lets each loop body vectorize: matched per lane, the
/// compiler keeps a branch in the hot path and gives up on the chunked
/// form. (A macro rather than a higher-order function: a `fn` pointer
/// argument would put an indirect call back into the loop.)
macro_rules! f64_dispatch {
    ($op:expr, $f:ident => $body:expr) => {
        match $op {
            BinOp::Add => {
                let $f = |x: f64, y: f64| x + y;
                $body
            }
            BinOp::Mul => {
                let $f = |x: f64, y: f64| x * y;
                $body
            }
            BinOp::Max => {
                let $f = f64::max;
                $body
            }
            BinOp::MinNz => {
                let $f = |x: f64, y: f64| f64_op(BinOp::MinNz, x, y);
                $body
            }
        }
    };
}

/// `regs[d..][l] = f(regs[a..][l], regs[b..][l])` in `LANE_WIDTH` chunks
/// with a scalar tail. The local arrays decouple the loads from the
/// store, so the chunk body vectorizes without runtime alias checks
/// (rows are either identical or disjoint, and lanes are independent).
#[inline(always)]
fn f64_map2(
    regs: &mut [f64],
    d: usize,
    a: usize,
    b: usize,
    n: usize,
    f: impl Fn(f64, f64) -> f64 + Copy,
) {
    const W: usize = LANE_WIDTH;
    let mut l = 0;
    while l + W <= n {
        let mut xa = [0.0; W];
        let mut xb = [0.0; W];
        xa.copy_from_slice(&regs[a + l..a + l + W]);
        xb.copy_from_slice(&regs[b + l..b + l + W]);
        let mut out = [0.0; W];
        for i in 0..W {
            out[i] = f(xa[i], xb[i]);
        }
        regs[d + l..d + l + W].copy_from_slice(&out);
        l += W;
    }
    while l < n {
        regs[d + l] = f(regs[a + l], regs[b + l]);
        l += 1;
    }
}

impl KernelSet for F64Arith {
    fn bin_rows(&mut self, op: BinOp, regs: &mut [f64], d: usize, a: usize, b: usize, n: usize) {
        f64_dispatch!(op, f => f64_map2(regs, d, a, b, n, f));
    }

    fn mul_acc_rows(
        &mut self,
        op: BinOp,
        regs: &mut [f64],
        d: usize,
        acc: usize,
        a: usize,
        b: usize,
        n: usize,
    ) {
        f64_dispatch!(op, f => {
            const W: usize = LANE_WIDTH;
            let mut l = 0;
            while l + W <= n {
                let mut xacc = [0.0; W];
                let mut xa = [0.0; W];
                let mut xb = [0.0; W];
                xacc.copy_from_slice(&regs[acc + l..acc + l + W]);
                xa.copy_from_slice(&regs[a + l..a + l + W]);
                xb.copy_from_slice(&regs[b + l..b + l + W]);
                let mut out = [0.0; W];
                for i in 0..W {
                    // Two roundings on purpose: contracting into an FMA
                    // would change bits versus the unfused stream.
                    let p = xa[i] * xb[i];
                    out[i] = f(xacc[i], p);
                }
                regs[d + l..d + l + W].copy_from_slice(&out);
                l += W;
            }
            while l < n {
                let p = regs[a + l] * regs[b + l];
                regs[d + l] = f(regs[acc + l], p);
                l += 1;
            }
        });
    }

    fn reduce_rows(
        &mut self,
        op: BinOp,
        regs: &mut [f64],
        chunk: usize,
        d: usize,
        first: usize,
        rest: &[u32],
        n: usize,
    ) {
        f64_dispatch!(op, f => {
            const W: usize = LANE_WIDTH;
            let mut l = 0;
            while l + W <= n {
                // The fold partials live in `acc` — vector registers —
                // for the whole operand list: one destination write per
                // chunk instead of one per chain step.
                let mut acc = [0.0; W];
                acc.copy_from_slice(&regs[first + l..first + l + W]);
                for &r in rest {
                    let ro = r as usize * chunk + l;
                    let mut x = [0.0; W];
                    x.copy_from_slice(&regs[ro..ro + W]);
                    for i in 0..W {
                        acc[i] = f(acc[i], x[i]);
                    }
                }
                regs[d + l..d + l + W].copy_from_slice(&acc);
                l += W;
            }
            while l < n {
                let mut acc = regs[first + l];
                for &r in rest {
                    acc = f(acc, regs[r as usize * chunk + l]);
                }
                regs[d + l] = acc;
                l += 1;
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Word lanes: fixed:I.F on u64, narrow float:E.M on f64.
// ---------------------------------------------------------------------------

/// Dispatches `op` once into a monomorphic expansion of `$body`, with
/// `$f` bound to the word context's per-lane op (the word-lane
/// counterpart of `f64_dispatch!`).
macro_rules! word_dispatch {
    ($ctx:expr, $op:expr, $f:ident => $body:expr) => {{
        let c = $ctx;
        match $op {
            BinOp::Add => {
                let $f = |x, y, fl: &mut Flags| c.add_lane(x, y, fl);
                $body
            }
            BinOp::Mul => {
                let $f = |x, y, fl: &mut Flags| c.mul_lane(x, y, fl);
                $body
            }
            BinOp::Max => {
                let $f = |x, y, _: &mut Flags| W::max_lane(x, y);
                $body
            }
            // Matches `min_nz`: `to_f64` is zero exactly on a zero word.
            BinOp::MinNz => {
                let $f = |x, y, _: &mut Flags| {
                    if W::is_zero(x) {
                        y
                    } else if W::is_zero(y) {
                        x
                    } else {
                        W::min_lane(x, y)
                    }
                };
                $body
            }
        }
    }};
}

/// `regs[d..][l] = f(regs[a..][l], regs[b..][l])` for a word context,
/// in `LANE_WIDTH` chunks through local arrays as `f64_map2` does (one
/// bounds check per chunk, not per lane), with a scalar tail.
fn word_bin_rows<W: WordLanes>(
    ctx: &mut W,
    op: BinOp,
    regs: &mut [W::Word],
    d: usize,
    a: usize,
    b: usize,
    n: usize,
) {
    const C: usize = LANE_WIDTH;
    let mut flags = Flags::new();
    word_dispatch!(&*ctx, op, f => {
        let mut l = 0;
        while l + C <= n {
            let mut xa = [W::Word::default(); C];
            let mut xb = [W::Word::default(); C];
            xa.copy_from_slice(&regs[a + l..a + l + C]);
            xb.copy_from_slice(&regs[b + l..b + l + C]);
            let mut out = [W::Word::default(); C];
            for i in 0..C {
                out[i] = f(xa[i], xb[i], &mut flags);
            }
            regs[d + l..d + l + C].copy_from_slice(&out);
            l += C;
        }
        while l < n {
            regs[d + l] = f(regs[a + l], regs[b + l], &mut flags);
            l += 1;
        }
    });
    ctx.merge_flags(flags);
}

/// `regs[d..][l] = f(regs[acc..][l], regs[a..][l] * regs[b..][l])` for a
/// word context: two roundings, chunked like [`word_bin_rows`].
fn word_mul_acc_rows<W: WordLanes>(
    ctx: &mut W,
    op: BinOp,
    regs: &mut [W::Word],
    d: usize,
    acc: usize,
    a: usize,
    b: usize,
    n: usize,
) {
    const C: usize = LANE_WIDTH;
    let mut flags = Flags::new();
    word_dispatch!(&*ctx, op, f => {
        let mut l = 0;
        while l + C <= n {
            let mut xacc = [W::Word::default(); C];
            let mut xa = [W::Word::default(); C];
            let mut xb = [W::Word::default(); C];
            xacc.copy_from_slice(&regs[acc + l..acc + l + C]);
            xa.copy_from_slice(&regs[a + l..a + l + C]);
            xb.copy_from_slice(&regs[b + l..b + l + C]);
            let mut out = [W::Word::default(); C];
            for i in 0..C {
                let p = ctx.mul_lane(xa[i], xb[i], &mut flags);
                out[i] = f(xacc[i], p, &mut flags);
            }
            regs[d + l..d + l + C].copy_from_slice(&out);
            l += C;
        }
        while l < n {
            let p = ctx.mul_lane(regs[a + l], regs[b + l], &mut flags);
            regs[d + l] = f(regs[acc + l], p, &mut flags);
            l += 1;
        }
    });
    ctx.merge_flags(flags);
}

/// The left-to-right fold of a `Reduce` for a word context, with the
/// chunk's partials in a local array for the whole operand list.
fn word_reduce_rows<W: WordLanes>(
    ctx: &mut W,
    op: BinOp,
    regs: &mut [W::Word],
    chunk: usize,
    d: usize,
    first: usize,
    rest: &[u32],
    n: usize,
) {
    const C: usize = LANE_WIDTH;
    let mut flags = Flags::new();
    word_dispatch!(&*ctx, op, f => {
        let mut l = 0;
        while l + C <= n {
            let mut acc = [W::Word::default(); C];
            acc.copy_from_slice(&regs[first + l..first + l + C]);
            for &r in rest {
                let ro = r as usize * chunk + l;
                let mut x = [W::Word::default(); C];
                x.copy_from_slice(&regs[ro..ro + C]);
                for i in 0..C {
                    acc[i] = f(acc[i], x[i], &mut flags);
                }
            }
            regs[d + l..d + l + C].copy_from_slice(&acc);
            l += C;
        }
        while l < n {
            let mut acc = regs[first + l];
            for &r in rest {
                acc = f(acc, regs[r as usize * chunk + l], &mut flags);
            }
            regs[d + l] = acc;
            l += 1;
        }
    });
    ctx.merge_flags(flags);
}

macro_rules! word_kernel_set {
    ($($ctx:ty),*) => {$(
        impl KernelSet for $ctx {
            fn bin_rows(
                &mut self,
                op: BinOp,
                regs: &mut [Self::Value],
                d: usize,
                a: usize,
                b: usize,
                n: usize,
            ) {
                word_bin_rows(self, op, regs, d, a, b, n);
            }

            fn mul_acc_rows(
                &mut self,
                op: BinOp,
                regs: &mut [Self::Value],
                d: usize,
                acc: usize,
                a: usize,
                b: usize,
                n: usize,
            ) {
                word_mul_acc_rows(self, op, regs, d, acc, a, b, n);
            }

            fn reduce_rows(
                &mut self,
                op: BinOp,
                regs: &mut [Self::Value],
                chunk: usize,
                d: usize,
                first: usize,
                rest: &[u32],
                n: usize,
            ) {
                word_reduce_rows(self, op, regs, chunk, d, first, rest, n);
            }
        }
    )*};
}

word_kernel_set!(FixedWordArith, FloatWordArith);

// The soft contexts are the reference and the fallback for formats too
// wide for a word: they keep the defaulted scalar loops.
impl KernelSet for FixedArith {}
impl KernelSet for FloatArith {}

// ---------------------------------------------------------------------------
// Choosing the context for an `ArithSpec`.
// ---------------------------------------------------------------------------

/// A computation generic over the engine's arithmetic context, run by
/// [`visit_arith`] in the context it picks.
pub trait ArithVisitor {
    /// What the computation returns.
    type Output;

    /// Runs the computation in `ctx`.
    fn visit<A>(self, ctx: A) -> Self::Output
    where
        A: KernelSet + Clone + Send + Sync,
        A::Value: Clone + Send + Sync;
}

/// Runs `v` in the fastest context that computes `spec`'s results: a
/// word-lane context ([`FixedWordArith`], [`FloatWordArith`]) when the
/// format fits one word, the soft [`FixedArith`]/[`FloatArith`] otherwise,
/// [`F64Arith`] for `f64`. Fixed point uses half-up multiplier rounding.
///
/// Both choices give the same values and flags bit for bit, so this is
/// the one place that decides between them.
///
/// # Examples
///
/// ```
/// use problp_engine::kernels::{visit_arith, ArithVisitor, KernelSet};
/// use problp_num::ArithSpec;
///
/// /// The size of one lane value in bytes.
/// struct LaneBytes;
/// impl ArithVisitor for LaneBytes {
///     type Output = usize;
///     fn visit<A>(self, _ctx: A) -> usize
///     where
///         A: KernelSet + Clone + Send + Sync,
///         A::Value: Clone + Send + Sync,
///     {
///         std::mem::size_of::<A::Value>()
///     }
/// }
///
/// let spec = |s| ArithSpec::parse(s).unwrap();
/// assert_eq!(visit_arith(spec("fixed:2.14"), LaneBytes), 8);
/// assert_eq!(visit_arith(spec("float:8.13"), LaneBytes), 8);
/// assert!(visit_arith(spec("float:11.52"), LaneBytes) > 8); // soft
/// ```
pub fn visit_arith<V: ArithVisitor>(spec: ArithSpec, v: V) -> V::Output {
    match spec {
        ArithSpec::F64 => v.visit(F64Arith::new()),
        ArithSpec::Fixed(format) => match FixedWordArith::new(format) {
            Some(word) => v.visit(word),
            None => v.visit(FixedArith::new(format)),
        },
        ArithSpec::Float(format) => match FloatWordArith::new(format) {
            Some(word) => v.visit(word),
            None => v.visit(FloatArith::new(format)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_kind_names_round_trip() {
        for k in KernelKind::ALL {
            assert_eq!(KernelKind::parse(k.name()), Some(k));
        }
        assert_eq!(KernelKind::parse("turbo"), None);
    }
}
