//! [`ArithSpec`]: the workspace-wide name of one concrete arithmetic.

use crate::fixed::FixedFormat;
use crate::float::FloatFormat;

/// One concrete arithmetic a tool runs in, by name.
///
/// Unlike [`crate::Representation`] this includes the exact `f64`
/// reference arithmetic: differential harnesses and static analyses must
/// speak about full precision too, not only the low-precision formats the
/// framework sizes. The textual grammar (`f64`, `fixed:I.F`,
/// `float:E.M`) is shared by the CLI's `--repr` flags, the conformance
/// reports and the `problp verify` verdict tables.
///
/// # Examples
///
/// ```
/// use problp_num::ArithSpec;
///
/// let spec = ArithSpec::parse("fixed:2.14").unwrap();
/// assert_eq!(spec.to_string(), "fixed:2.14");
/// assert!(ArithSpec::parse("decimal:1.2").is_none());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArithSpec {
    /// Exact double precision ([`crate::F64Arith`]).
    F64,
    /// Low-precision fixed point in the given format.
    Fixed(FixedFormat),
    /// Low-precision floating point in the given format.
    Float(FloatFormat),
}

impl ArithSpec {
    /// Parses `f64`, `fixed:I.F` or `float:E.M` (the CLI's `--repr`
    /// grammar), e.g. `fixed:2.14` or `float:8.13`.
    pub fn parse(spec: &str) -> Option<ArithSpec> {
        if spec == "f64" {
            return Some(ArithSpec::F64);
        }
        let (kind, fmt) = spec.split_once(':')?;
        let (a, b) = fmt.split_once('.')?;
        let a: u32 = a.parse().ok()?;
        let b: u32 = b.parse().ok()?;
        match kind {
            "fixed" => FixedFormat::new(a, b).ok().map(ArithSpec::Fixed),
            "float" => FloatFormat::new(a, b).ok().map(ArithSpec::Float),
            _ => None,
        }
    }

    /// The largest finite value the arithmetic can represent.
    pub fn max_value(&self) -> f64 {
        match self {
            ArithSpec::F64 => f64::MAX,
            ArithSpec::Fixed(f) => f.max_value(),
            ArithSpec::Float(f) => f.max_finite(),
        }
    }

    /// The smallest positive value the arithmetic can represent —
    /// [`FixedFormat::ulp`] for fixed point, [`FloatFormat::min_positive`]
    /// for the (subnormal-free) low-precision floats.
    pub fn min_positive(&self) -> f64 {
        match self {
            ArithSpec::F64 => f64::MIN_POSITIVE,
            ArithSpec::Fixed(f) => f.ulp(),
            ArithSpec::Float(f) => f.min_positive(),
        }
    }

    /// Narrows the spec to a [`crate::Representation`] (the structural
    /// tag hardware emission uses); `None` for the `f64` reference, which
    /// has no low-precision hardware representation.
    pub fn representation(&self) -> Option<crate::Representation> {
        match self {
            ArithSpec::F64 => None,
            ArithSpec::Fixed(f) => Some(crate::Representation::Fixed(*f)),
            ArithSpec::Float(f) => Some(crate::Representation::Float(*f)),
        }
    }
}

impl From<crate::Representation> for ArithSpec {
    fn from(repr: crate::Representation) -> Self {
        match repr {
            crate::Representation::Fixed(f) => ArithSpec::Fixed(f),
            crate::Representation::Float(f) => ArithSpec::Float(f),
        }
    }
}

impl std::fmt::Display for ArithSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArithSpec::F64 => write!(f, "f64"),
            ArithSpec::Fixed(fmt) => write!(f, "fixed:{}.{}", fmt.int_bits(), fmt.frac_bits()),
            ArithSpec::Float(fmt) => write!(f, "float:{}.{}", fmt.exp_bits(), fmt.mant_bits()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_parse() {
        for spec in ["f64", "fixed:2.14", "float:8.13"] {
            let parsed = ArithSpec::parse(spec).unwrap();
            assert_eq!(parsed.to_string(), spec);
        }
        assert_eq!(ArithSpec::parse("fixed:2"), None);
        assert_eq!(ArithSpec::parse("decimal:1.2"), None);
        assert_eq!(ArithSpec::parse("fixed:0.0"), None, "zero-width format");
    }

    #[test]
    fn bounds_match_the_formats() {
        let fixed = ArithSpec::parse("fixed:2.14").unwrap();
        assert_eq!(fixed.max_value(), 4.0 - (0.5f64).powi(14));
        assert_eq!(fixed.min_positive(), (0.5f64).powi(14));
        let float = ArithSpec::parse("float:8.13").unwrap();
        assert!(float.max_value() > 1e30);
        assert!(float.min_positive() < 1e-30);
        assert_eq!(ArithSpec::F64.max_value(), f64::MAX);
    }

    #[test]
    fn representation_narrows_except_f64() {
        assert!(ArithSpec::F64.representation().is_none());
        assert!(ArithSpec::parse("fixed:2.14")
            .unwrap()
            .representation()
            .is_some());
    }
}
