//! Exact rational arithmetic over `i128`, with a big-integer slow lane.
//!
//! The simplex's assignment, bounds and certificates are rationals (its
//! rows are integer numerators over one row denominator, see
//! `simplex.rs`).  `Rat` stays a `Copy` pair of `i128`s — the assignment
//! updates depend on that — and every operation first tries machine
//! arithmetic.  On overflow the operation falls back to a *slow lane*
//! over the vendored [`crate::bigint::BigInt`]: the exact intermediate is
//! computed with arbitrary precision, reduced by the gcd, and converted
//! back to `i128`.  Deep product-automaton coefficients thus overflow only when the
//! *reduced result* genuinely needs more than 127 bits; comparisons never
//! overflow at all (they finish exactly in the slow lane).  A result that
//! truly cannot be represented panics with a recognisable message; the
//! solve entry points catch it and report a *resource-out* instead of an
//! incorrect answer (see `posr_lia::solver::Solver::solve`).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use std::sync::LazyLock;

use crate::bigint::BigInt;

/// Message used by arithmetic overflow panics; the solver recognises it when
/// converting panics to resource-limit results.
pub const OVERFLOW_MSG: &str = "posr-lia rational overflow";

/// Raises the overflow marker panic the solve entry points translate into
/// a clean `Unknown`.  Public so the fault-injection harness can simulate
/// an overflow on any path that is documented to absorb one.
pub fn overflow_panic() -> ! {
    panic!("{OVERFLOW_MSG}")
}

/// The `Unknown` reason every entry point reports for a caught overflow.
pub const OVERFLOW_UNKNOWN: &str = "arithmetic overflow in theory solver";

/// Runs `f`, translating an [`OVERFLOW_MSG`] panic into
/// `Err(`[`OVERFLOW_UNKNOWN`]`)` and re-raising every other panic (those
/// indicate bugs, not resource limits).  The shared building block behind
/// the "overflow degrades to a clean `Unknown`" guarantee of every public
/// solve entry point.
pub fn catch_overflow<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("panic");
            if msg.contains(OVERFLOW_MSG) {
                Err(OVERFLOW_UNKNOWN.to_string())
            } else {
                std::panic::panic_any(msg.to_string())
            }
        }
    }
}

/// Operations that had to take the big-integer slow lane (each one was a
/// spurious resource-out before the lane existed), here and in the
/// simplex's exact row merges.
pub(crate) static OBS_SLOW_LANE: LazyLock<posr_obs::Counter> =
    LazyLock::new(|| posr_obs::counter("lia.rat.slow_lane"));

/// An exact rational number `num / den` with `den > 0` and `gcd(num, den) = 1`.
///
/// ```
/// use posr_lia::rational::Rat;
/// let a = Rat::new(1, 3);
/// let b = Rat::new(1, 6);
/// assert_eq!(a + b, Rat::new(1, 2));
/// assert!(a > b);
/// assert_eq!(Rat::from_int(2).floor(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Rat {
    num: i128,
    den: i128,
}

fn ugcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

pub(crate) fn gcd(a: i128, b: i128) -> i128 {
    ugcd(a.unsigned_abs(), b.unsigned_abs()) as i128
}

#[inline]
fn checked(v: Option<i128>) -> i128 {
    v.unwrap_or_else(|| overflow_panic())
}

fn big(v: i128) -> BigInt {
    BigInt::from_i128(v)
}

/// Slow-lane landing: reduces the exact `num / den` (`den` nonzero) and
/// converts back to machine words.  Panics with [`OVERFLOW_MSG`] only when
/// the reduced value needs more than an `i128` — the one case the solver
/// genuinely cannot represent.
#[cold]
fn reduce_fit(num: BigInt, den: BigInt) -> Rat {
    OBS_SLOW_LANE.incr();
    let (num, den) = if den.cmp_big(&BigInt::zero()) == Ordering::Less {
        (num.neg(), den.neg())
    } else {
        (num, den)
    };
    if num.is_zero() {
        return Rat::ZERO;
    }
    let g = num.gcd(&den);
    let (num, _) = num.divrem(&g);
    let (den, _) = den.divrem(&g);
    match (num.to_i128(), den.to_i128()) {
        (Some(num), Some(den)) => Rat { num, den },
        _ => overflow_panic(),
    }
}

impl Rat {
    /// The rational 0.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational 1.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates the rational `num / den` in lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        if num == 0 {
            return Rat::ZERO;
        }
        // reduce over unsigned magnitudes and reattach the sign at the
        // end, so `i128::MIN` inputs normalise instead of overflowing on
        // the up-front sign flip
        let neg = (num < 0) != (den < 0);
        let g = ugcd(num.unsigned_abs(), den.unsigned_abs());
        let n = num.unsigned_abs() / g;
        let d = den.unsigned_abs() / g;
        let max_n = if neg { 1u128 << 127 } else { i128::MAX as u128 };
        if n > max_n || d > i128::MAX as u128 {
            overflow_panic();
        }
        Rat {
            num: if neg {
                (n as i128).wrapping_neg()
            } else {
                n as i128
            },
            den: d as i128,
        }
    }

    /// Creates the rational `n / 1`.
    pub fn from_int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// Numerator (after normalisation; carries the sign).
    pub fn numer(self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn denom(self) -> i128 {
        self.den
    }

    /// Returns `true` if the value is an integer.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Returns `true` if the value is strictly positive.
    pub fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Largest integer `<= self`.
    pub fn floor(self) -> i128 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            -((-self.num + self.den - 1) / self.den)
        }
    }

    /// Smallest integer `>= self`.
    pub fn ceil(self) -> i128 {
        if self.num >= 0 {
            (self.num + self.den - 1) / self.den
        } else {
            -((-self.num) / self.den)
        }
    }

    /// Converts to `i128` if the value is an integer.
    pub fn to_integer(self) -> Option<i128> {
        if self.is_integer() {
            Some(self.num)
        } else {
            None
        }
    }

    /// Absolute value.
    pub fn abs(self) -> Rat {
        Rat {
            num: checked(self.num.checked_abs()),
            den: self.den,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(self) -> Rat {
        assert!(self.num != 0, "reciprocal of zero");
        Rat::new(self.den, self.num)
    }
}

impl Default for Rat {
    fn default() -> Rat {
        Rat::ZERO
    }
}

impl From<i128> for Rat {
    fn from(n: i128) -> Rat {
        Rat::from_int(n)
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::from_int(n as i128)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        // fast paths for the shapes the simplex row updates produce: the
        // coefficients of automata-derived rows are integers almost
        // everywhere, and equal denominators appear whenever a row is
        // scaled once and then accumulated
        if self.den == rhs.den {
            let Some(num) = self.num.checked_add(rhs.num) else {
                // numerator sum needs 128 bits: finish exactly in the
                // slow lane (the shared den may still divide it back down)
                return reduce_fit(big(self.num).add(&big(rhs.num)), big(self.den));
            };
            if self.den == 1 {
                // integers stay integers: no gcd, no renormalisation
                return Rat { num, den: 1 };
            }
            // shared denominator: only the numerator sum can introduce a
            // common factor, and it divides the (already reduced) den
            let g = gcd(num, self.den);
            return Rat {
                num: num / g,
                den: self.den / g,
            };
        }
        let exact = (|| {
            let l = self.num.checked_mul(rhs.den)?;
            let r = rhs.num.checked_mul(self.den)?;
            Some((l.checked_add(r)?, self.den.checked_mul(rhs.den)?))
        })();
        match exact {
            Some((num, den)) => Rat::new(num, den),
            // a cross product overflowed: the exact sum often still
            // reduces into range (automata-derived dens share factors)
            None => reduce_fit(
                big(self.num)
                    .mul(&big(rhs.den))
                    .add(&big(rhs.num).mul(&big(self.den))),
                big(self.den).mul(&big(rhs.den)),
            ),
        }
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        // ±1 are by far the most common row coefficients (every automaton
        // transition contributes a unit entry); neither needs arithmetic
        if rhs.den == 1 {
            match rhs.num {
                1 => return self,
                -1 => return -self,
                _ => {}
            }
        }
        if self.den == 1 {
            match self.num {
                1 => return rhs,
                -1 => return -rhs,
                _ => {}
            }
        }
        // cross-gcd reduction: divide each numerator by its gcd with the
        // *other* denominator before multiplying.  The products are then
        // already in lowest terms (both fractions are reduced), skipping
        // the final gcd — and intermediate magnitudes shrink, so products
        // whose reduced result fits in `i128` no longer overflow spuriously
        let ga = gcd(self.num, rhs.den);
        let gb = gcd(rhs.num, self.den);
        let (an, bd) = if ga > 1 {
            (self.num / ga, rhs.den / ga)
        } else {
            (self.num, rhs.den)
        };
        let (bn, ad) = if gb > 1 {
            (rhs.num / gb, self.den / gb)
        } else {
            (rhs.num, self.den)
        };
        // the cross-reduced factors are pairwise coprime, so the products
        // are already in lowest terms: an overflow here is a value that
        // genuinely needs more than an `i128` — no slow lane can save it
        Rat {
            num: checked(an.checked_mul(bn)),
            den: checked(ad.checked_mul(bd)),
        }
    }
}

impl Div for Rat {
    type Output = Rat;
    #[allow(clippy::suspicious_arithmetic_impl)] // division via the reciprocal is exact here
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        // `-i128::MIN` does not exist; +2^127/den is unrepresentable
        Rat {
            num: checked(self.num.checked_neg()),
            den: self.den,
        }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // equal denominators (integers in particular) compare directly —
        // the common case in bound checks, where bounds are integral
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // differing signs need no arithmetic either (dens are positive)
        let (s, o) = (self.num.signum(), other.num.signum());
        if s != o {
            return s.cmp(&o);
        }
        match (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            (Some(lhs), Some(rhs)) => lhs.cmp(&rhs),
            // deep coefficients: compare exactly — `cmp` is total and
            // never raises the overflow marker
            _ => {
                OBS_SLOW_LANE.incr();
                big(self.num)
                    .mul(&big(other.den))
                    .cmp_big(&big(other.num).mul(&big(self.den)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 7), Rat::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 3);
        let b = Rat::new(1, 6);
        assert_eq!(a + b, Rat::new(1, 2));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 18));
        assert_eq!(a / b, Rat::from_int(2));
        assert_eq!(-a, Rat::new(-1, 3));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) > Rat::new(1, 4));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::from_int(3) >= Rat::new(6, 2));
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::from_int(5).floor(), 5);
        assert_eq!(Rat::from_int(5).ceil(), 5);
    }

    #[test]
    fn integer_detection() {
        assert!(Rat::new(4, 2).is_integer());
        assert!(!Rat::new(5, 2).is_integer());
        assert_eq!(Rat::new(4, 2).to_integer(), Some(2));
        assert_eq!(Rat::new(5, 2).to_integer(), None);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "posr-lia rational overflow")]
    fn overflow_panics_with_marker() {
        let big = Rat::from_int(i128::MAX / 2);
        let _ = big * big;
    }

    #[test]
    fn display() {
        assert_eq!(Rat::new(3, 6).to_string(), "1/2");
        assert_eq!(Rat::from_int(-4).to_string(), "-4");
    }

    /// The reference implementations the fast paths must agree with:
    /// textbook cross-multiplication with the final gcd normalisation.
    fn slow_add(a: Rat, b: Rat) -> Rat {
        Rat::new(a.num * b.den + b.num * a.den, a.den * b.den)
    }

    fn slow_mul(a: Rat, b: Rat) -> Rat {
        Rat::new(a.num * b.num, a.den * b.den)
    }

    #[test]
    fn fast_paths_agree_with_reference() {
        // a small splat of values covering every fast-path shape: shared
        // denominators, integers, ±1 factors, zero, mixed signs
        let mut vals = Vec::new();
        for num in -6i128..=6 {
            for den in 1i128..=4 {
                vals.push(Rat::new(num, den));
            }
        }
        for &a in &vals {
            for &b in &vals {
                assert_eq!(a + b, slow_add(a, b), "add {a} {b}");
                assert_eq!(a - b, slow_add(a, -b), "sub {a} {b}");
                assert_eq!(a * b, slow_mul(a, b), "mul {a} {b}");
                let expected = (a.num * b.den).cmp(&(b.num * a.den));
                assert_eq!(a.cmp(&b), expected, "cmp {a} {b}");
                if !b.is_zero() {
                    assert_eq!(a / b, slow_mul(a, b.recip()), "div {a} {b}");
                }
            }
        }
    }

    #[test]
    fn integer_add_at_the_overflow_boundary() {
        // the integer fast path must be exact right up to the edge...
        let almost = Rat::from_int(i128::MAX - 1);
        assert_eq!(almost + Rat::ONE, Rat::from_int(i128::MAX));
        assert_eq!(
            Rat::from_int(i128::MIN + 1) - Rat::ONE,
            Rat::from_int(i128::MIN)
        );
    }

    #[test]
    #[should_panic(expected = "posr-lia rational overflow")]
    fn integer_add_past_the_boundary_panics() {
        // ...and panic with the recognised marker one past it, so the
        // solver converts it to a resource-out rather than a wrong answer
        let _ = Rat::from_int(i128::MAX) + Rat::ONE;
    }

    #[test]
    fn cross_reduction_survives_products_the_naive_multiply_cannot() {
        // (MAX-1)/2 * 2/(MAX-1) = 1: the naive num*num product overflows,
        // the cross-gcd reduction cancels before multiplying
        let big = i128::MAX - 1;
        let a = Rat::new(big, 2);
        let b = Rat::new(2, big);
        assert_eq!(a * b, Rat::ONE);
        // a genuinely too-large product must still panic with the marker
        let r = std::panic::catch_unwind(|| Rat::from_int(big) * Rat::from_int(big));
        let msg = *r.unwrap_err().downcast::<String>().expect("panic message");
        assert!(msg.contains(OVERFLOW_MSG), "got {msg}");
    }

    #[test]
    fn shared_denominator_add_renormalises() {
        // 1/6 + 1/6 = 1/3: the shared-den fast path must still reduce
        assert_eq!(Rat::new(1, 6) + Rat::new(1, 6), Rat::new(1, 3));
        assert_eq!(Rat::new(1, 4) + Rat::new(-1, 4), Rat::ZERO);
        assert_eq!(Rat::new(3, 4) + Rat::new(3, 4), Rat::new(3, 2));
    }

    #[test]
    fn slow_lane_rescues_shared_den_sums() {
        // the numerator sum needs 128 bits, but the shared denominator
        // divides it back into range: 2·(2^126+1)/4 = (2^126+1)/2
        let k = (1i128 << 126) + 1;
        let a = Rat::new(k, 4);
        assert_eq!(a + a, Rat::new(k, 2));
        // and the mirrored negative case
        let b = Rat::new(-k, 4);
        assert_eq!(b + b, Rat::new(-k, 2));
    }

    #[test]
    fn slow_lane_rescues_cross_multiplied_sums() {
        // dens 2^100 and 2^101 make every cross product overflow an i128,
        // yet the exact sum reduces to 3/2^101
        let a = Rat::new(1, 1i128 << 100);
        let b = Rat::new(1, 1i128 << 101);
        assert_eq!(a + b, Rat::new(3, 1i128 << 101));
        assert_eq!(b - a, Rat::new(-1, 1i128 << 101));
    }

    #[test]
    fn comparison_never_overflows() {
        // cross products here are ~2^216: the old checked multiply
        // panicked, the slow lane compares exactly
        let a = Rat::new((1i128 << 126) + 1, 1i128 << 90);
        let b = Rat::new((1i128 << 126) - 1, (1i128 << 90) - 1);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn new_normalises_i128_min() {
        // i128::MIN magnitudes reduce instead of overflowing on the sign
        // flip (gcd is a power of two here)
        assert_eq!(Rat::new(i128::MIN, 2), Rat::from_int(i128::MIN / 2));
        assert_eq!(Rat::new(i128::MIN, -2), Rat::from_int(-(i128::MIN / 2)));
        assert_eq!(
            Rat::new(1, 1) + Rat::new(i128::MIN, 1),
            Rat::from_int(i128::MIN + 1)
        );
    }

    #[test]
    fn comparison_without_multiplication_is_exact_at_the_boundary() {
        // sign and equal-den fast paths keep cmp total where the cross
        // multiplication would overflow
        let huge = Rat::from_int(i128::MAX);
        let tiny = Rat::from_int(i128::MIN);
        assert!(tiny < huge);
        assert!(huge > Rat::ZERO);
        assert!(Rat::from_int(i128::MAX - 1) < huge);
    }
}
