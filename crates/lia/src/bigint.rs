//! A minimal vendored arbitrary-precision signed integer — just enough
//! arithmetic for the rational slow lane, with zero dependencies.
//!
//! [`crate::rational::Rat`] stays a `Copy` pair of `i128`s (the simplex
//! hot paths depend on that), but its operators overflow on deep
//! product-automaton coefficients: a cross-multiplied numerator can need
//! ~254 bits even when the *reduced* result fits comfortably in `i128`.
//! The slow lane computes those intermediates here exactly, reduces by
//! the gcd, and converts back — only a result that genuinely cannot be
//! represented still raises the overflow marker.  The simplex's integer
//! row merges take the same lane: a merged row that overflows `i128` is
//! recomputed here and divided by its content.
//!
//! The representation is sign + little-endian `u64` limbs (no trailing
//! zero limbs; zero is the empty limb vector with a positive sign).
//! Division is simple binary long division — the slow lane runs on a few
//! hundred bits at most, where shift-and-subtract is plenty fast and has
//! no subtle quotient-estimation cases to get wrong.

use std::cmp::Ordering;

/// An arbitrary-precision signed integer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BigInt {
    /// Sign; never `true` for zero.
    neg: bool,
    /// Magnitude, little-endian base-2^64, no trailing zeros.
    mag: Vec<u64>,
}

fn trim(mag: &mut Vec<u64>) {
    while mag.last() == Some(&0) {
        mag.pop();
    }
}

fn mag_cmp(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x.cmp(y);
        }
    }
    Ordering::Equal
}

fn mag_add(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for (i, &limb) in long.iter().enumerate() {
        let s = u128::from(limb) + u128::from(*short.get(i).unwrap_or(&0)) + u128::from(carry);
        out.push(s as u64);
        carry = (s >> 64) as u64;
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// `a - b`; requires `a >= b`.
fn mag_sub(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(mag_cmp(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0i128;
    for (i, &limb) in a.iter().enumerate() {
        let d = i128::from(limb) - i128::from(*b.get(i).unwrap_or(&0)) - borrow;
        if d < 0 {
            out.push((d + (1i128 << 64)) as u64);
            borrow = 1;
        } else {
            out.push(d as u64);
            borrow = 0;
        }
    }
    trim(&mut out);
    out
}

fn mag_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let t = u128::from(x) * u128::from(y) + u128::from(out[i + j]) + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = u128::from(out[k]) + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    trim(&mut out);
    out
}

fn mag_bits(a: &[u64]) -> usize {
    match a.last() {
        None => 0,
        Some(&top) => (a.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
    }
}

fn mag_bit(a: &[u64], i: usize) -> bool {
    a.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
}

fn mag_set_bit(a: &mut Vec<u64>, i: usize) {
    while a.len() <= i / 64 {
        a.push(0);
    }
    a[i / 64] |= 1 << (i % 64);
}

/// Shift left by one bit, then set bit 0 to `low`.
fn mag_shl1_or(a: &mut Vec<u64>, low: bool) {
    let mut carry = u64::from(low);
    for w in a.iter_mut() {
        let next = *w >> 63;
        *w = (*w << 1) | carry;
        carry = next;
    }
    if carry != 0 {
        a.push(carry);
    }
}

/// Binary long division of magnitudes: `(a / b, a % b)`; `b` nonzero.
fn mag_divrem(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
    debug_assert!(!b.is_empty());
    if mag_cmp(a, b) == Ordering::Less {
        return (Vec::new(), a.to_vec());
    }
    let mut quot: Vec<u64> = Vec::new();
    let mut rem: Vec<u64> = Vec::new();
    for i in (0..mag_bits(a)).rev() {
        mag_shl1_or(&mut rem, mag_bit(a, i));
        if mag_cmp(&rem, b) != Ordering::Less {
            rem = mag_sub(&rem, b);
            mag_set_bit(&mut quot, i);
        }
    }
    trim(&mut quot);
    trim(&mut rem);
    (quot, rem)
}

impl BigInt {
    /// Zero.
    pub fn zero() -> BigInt {
        BigInt {
            neg: false,
            mag: Vec::new(),
        }
    }

    /// Conversion from the machine type the solver actually uses.
    pub fn from_i128(v: i128) -> BigInt {
        let neg = v < 0;
        let m = v.unsigned_abs();
        let mut mag = vec![m as u64, (m >> 64) as u64];
        trim(&mut mag);
        BigInt { neg, mag }
    }

    /// `true` for zero.
    pub fn is_zero(&self) -> bool {
        self.mag.is_empty()
    }

    /// The magnitude (absolute value).
    pub fn abs(&self) -> BigInt {
        BigInt {
            neg: false,
            mag: self.mag.clone(),
        }
    }

    /// Negation.
    pub fn neg(&self) -> BigInt {
        BigInt {
            neg: !self.neg && !self.is_zero(),
            mag: self.mag.clone(),
        }
    }

    /// Exact sum.
    pub fn add(&self, other: &BigInt) -> BigInt {
        if self.neg == other.neg {
            BigInt {
                neg: self.neg,
                mag: mag_add(&self.mag, &other.mag),
            }
        } else {
            match mag_cmp(&self.mag, &other.mag) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt {
                    neg: self.neg,
                    mag: mag_sub(&self.mag, &other.mag),
                },
                Ordering::Less => BigInt {
                    neg: other.neg,
                    mag: mag_sub(&other.mag, &self.mag),
                },
            }
        }
    }

    /// Exact difference.
    pub fn sub(&self, other: &BigInt) -> BigInt {
        self.add(&other.neg())
    }

    /// Exact product.
    pub fn mul(&self, other: &BigInt) -> BigInt {
        let mag = mag_mul(&self.mag, &other.mag);
        BigInt {
            neg: self.neg != other.neg && !mag.is_empty(),
            mag,
        }
    }

    /// Truncating division `(self / other, self % other)` (remainder takes
    /// the dividend's sign, like Rust's `%`).  `other` must be nonzero.
    pub fn divrem(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "BigInt division by zero");
        let (q, r) = mag_divrem(&self.mag, &other.mag);
        (
            BigInt {
                neg: self.neg != other.neg && !q.is_empty(),
                mag: q,
            },
            BigInt {
                neg: self.neg && !r.is_empty(),
                mag: r,
            },
        )
    }

    /// Greatest common divisor of the magnitudes (always non-negative;
    /// `gcd(0, b) = |b|`).
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            let (_, r) = a.divrem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Total order.
    pub fn cmp_big(&self, other: &BigInt) -> Ordering {
        match (self.neg, other.neg) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => mag_cmp(&self.mag, &other.mag),
            (true, true) => mag_cmp(&other.mag, &self.mag),
        }
    }

    /// Back to the machine type; `None` when the value needs more than an
    /// `i128`.
    pub fn to_i128(&self) -> Option<i128> {
        if self.mag.len() > 2 {
            return None;
        }
        let lo = u128::from(*self.mag.first().unwrap_or(&0));
        let hi = u128::from(*self.mag.get(1).unwrap_or(&0));
        let m = (hi << 64) | lo;
        if self.neg {
            if m > i128::MAX.unsigned_abs() + 1 {
                None
            } else {
                Some(m.wrapping_neg() as i128)
            }
        } else if m > i128::MAX as u128 {
            None
        } else {
            Some(m as i128)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: i128) -> BigInt {
        BigInt::from_i128(v)
    }

    #[test]
    fn roundtrips_i128_extremes() {
        for v in [
            0,
            1,
            -1,
            42,
            -42,
            i128::MAX,
            i128::MIN,
            i64::MAX as i128 + 1,
        ] {
            assert_eq!(big(v).to_i128(), Some(v), "roundtrip {v}");
        }
    }

    #[test]
    fn add_sub_match_machine_arithmetic() {
        let cases = [
            (5i128, 7i128),
            (-5, 7),
            (5, -7),
            (-5, -7),
            (i64::MAX as i128, i64::MAX as i128),
            (i128::MAX / 2, i128::MAX / 2),
        ];
        for (a, b) in cases {
            assert_eq!(big(a).add(&big(b)).to_i128(), Some(a + b));
            assert_eq!(big(a).sub(&big(b)).to_i128(), Some(a - b));
        }
    }

    #[test]
    fn products_past_i128_come_back_after_division() {
        // (2^100)^2 does not fit an i128 …
        let k = big(1i128 << 100);
        let sq = k.mul(&k);
        assert_eq!(sq.to_i128(), None);
        // … but dividing it back down does
        let (q, r) = sq.divrem(&k);
        assert!(r.is_zero());
        assert_eq!(q.to_i128(), Some(1i128 << 100));
    }

    #[test]
    fn divrem_matches_machine_semantics() {
        for (a, b) in [(17i128, 5i128), (-17, 5), (17, -5), (-17, -5), (4, 9)] {
            let (q, r) = big(a).divrem(&big(b));
            assert_eq!(q.to_i128(), Some(a / b), "{a}/{b}");
            assert_eq!(r.to_i128(), Some(a % b), "{a}%{b}");
        }
    }

    #[test]
    fn gcd_reduces_shared_factors() {
        let a = big(1i128 << 90).mul(&big(6));
        let b = big(1i128 << 90).mul(&big(4));
        let g = a.gcd(&b);
        assert_eq!(g.to_i128(), Some((1i128 << 90) * 2));
        assert_eq!(big(0).gcd(&big(-8)).to_i128(), Some(8));
    }

    #[test]
    fn ordering_is_total_across_signs() {
        let mut vals: Vec<BigInt> = [-300i128, -2, 0, 1, 5, i128::MAX]
            .into_iter()
            .map(big)
            .collect();
        vals.push(big(i128::MAX).mul(&big(3)));
        for i in 0..vals.len() {
            for j in 0..vals.len() {
                assert_eq!(vals[i].cmp_big(&vals[j]), i.cmp(&j));
            }
        }
    }
}
