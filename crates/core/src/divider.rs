//! Exact division by a divisor fixed at construction.
//!
//! The simulator divides by the same few values millions of times a
//! second: the DRAM command-clock period and refresh interval, and a
//! core's issue width. A hardware 64-bit divide costs tens of cycles;
//! [`Divider`] trades it for one 64×64→128-bit multiply, a subtract and
//! two shifts, using the round-up reciprocal of Granlund and Montgomery
//! ("Division by Invariant Integers using Multiplication", PLDI 1994,
//! Theorem 4.2).
//!
//! For a divisor `d ≥ 2`, let `l = ⌈log₂ d⌉` and `m = ⌈2^(64+l) / d⌉`.
//! Then `2^(64+l) ≤ m·d < 2^(64+l) + 2^l`, which makes
//! `⌊n / d⌋ = ⌊m·n / 2^(64+l)⌋` for every `u64` numerator `n`. The
//! multiplier needs 65 bits (`2^64 ≤ m < 2^65`), so only its low word
//! `m − 2^64` is stored; with `h = ⌊n·(m − 2^64) / 2^64⌋ ≤ n` the quotient
//! is `(h + ⌊(n − h) / 2⌋) >> (l − 1)`, which never overflows. A divisor of
//! one stores a zero multiplier and no shifts, so the same two-shift
//! expression returns `n` unchanged and no branch is taken at division
//! time.

/// Exact `u64` quotients, remainders and ceiling quotients by one divisor
/// `d ≥ 1`, computed through a precomputed reciprocal.
///
/// `n / div`, `n % div` and `div.div_ceil(n)` equal `n / d`, `n % d` and
/// `n.div_ceil(d)` for every numerator `n`.
///
/// ```
/// use bwpart_core::Divider;
///
/// let tck = Divider::new(25);
/// assert_eq!(1_000_003 / tck, 40_000);
/// assert_eq!(1_000_003 % tck, 3);
/// assert_eq!(tck.div_ceil(1_000_003), 40_001);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divider {
    d: u64,
    /// Low 64 bits of the 65-bit round-up reciprocal (0 for powers of two
    /// and for one).
    magic: u64,
    /// Shift of `n − h`: 1, or 0 for a divisor of one.
    pre: u32,
    /// Final shift `l − 1`, or 0 for a divisor of one.
    post: u32,
}

impl Divider {
    /// Precompute the reciprocal of `d`.
    ///
    /// # Panics
    /// Panics if `d` is zero, as `/` would.
    pub fn new(d: u64) -> Self {
        assert!(d != 0, "attempt to divide by zero");
        if d == 1 {
            return Divider {
                d,
                magic: 0,
                pre: 0,
                post: 0,
            };
        }
        // l = ⌈log₂ d⌉, so 2^(l−1) < d ≤ 2^l and 1 ≤ l ≤ 64.
        let l = u64::BITS - (d - 1).leading_zeros();
        // m − 2^64 = ⌈2^64·(2^l − d) / d⌉; 2^l − d < d keeps it below 2^64,
        // and (2^l − d)·2^64 < 2^128 keeps the numerator in range.
        let d128 = u128::from(d);
        let magic = (((1u128 << l) - d128) << 64).div_ceil(d128) as u64;
        Divider {
            d,
            magic,
            pre: 1,
            post: l - 1,
        }
    }

    /// The divisor.
    #[inline]
    pub fn divisor(self) -> u64 {
        self.d
    }

    /// `⌊n / d⌋`.
    #[inline]
    fn quotient(self, n: u64) -> u64 {
        let h = ((u128::from(n) * u128::from(self.magic)) >> 64) as u64;
        (h + ((n - h) >> self.pre)) >> self.post
    }

    /// `n.div_ceil(d)`: the quotient rounded up.
    #[inline]
    pub fn div_ceil(self, n: u64) -> u64 {
        let q = self.quotient(n);
        q + u64::from(q * self.d != n)
    }
}

impl std::ops::Div<Divider> for u64 {
    type Output = u64;

    /// `self / d`.
    #[inline]
    fn div(self, d: Divider) -> u64 {
        d.quotient(self)
    }
}

impl std::ops::Rem<Divider> for u64 {
    type Output = u64;

    /// `self % d`.
    #[inline]
    fn rem(self, d: Divider) -> u64 {
        self - d.quotient(self) * d.d
    }
}

/// Serialized as the divisor alone; the reciprocal is rebuilt on load, so
/// a deserialized divider is always consistent.
impl serde::Serialize for Divider {
    fn to_value(&self) -> serde::Value {
        self.d.to_value()
    }
}

impl<'de> serde::Deserialize<'de> for Divider {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match u64::from_value(v)? {
            0 => Err(serde::DeError::new("divisor must be at least 1")),
            d => Ok(Divider::new(d)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Divider;

    #[test]
    fn small_divisors_match_the_operators() {
        for d in 1..=300u64 {
            let div = Divider::new(d);
            assert_eq!(div.divisor(), d);
            for n in (0..2_000u64).chain([u64::MAX - 1, u64::MAX]) {
                assert_eq!(n / div, n / d, "{n} / {d}");
                assert_eq!(n % div, n % d, "{n} % {d}");
                assert_eq!(div.div_ceil(n), n.div_ceil(d), "{n} div_ceil {d}");
            }
        }
    }

    #[test]
    fn serializes_as_its_divisor() {
        use serde::{Deserialize, Serialize};
        let div = Divider::new(39_000);
        let v = div.to_value();
        assert_eq!(u64::from_value(&v).unwrap(), 39_000);
        assert_eq!(Divider::from_value(&v).unwrap(), div);
        assert!(Divider::from_value(&0u64.to_value()).is_err());
    }

    #[test]
    #[should_panic(expected = "divide by zero")]
    fn zero_divisor_panics() {
        let _ = Divider::new(0);
    }
}
