//! A minimal complex sample type.
//!
//! The whole workspace traffics in interleaved complex baseband samples, so
//! this type is deliberately tiny (`#[repr(C)]`, two `f32`s) and implements
//! only the operations the DSP code actually needs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex baseband sample with `f32` components.
#[derive(Clone, Copy, Default, PartialEq)]
#[repr(C)]
pub struct Complex32 {
    /// In-phase (real) component.
    pub re: f32,
    /// Quadrature (imaginary) component.
    pub im: f32,
}

impl Complex32 {
    /// The additive identity.
    pub const ZERO: Complex32 = Complex32 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex32 = Complex32 { re: 1.0, im: 0.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f32, im: f32) -> Self {
        Self { re, im }
    }

    /// Creates a complex number from polar coordinates.
    #[inline]
    pub fn from_polar(magnitude: f32, angle: f32) -> Self {
        let (s, c) = angle.sin_cos();
        Self::new(magnitude * c, magnitude * s)
    }

    /// Unit phasor `e^{j angle}`.
    #[inline]
    pub fn cis(angle: f32) -> Self {
        Self::from_polar(1.0, angle)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Squared magnitude `|z|^2`, i.e. the instantaneous power of a sample.
    #[inline]
    pub fn norm_sqr(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f32 {
        self.norm_sqr().sqrt()
    }

    /// Principal argument in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f32 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f32) -> Self {
        Self::new(self.re * k, self.im * k)
    }
}

impl fmt::Debug for Complex32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:+}i", self.re, self.im)
    }
}

impl fmt::Display for Complex32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:+}i", self.re, self.im)
    }
}

impl Add for Complex32 {
    type Output = Complex32;
    #[inline]
    fn add(self, rhs: Complex32) -> Complex32 {
        Complex32::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex32 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex32) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex32 {
    type Output = Complex32;
    #[inline]
    fn sub(self, rhs: Complex32) -> Complex32 {
        Complex32::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex32 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex32) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex32 {
    type Output = Complex32;
    #[inline]
    fn mul(self, rhs: Complex32) -> Complex32 {
        Complex32::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex32 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex32) {
        *self = *self * rhs;
    }
}

impl Mul<f32> for Complex32 {
    type Output = Complex32;
    #[inline]
    fn mul(self, rhs: f32) -> Complex32 {
        self.scale(rhs)
    }
}

impl Mul<Complex32> for f32 {
    type Output = Complex32;
    #[inline]
    fn mul(self, rhs: Complex32) -> Complex32 {
        rhs.scale(self)
    }
}

impl Div<f32> for Complex32 {
    type Output = Complex32;
    #[inline]
    fn div(self, rhs: f32) -> Complex32 {
        self.scale(1.0 / rhs)
    }
}

impl DivAssign<f32> for Complex32 {
    #[inline]
    fn div_assign(&mut self, rhs: f32) {
        *self = *self / rhs;
    }
}

impl Div for Complex32 {
    type Output = Complex32;
    #[inline]
    fn div(self, rhs: Complex32) -> Complex32 {
        let d = rhs.norm_sqr();
        Complex32::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Complex32 {
    type Output = Complex32;
    #[inline]
    fn neg(self) -> Complex32 {
        Complex32::new(-self.re, -self.im)
    }
}

impl Sum for Complex32 {
    fn sum<I: Iterator<Item = Complex32>>(iter: I) -> Complex32 {
        iter.fold(Complex32::ZERO, |a, b| a + b)
    }
}

impl From<f32> for Complex32 {
    #[inline]
    fn from(re: f32) -> Self {
        Complex32::new(re, 0.0)
    }
}

impl From<(f32, f32)> for Complex32 {
    #[inline]
    fn from((re, im): (f32, f32)) -> Self {
        Complex32::new(re, im)
    }
}

/// Converts a USRP-style interleaved `i16` I/Q pair into a unit-scale sample.
///
/// The USRP 1 delivers 12-bit samples in 16-bit containers; we normalize by
/// `i16::MAX` so a full-scale trace maps onto roughly `[-1, 1]`.
#[inline]
pub fn from_i16_iq(i: i16, q: i16) -> Complex32 {
    Complex32::new(i as f32 * I16_UNIT, q as f32 * I16_UNIT)
}

/// The factor [`from_i16_iq`] multiplies each component by; the vector
/// widening kernels broadcast this same `f32`.
pub(crate) const I16_UNIT: f32 = 1.0 / i16::MAX as f32;

/// Converts a unit-scale sample back to an interleaved `i16` I/Q pair,
/// saturating on overflow.
#[inline]
pub fn to_i16_iq(z: Complex32) -> (i16, i16) {
    let clamp = |x: f32| (x * i16::MAX as f32).clamp(i16::MIN as f32, i16::MAX as f32) as i16;
    (clamp(z.re), clamp(z.im))
}

/// Average power (mean squared magnitude) of a slice of samples.
///
/// Dispatches through the vectorized kernel layer; see
/// [`crate::kernels::mean_power`].
pub fn mean_power(samples: &[Complex32]) -> f32 {
    crate::kernels::mean_power(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex32::new(3.0, -4.0);
        assert_eq!(z + Complex32::ZERO, z);
        assert_eq!(z * Complex32::ONE, z);
        assert_eq!(z - z, Complex32::ZERO);
        assert!(close((z * z.conj()).re, z.norm_sqr()));
        assert!(close((z * z.conj()).im, 0.0));
    }

    #[test]
    fn division_is_mul_inverse() {
        let a = Complex32::new(1.5, -2.5);
        let b = Complex32::new(-0.25, 3.0);
        let q = a / b;
        let back = q * b;
        assert!(close(back.re, a.re) && close(back.im, a.im));
    }

    #[test]
    fn polar_round_trip() {
        for k in 0..16 {
            let angle = (k as f32) * std::f32::consts::FRAC_PI_8 - 3.0;
            let z = Complex32::from_polar(2.5, angle);
            assert!(close(z.abs(), 2.5));
            let diff = (z.arg() - angle).rem_euclid(std::f32::consts::TAU);
            assert!(!(1e-4..=std::f32::consts::TAU - 1e-4).contains(&diff));
        }
    }

    #[test]
    fn i_squared_is_minus_one() {
        let i = Complex32::new(0.0, 1.0);
        assert_eq!(i * i, Complex32::new(-1.0, 0.0));
    }

    #[test]
    fn i16_round_trip_is_close() {
        let z = Complex32::new(0.5, -0.25);
        let (i, q) = to_i16_iq(z);
        let back = from_i16_iq(i, q);
        assert!((back.re - z.re).abs() < 1e-3);
        assert!((back.im - z.im).abs() < 1e-3);
    }

    #[test]
    fn i16_saturates() {
        let (i, q) = to_i16_iq(Complex32::new(4.0, -4.0));
        assert_eq!(i, i16::MAX);
        assert_eq!(q, i16::MIN);
    }

    #[test]
    fn mean_power_of_unit_phasors_is_one() {
        let v: Vec<Complex32> = (0..64).map(|k| Complex32::cis(k as f32 * 0.1)).collect();
        assert!(close(mean_power(&v), 1.0));
    }

    #[test]
    fn mean_power_empty_is_zero() {
        assert_eq!(mean_power(&[]), 0.0);
    }
}
