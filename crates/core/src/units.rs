//! Strongly-typed scalar quantities used throughout the model.
//!
//! The Accelerometer model manipulates three physical dimensions: CPU
//! **cycles**, offload **bytes**, and the host's per-byte cost in
//! **cycles per byte** (`Cb` in Table 5 of the paper). Mixing these up is
//! the classic source of silent modeling bugs, so each gets a newtype with
//! only the dimensionally-valid arithmetic implemented:
//!
//! * `CyclesPerByte * Bytes -> Cycles`
//! * `Cycles / Bytes -> CyclesPerByte`
//! * `Cycles / CyclesPerByte -> Bytes`
//!
//! All quantities are `f64` internally: the model works with averages and
//! rates (e.g. 2.3e9 cycles per second, 0.55 cycles per byte), not discrete
//! counts.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// A zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new quantity from a raw `f64` value.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw `f64` value.
            #[must_use]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Returns `true` if the value is finite and non-negative.
            #[must_use]
            pub fn is_valid_magnitude(self) -> bool {
                self.0.is_finite() && self.0 >= 0.0
            }

            /// Returns the larger of two quantities.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }

        impl From<f64> for $name {
            fn from(value: f64) -> Self {
                Self(value)
            }
        }

        impl From<$name> for f64 {
            fn from(value: $name) -> f64 {
                value.0
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }
    };
}

quantity!(
    /// A quantity of CPU cycles.
    ///
    /// The model's `C`, `o0`, `L`, `Q`, and `o1` parameters (Table 5) are
    /// all cycle quantities. `C` is typically the host's busy-frequency
    /// cycles over a one-second accounting window (e.g. `2.3e9`).
    Cycles,
    "cycles"
);

quantity!(
    /// A quantity of bytes; the model's offload granularity `g`.
    Bytes,
    "B"
);

quantity!(
    /// Host cycles spent per byte of offload data (`Cb` in Table 5).
    CyclesPerByte,
    "cycles/B"
);

impl Mul<Bytes> for CyclesPerByte {
    type Output = Cycles;
    fn mul(self, rhs: Bytes) -> Cycles {
        Cycles::new(self.get() * rhs.get())
    }
}

impl Mul<CyclesPerByte> for Bytes {
    type Output = Cycles;
    fn mul(self, rhs: CyclesPerByte) -> Cycles {
        rhs * self
    }
}

impl Div<Bytes> for Cycles {
    type Output = CyclesPerByte;
    fn div(self, rhs: Bytes) -> CyclesPerByte {
        CyclesPerByte::new(self.get() / rhs.get())
    }
}

impl Div<CyclesPerByte> for Cycles {
    type Output = Bytes;
    fn div(self, rhs: CyclesPerByte) -> Bytes {
        Bytes::new(self.get() / rhs.get())
    }
}

/// Convenience constructor: `bytes(425.0)`.
#[must_use]
pub fn bytes(value: f64) -> Bytes {
    Bytes::new(value)
}

/// Convenience constructor: `cycles_per_byte(0.55)`.
#[must_use]
pub fn cycles_per_byte(value: f64) -> CyclesPerByte {
    CyclesPerByte::new(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensional_products() {
        let cb = cycles_per_byte(2.0);
        let g = bytes(100.0);
        assert_eq!((cb * g).get(), 200.0);
        assert_eq!((g * cb).get(), 200.0);
    }

    #[test]
    fn dimensional_quotients() {
        let c = Cycles::new(200.0);
        assert_eq!((c / bytes(100.0)).get(), 2.0);
        assert_eq!((c / cycles_per_byte(2.0)).get(), 100.0);
    }

    #[test]
    fn like_quantity_ratio_is_dimensionless() {
        let ratio: f64 = Cycles::new(10.0) / Cycles::new(4.0);
        assert_eq!(ratio, 2.5);
    }

    #[test]
    fn arithmetic_and_accessors() {
        let mut c = Cycles::new(5.0);
        c += Cycles::new(1.0);
        c -= Cycles::new(2.0);
        assert_eq!(c.get(), 4.0);
        assert_eq!((c * 2.0).get(), 8.0);
        assert_eq!((2.0 * c).get(), 8.0);
        assert_eq!((c / 4.0).get(), 1.0);
        assert_eq!((-c).get(), -4.0);
        assert_eq!(Cycles::ZERO.get(), 0.0);
    }

    #[test]
    fn max_and_validity() {
        assert_eq!(Cycles::new(3.0).max(Cycles::new(5.0)).get(), 5.0);
        assert!(Cycles::new(1.0).is_valid_magnitude());
        assert!(!Cycles::new(-1.0).is_valid_magnitude());
        assert!(!Cycles::new(f64::NAN).is_valid_magnitude());
        assert!(!Cycles::new(f64::INFINITY).is_valid_magnitude());
    }

    #[test]
    fn sum_of_quantities() {
        let total: Cycles = [Cycles::new(1.0), Cycles::new(2.0), Cycles::new(3.0)]
            .into_iter()
            .sum();
        assert_eq!(total.get(), 6.0);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(Cycles::new(2.0).to_string(), "2 cycles");
        assert_eq!(bytes(3.0).to_string(), "3 B");
        assert_eq!(cycles_per_byte(0.5).to_string(), "0.5 cycles/B");
    }

    #[test]
    fn serde_round_trip_is_transparent() {
        let json = serde_json::to_string(&Cycles::new(2.5)).unwrap();
        assert_eq!(json, "2.5");
        let back: Cycles = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Cycles::new(2.5));
    }
}
