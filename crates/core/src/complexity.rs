//! Kernel computational complexity in the offload granularity (`g^β`).
//!
//! Eqn (2) of the paper notes that the per-offload profitability test can
//! be extended to model the kernel's complexity using `g^β`: `β = 1` for a
//! linear kernel (e.g. encryption), `β < 1` for sub-linear kernels, and
//! `β > 1` for super-linear kernels (e.g. some compression settings). The
//! paper's own validation assumes linear kernels because scaling studies
//! on production systems are impractical; the default here is therefore
//! [`Complexity::LINEAR`].

use serde::{Deserialize, Serialize};

use crate::error::{ensure, Result};
use crate::units::{Bytes, Cycles, CyclesPerByte};

/// A kernel's computational complexity exponent `β` in `Cb · g^β`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Complexity(f64);

impl Complexity {
    /// Linear complexity (`β = 1`): cost proportional to offload size.
    pub const LINEAR: Complexity = Complexity(1.0);

    /// Creates a complexity with exponent `beta`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ModelError::InvalidParameter`] unless
    /// `beta` is finite and positive.
    pub fn new(beta: f64) -> Result<Self> {
        ensure(
            beta.is_finite() && beta > 0.0,
            "beta",
            beta,
            "complexity exponent must be finite and positive",
        )?;
        Ok(Self(beta))
    }

    /// The exponent `β`.
    #[must_use]
    pub fn beta(self) -> f64 {
        self.0
    }

    /// Evaluates `g^β`.
    #[must_use]
    pub fn scale(self, g: Bytes) -> f64 {
        g.get().powf(self.0)
    }

    /// Inverts `g^β = x`, returning `g = x^(1/β)`.
    #[must_use]
    pub fn invert(self, x: f64) -> Bytes {
        Bytes::new(x.powf(1.0 / self.0))
    }
}

impl Default for Complexity {
    fn default() -> Self {
        Complexity::LINEAR
    }
}

/// The host-side cost model for one kernel: `Cb` cycles per byte with
/// complexity `g^β`.
///
/// This is the quantity the paper derives from micro-benchmarks when
/// applying the per-offload profitability tests (eqns 2, 4, 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelCost {
    /// `Cb`: host cycles per byte at linear scale.
    pub cycles_per_byte: CyclesPerByte,
    /// The complexity exponent `β`.
    pub complexity: Complexity,
}

impl KernelCost {
    /// A linear-complexity kernel cost.
    #[must_use]
    pub fn linear(cycles_per_byte: CyclesPerByte) -> Self {
        Self {
            cycles_per_byte,
            complexity: Complexity::LINEAR,
        }
    }

    /// Host cycles to execute a `g`-byte invocation: `Cb · g^β`.
    #[must_use]
    pub fn host_cycles(&self, g: Bytes) -> Cycles {
        Cycles::new(self.cycles_per_byte.get() * self.complexity.scale(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{bytes, cycles_per_byte};

    #[test]
    fn linear_is_default() {
        assert_eq!(Complexity::default(), Complexity::LINEAR);
        assert_eq!(Complexity::LINEAR.beta(), 1.0);
    }

    #[test]
    fn rejects_invalid_exponents() {
        assert!(Complexity::new(0.0).is_err());
        assert!(Complexity::new(-1.0).is_err());
        assert!(Complexity::new(f64::NAN).is_err());
    }

    #[test]
    fn scale_and_invert_round_trip() {
        let c = Complexity::new(1.5).unwrap();
        let g = bytes(256.0);
        let scaled = c.scale(g);
        let back = c.invert(scaled);
        assert!((back.get() - 256.0).abs() < 1e-9);
    }

    #[test]
    fn linear_cost_is_cb_times_g() {
        let cost = KernelCost::linear(cycles_per_byte(5.62));
        assert!((cost.host_cycles(bytes(425.0)).get() - 5.62 * 425.0).abs() < 1e-9);
    }

    #[test]
    fn super_linear_kernel_grows_faster() {
        let lin = KernelCost::linear(cycles_per_byte(1.0));
        let sup = KernelCost {
            cycles_per_byte: cycles_per_byte(1.0),
            complexity: Complexity::new(1.3).unwrap(),
        };
        assert!(sup.host_cycles(bytes(1024.0)) > lin.host_cycles(bytes(1024.0)));
        // And slower below 1 byte-scale.
        assert!(sup.host_cycles(bytes(0.5)) < lin.host_cycles(bytes(0.5)));
    }
}
