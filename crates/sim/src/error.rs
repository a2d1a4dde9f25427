//! Structured errors for simulator construction and runners.
//!
//! Degenerate configurations used to surface as panics deep inside the
//! engine (or worse, as NaN metrics in serialized JSON); every entry
//! point now validates up front and reports one of these instead.

use std::fmt;

/// Errors produced when building or running a simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A configuration value was outside its valid domain.
    InvalidConfig {
        /// Name of the offending field (e.g. `cores`, `horizon`).
        field: &'static str,
        /// The rejected value (integer fields are widened to `f64`).
        value: f64,
        /// Human-readable explanation of the violated constraint.
        reason: &'static str,
    },
    /// A case-study name did not match any Table 6 row.
    UnknownCaseStudy {
        /// The unrecognized name.
        name: String,
        /// The valid names, for the error message.
        valid: &'static [&'static str],
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig {
                field,
                value,
                reason,
            } => write!(f, "invalid simulation config: {field} = {value}: {reason}"),
            SimError::UnknownCaseStudy { name, valid } => {
                write!(
                    f,
                    "unknown case study '{name}' (valid: {})",
                    valid.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Convenient result alias for simulator operations.
pub type Result<T> = std::result::Result<T, SimError>;

pub(crate) fn ensure(
    condition: bool,
    field: &'static str,
    value: f64,
    reason: &'static str,
) -> Result<()> {
    if condition {
        Ok(())
    } else {
        Err(SimError::InvalidConfig {
            field,
            value,
            reason,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field_and_reason() {
        let err = SimError::InvalidConfig {
            field: "horizon",
            value: 0.0,
            reason: "horizon must be positive",
        };
        let msg = err.to_string();
        assert!(msg.contains("horizon"));
        assert!(msg.contains("must be positive"));
    }

    #[test]
    fn display_lists_valid_case_studies() {
        let err = SimError::UnknownCaseStudy {
            name: "bogus".to_owned(),
            valid: &["aes-ni", "encryption"],
        };
        let msg = err.to_string();
        assert!(msg.contains("bogus"));
        assert!(msg.contains("aes-ni, encryption"));
    }

    #[test]
    fn ensure_accepts_and_rejects() {
        assert!(ensure(true, "x", 1.0, "ok").is_ok());
        assert!(ensure(false, "x", 2.0, "bad").is_err());
    }
}
