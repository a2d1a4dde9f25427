//! Error types for model construction and evaluation.

use std::fmt;

/// Errors produced when building or evaluating an Accelerometer model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A model parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter (paper notation, e.g. `alpha`).
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable explanation of the constraint that was violated.
        reason: &'static str,
    },
    /// A granularity distribution was constructed from no data points.
    EmptyDistribution,
    /// A granularity distribution was not monotonically non-decreasing.
    NonMonotonicCdf {
        /// Index of the first offending breakpoint.
        index: usize,
    },
    /// A configuration file could not be parsed.
    Config(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidParameter {
                name,
                value,
                reason,
            } => {
                write!(f, "invalid parameter {name} = {value}: {reason}")
            }
            ModelError::EmptyDistribution => {
                write!(f, "granularity distribution has no data points")
            }
            ModelError::NonMonotonicCdf { index } => {
                write!(
                    f,
                    "cdf is not monotonically non-decreasing at breakpoint {index}"
                )
            }
            ModelError::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Convenient result alias for model operations.
pub type Result<T> = std::result::Result<T, ModelError>;

pub(crate) fn ensure(
    condition: bool,
    name: &'static str,
    value: f64,
    reason: &'static str,
) -> Result<()> {
    if condition {
        Ok(())
    } else {
        Err(ModelError::InvalidParameter {
            name,
            value,
            reason,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let err = ModelError::InvalidParameter {
            name: "alpha",
            value: 1.5,
            reason: "must satisfy 0 < alpha <= 1",
        };
        let msg = err.to_string();
        assert!(msg.contains("alpha"));
        assert!(msg.contains("1.5"));

        assert!(ModelError::EmptyDistribution
            .to_string()
            .contains("no data"));
        assert!(ModelError::NonMonotonicCdf { index: 3 }
            .to_string()
            .contains('3'));
        assert!(ModelError::Config("bad json".into())
            .to_string()
            .contains("bad json"));
    }

    #[test]
    fn ensure_accepts_and_rejects() {
        assert!(ensure(true, "x", 0.0, "ok").is_ok());
        let err = ensure(false, "x", 2.0, "must be small").unwrap_err();
        assert_eq!(
            err,
            ModelError::InvalidParameter {
                name: "x",
                value: 2.0,
                reason: "must be small"
            }
        );
    }

    #[test]
    fn error_is_std_error() {
        fn takes_error<E: std::error::Error + Send + Sync>(_e: E) {}
        takes_error(ModelError::EmptyDistribution);
    }
}
