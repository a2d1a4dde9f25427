//! Cycle breakdowns: the stacked-bar datatype behind Figs. 1–7 and 9.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Errors constructing a breakdown.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BreakdownError {
    /// A percentage was negative or non-finite.
    InvalidPercent {
        /// The offending value.
        value: f64,
    },
    /// The same category appeared twice.
    DuplicateCategory,
    /// A complete breakdown's percentages did not sum to 100 (±0.5).
    BadTotal {
        /// The actual sum.
        total: f64,
    },
}

impl fmt::Display for BreakdownError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakdownError::InvalidPercent { value } => {
                write!(f, "invalid percentage {value}")
            }
            BreakdownError::DuplicateCategory => write!(f, "duplicate category in breakdown"),
            BreakdownError::BadTotal { total } => {
                write!(f, "complete breakdown sums to {total}, expected 100")
            }
        }
    }
}

impl std::error::Error for BreakdownError {}

/// A percentage breakdown of CPU cycles across categories of type `C`.
///
/// `Breakdown` is the datatype behind every stacked bar in the paper:
/// a list of `(category, percent)` entries. A *complete* breakdown sums
/// to 100%; a *partial* one (e.g. Google's memory row, where only copy
/// and allocation were reported) may sum to less.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Breakdown<C> {
    entries: Vec<(C, f64)>,
    complete: bool,
}

impl<C: Copy + PartialEq> Breakdown<C> {
    /// Builds a complete breakdown; percentages must sum to 100 (±0.5,
    /// matching the rounding in the paper's figures).
    ///
    /// # Errors
    ///
    /// Returns a [`BreakdownError`] for negative/non-finite percentages,
    /// duplicate categories, or a total that is not ≈100.
    pub fn complete(entries: Vec<(C, f64)>) -> Result<Self, BreakdownError> {
        let b = Self::validate(entries, true)?;
        Ok(b)
    }

    /// Builds a partial breakdown (total ≤ 100).
    ///
    /// # Errors
    ///
    /// Returns a [`BreakdownError`] for invalid percentages, duplicates,
    /// or a total above 100.5.
    pub fn partial(entries: Vec<(C, f64)>) -> Result<Self, BreakdownError> {
        Self::validate(entries, false)
    }

    fn validate(entries: Vec<(C, f64)>, complete: bool) -> Result<Self, BreakdownError> {
        let mut total = 0.0;
        for (i, (cat, pct)) in entries.iter().enumerate() {
            if !pct.is_finite() || *pct < 0.0 {
                return Err(BreakdownError::InvalidPercent { value: *pct });
            }
            if entries[..i].iter().any(|(c, _)| c == cat) {
                return Err(BreakdownError::DuplicateCategory);
            }
            total += pct;
        }
        if complete && (total - 100.0).abs() > 0.5 {
            return Err(BreakdownError::BadTotal { total });
        }
        if !complete && total > 100.5 {
            return Err(BreakdownError::BadTotal { total });
        }
        Ok(Self { entries, complete })
    }

    /// The percentage for a category (0 if absent).
    #[must_use]
    pub fn percent(&self, category: C) -> f64 {
        self.entries
            .iter()
            .find(|(c, _)| *c == category)
            .map_or(0.0, |(_, p)| *p)
    }

    /// The fraction (0–1) for a category.
    #[must_use]
    pub fn fraction(&self, category: C) -> f64 {
        self.percent(category) / 100.0
    }

    /// Sum of all entries' percentages.
    #[must_use]
    pub fn total_percent(&self) -> f64 {
        self.entries.iter().map(|(_, p)| p).sum()
    }

    /// Whether this breakdown covers all cycles (sums to 100).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Iterates `(category, percent)` entries in presentation order.
    pub fn iter(&self) -> impl Iterator<Item = (C, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Sums the percentages of categories matching a predicate — e.g. the
    /// Fig. 1 "core" share via `FunctionalityCategory::is_core`. Folds
    /// from `+0.0`: an empty `f64` sum is `-0.0`, which prints as `-0.0%`.
    #[must_use]
    pub fn percent_where(&self, mut pred: impl FnMut(C) -> bool) -> f64 {
        self.entries
            .iter()
            .filter(|(c, _)| pred(*c))
            .fold(0.0, |sum, (_, p)| sum + p)
    }
}

impl<C: Copy + PartialEq + fmt::Display> fmt::Display for Breakdown<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (c, p)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}: {p:.1}%")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categories::FunctionalityCategory as F;

    fn web_like() -> Breakdown<F> {
        Breakdown::complete(vec![
            (F::SecureInsecureIo, 15.0),
            (F::IoPrePostProcessing, 10.0),
            (F::Compression, 9.0),
            (F::Serialization, 7.0),
            (F::ApplicationLogic, 18.0),
            (F::Logging, 23.0),
            (F::ThreadPoolManagement, 4.0),
            (F::Miscellaneous, 14.0),
        ])
        .unwrap()
    }

    #[test]
    fn complete_breakdown_sums_to_100() {
        let b = web_like();
        assert!((b.total_percent() - 100.0).abs() < 1e-9);
        assert!(b.is_complete());
    }

    #[test]
    fn rejects_bad_totals_and_values() {
        assert!(matches!(
            Breakdown::complete(vec![(F::Logging, 50.0)]),
            Err(BreakdownError::BadTotal { .. })
        ));
        assert!(matches!(
            Breakdown::complete(vec![(F::Logging, -1.0), (F::Compression, 101.0)]),
            Err(BreakdownError::InvalidPercent { .. })
        ));
        assert!(matches!(
            Breakdown::complete(vec![(F::Logging, 50.0), (F::Logging, 50.0)]),
            Err(BreakdownError::DuplicateCategory)
        ));
        assert!(matches!(
            Breakdown::partial(vec![(F::Logging, 150.0)]),
            Err(BreakdownError::BadTotal { .. })
        ));
    }

    #[test]
    fn partial_breakdowns_allowed_below_100() {
        let b = Breakdown::partial(vec![(F::Compression, 4.0), (F::Serialization, 5.0)]).unwrap();
        assert!(!b.is_complete());
        assert_eq!(b.total_percent(), 9.0);
    }

    #[test]
    fn percent_and_fraction_lookup() {
        let b = web_like();
        assert_eq!(b.percent(F::Logging), 23.0);
        assert_eq!(b.fraction(F::ApplicationLogic), 0.18);
        // Absent category reads as zero.
        assert_eq!(b.percent(F::PredictionRanking), 0.0);
    }

    #[test]
    fn core_share_via_predicate() {
        let core = web_like().percent_where(F::is_core);
        assert_eq!(core, 18.0); // Web's core web-serving logic (§2.4).
        let none = web_like().percent_where(|_| false);
        assert!(none == 0.0 && none.is_sign_positive(), "{none}");
    }

    #[test]
    fn display_is_readable() {
        let s = web_like().to_string();
        assert!(s.contains("Logging: 23.0%"));
    }

    #[test]
    fn error_display() {
        assert!(BreakdownError::BadTotal { total: 99.0 }.to_string().contains("99"));
        assert!(BreakdownError::InvalidPercent { value: -1.0 }
            .to_string()
            .contains("-1"));
        assert!(BreakdownError::DuplicateCategory.to_string().contains("duplicate"));
    }
}
