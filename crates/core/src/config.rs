//! Parameter-file support matching the paper's artifact workflow
//! (Appendix A.5): "(a) identify model parameters for the accelerator
//! under test, (b) input these model parameters into a configuration
//! file, and (c) run the Accelerometer model."
//!
//! Configuration files are JSON. A file holds one or more named scenarios
//! using the paper's parameter notation (`C`, `alpha`, `n`, `o0`, `L`,
//! `Q`, `o1`, `A`) plus the threading design and strategy:
//!
//! ```json
//! {
//!   "scenarios": [
//!     {
//!       "name": "aes-ni-cache1",
//!       "c": 2.0e9, "alpha": 0.165844, "n": 298951,
//!       "o0": 10, "l": 3, "q": 0, "o1": 0, "a": 6,
//!       "design": "sync", "strategy": "on-chip"
//!     }
//!   ]
//! }
//! ```

use serde::{Deserialize, Serialize};

use crate::error::{ensure, ModelError, Result};
use crate::model::{DriverMode, Scenario};
use crate::params::ModelParams;
use crate::strategy::AccelerationStrategy;
use crate::threading::ThreadingDesign;

/// One scenario in a configuration file, using Table 5 notation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Human-readable scenario name.
    pub name: String,
    /// `C`: host cycles per accounting window.
    pub c: f64,
    /// `α`: kernel fraction of host cycles.
    pub alpha: f64,
    /// `n`: lucrative offloads per window.
    pub n: f64,
    /// `o0`: setup cycles per offload.
    #[serde(default)]
    pub o0: f64,
    /// `L`: interface cycles per offload.
    #[serde(default)]
    pub l: f64,
    /// `Q`: mean queueing cycles per offload.
    #[serde(default)]
    pub q: f64,
    /// `o1`: thread-switch cycles.
    #[serde(default)]
    pub o1: f64,
    /// `A`: peak accelerator speedup.
    pub a: f64,
    /// Threading design.
    pub design: ThreadingDesign,
    /// Acceleration strategy.
    pub strategy: AccelerationStrategy,
    /// Optional driver-mode override (defaults from the strategy).
    #[serde(default)]
    pub driver: Option<DriverMode>,
}

impl ScenarioConfig {
    /// Converts the configuration into an evaluable [`Scenario`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if any parameter is
    /// outside its domain. `A` must also be finite here: JSON cannot
    /// spell ∞, so an infinite `a` can only be an overflowing literal
    /// such as `1e400`. The ideal accelerator (`A = ∞`) stays available
    /// through [`ModelParams::builder`].
    pub fn to_scenario(&self) -> Result<Scenario> {
        ensure(
            self.a.is_finite(),
            "A",
            self.a,
            "peak speedup in a params file must be finite (a literal like 1e400 overflows to infinity)",
        )?;
        let params = ModelParams::builder()
            .host_cycles(self.c)
            .kernel_fraction(self.alpha)
            .offloads(self.n)
            .setup_cycles(self.o0)
            .interface_cycles(self.l)
            .queueing_cycles(self.q)
            .thread_switch_cycles(self.o1)
            .peak_speedup(self.a)
            .build()?;
        let mut scenario = Scenario::new(params, self.design, self.strategy);
        if let Some(driver) = self.driver {
            scenario = scenario.with_driver(driver);
        }
        Ok(scenario)
    }
}

/// A configuration file: a set of named scenarios.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigFile {
    /// The scenarios to evaluate.
    pub scenarios: Vec<ScenarioConfig>,
}

impl ConfigFile {
    /// Parses a configuration from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] on malformed JSON.
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| ModelError::Config(e.to_string()))
    }

    /// Converts every entry into an evaluable scenario, pairing each with
    /// its name.
    ///
    /// # Errors
    ///
    /// Returns the first parameter error encountered.
    pub fn to_scenarios(&self) -> Result<Vec<(String, Scenario)>> {
        self.scenarios
            .iter()
            .map(|c| Ok((c.name.clone(), c.to_scenario()?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AES_JSON: &str = r#"{
        "scenarios": [{
            "name": "aes-ni-cache1",
            "c": 2.0e9, "alpha": 0.165844, "n": 298951,
            "o0": 10, "l": 3, "a": 6,
            "design": "sync", "strategy": "on-chip"
        }]
    }"#;

    #[test]
    fn parses_artifact_style_config() {
        let cfg = ConfigFile::from_json(AES_JSON).unwrap();
        assert_eq!(cfg.scenarios.len(), 1);
        let sc = &cfg.scenarios[0];
        assert_eq!(sc.name, "aes-ni-cache1");
        // Omitted overheads default to zero.
        assert_eq!(sc.q, 0.0);
        assert_eq!(sc.o1, 0.0);
        let (name, scenario) = cfg.to_scenarios().unwrap().remove(0);
        assert_eq!(name, "aes-ni-cache1");
        let est = scenario.estimate();
        assert!((est.throughput_gain_percent() - 15.7).abs() < 0.1);
    }

    #[test]
    fn rejects_malformed_json() {
        let err = ConfigFile::from_json("{not json").unwrap_err();
        assert!(matches!(err, ModelError::Config(_)));
    }

    #[test]
    fn rejects_invalid_parameters_at_conversion() {
        let cfg = ConfigFile::from_json(
            r#"{"scenarios": [{"name": "bad", "c": 1e9, "alpha": 2.0, "n": 1,
                "a": 6, "design": "sync", "strategy": "on-chip"}]}"#,
        )
        .unwrap();
        assert!(cfg.to_scenarios().is_err());
    }

    #[test]
    fn an_overflowing_peak_speedup_is_rejected() {
        // `1e400` parses to infinity; the file cannot mean the ideal
        // accelerator, which only the builder can express.
        let cfg = ConfigFile::from_json(
            r#"{"scenarios": [{"name": "aes", "c": 2e9, "alpha": 0.165844, "n": 298951,
                "o0": 10, "l": 3, "a": 1e400, "design": "sync", "strategy": "on-chip"}]}"#,
        )
        .unwrap();
        assert_eq!(cfg.scenarios[0].a, f64::INFINITY);
        let err = cfg.to_scenarios().unwrap_err();
        assert!(
            matches!(err, ModelError::InvalidParameter { name: "A", .. }),
            "{err}"
        );
        // `n = 1e300` is finite and inside the model's domain.
        let mut huge_n = cfg.scenarios[0].clone();
        huge_n.a = 6.0;
        huge_n.n = 1e300;
        assert!(huge_n.to_scenario().is_ok());
    }

    #[test]
    fn json_round_trip() {
        let cfg = ConfigFile::from_json(AES_JSON).unwrap();
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        let back = ConfigFile::from_json(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn driver_override_is_honored() {
        let cfg = ConfigFile::from_json(
            r#"{"scenarios": [{"name": "x", "c": 1e9, "alpha": 0.2, "n": 100,
                "l": 500, "o1": 100, "a": 10,
                "design": "sync-os", "strategy": "off-chip",
                "driver": "posted"}]}"#,
        )
        .unwrap();
        let scenario = cfg.scenarios[0].to_scenario().unwrap();
        assert_eq!(scenario.driver, DriverMode::Posted);
    }
}
