//! Data-driven service profiles: the serde schema, the JSON loader, the
//! embedded builtin registry, and the process default registry.
//!
//! A [`ServiceSpec`] packages everything the runners know about one
//! service — the characterization profile (breakdowns, rates, platform),
//! the Fig. 21/22 granularity CDFs, the Fig. 8/10 IPC tables, and any
//! Table 6 case studies or Fig. 20 recommendations the service anchors —
//! as pure data. The committed `configs/services/<slug>.json` files are
//! the only copy of that data: they are compiled into the crate and
//! parsed and validated once per process into the builtin registry.
//!
//! [`ServiceRegistry::load_path`] parses and *re-validates* JSON specs
//! (serde derives bypass the types' invariants, so every breakdown, CDF,
//! IPC value, and rate is checked again on load), returning a structured
//! [`FleetError`] instead of panicking on malformed data. A run reads
//! its service data from the registry it is handed (`accelctl` loads
//! `--services` data into its run context). [`current_registry`] is only
//! the process default that a run context starts from: the builtin
//! registry unless [`set_active_registry`] installed another.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, LazyLock, PoisonError, RwLock};

use accelerometer::{GranularityCdf, ModelError};
use serde::{Deserialize, Serialize};

use crate::breakdown::Breakdown;
use crate::categories::{FunctionalityCategory, LeafCategory};
use crate::ipc::IpcScaling;
use crate::params::{CaseStudy, Recommendation};
use crate::services::{ServiceId, ServiceProfile};

/// The JSON schema version this build reads and writes.
pub const SCHEMA_VERSION: u32 = 1;

/// Structured errors for loading and validating service-profile data.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FleetError {
    /// A file or directory could not be read or written.
    Io {
        /// The offending path.
        path: String,
        /// The underlying I/O error message.
        message: String,
    },
    /// A file was not valid JSON for the [`ServiceSpec`] schema.
    Parse {
        /// The offending path.
        path: String,
        /// The parser's error message.
        message: String,
    },
    /// The spec declares a schema version this build does not read.
    UnsupportedSchema {
        /// The version found in the file.
        found: u32,
    },
    /// A file's stem does not match the `id` of the profile it holds.
    FilenameMismatch {
        /// The offending path.
        path: String,
        /// The slug the file name must use.
        expected: String,
    },
    /// The same service was loaded twice.
    DuplicateService {
        /// The service loaded more than once.
        service: ServiceId,
    },
    /// A directory passed to the loader holds no `.json` files.
    EmptyDir {
        /// The offending path.
        path: String,
    },
    /// A breakdown does not sum to ~100% (or claims an incomplete sum).
    BreakdownTotal {
        /// The service whose spec is malformed.
        service: ServiceId,
        /// Which breakdown field failed.
        field: &'static str,
        /// The sum that was found.
        total: f64,
    },
    /// A breakdown lists no entries at all.
    EmptyBreakdown {
        /// The service whose spec is malformed.
        service: ServiceId,
        /// Which breakdown field is empty.
        field: &'static str,
    },
    /// A breakdown entry is invalid (non-finite/non-positive percent or
    /// a duplicated category).
    BreakdownEntry {
        /// The service whose spec is malformed.
        service: ServiceId,
        /// Which breakdown field failed.
        field: &'static str,
        /// The constructor's rejection reason.
        reason: String,
    },
    /// A granularity CDF has no points.
    EmptyCdf {
        /// The service whose spec is malformed.
        service: ServiceId,
        /// Which CDF field failed.
        field: &'static str,
    },
    /// A granularity CDF is non-monotone (byte bounds not strictly
    /// increasing, fractions decreasing or outside `[0, 1]`, or a final
    /// fraction that is not 1).
    NonMonotoneCdf {
        /// The service whose spec is malformed.
        service: ServiceId,
        /// Which CDF field failed.
        field: &'static str,
        /// The first offending knot index.
        index: usize,
    },
    /// An IPC value is not strictly positive and finite.
    NegativeIpc {
        /// The service whose spec is malformed.
        service: ServiceId,
        /// The category carrying the bad value.
        category: String,
        /// The value found.
        value: f64,
    },
    /// A rate is negative, non-finite, or a zero host-cycle budget.
    NegativeRate {
        /// The service whose spec is malformed.
        service: ServiceId,
        /// Which rate field failed.
        field: &'static str,
        /// The value found.
        value: f64,
    },
    /// A model parameter embedded in a case study or recommendation is
    /// out of its valid range.
    InvalidModelParam {
        /// The service whose spec is malformed.
        service: ServiceId,
        /// Which parameter failed.
        field: &'static str,
        /// The value found.
        value: f64,
    },
    /// An embedded case study or recommendation names a different
    /// service than the spec it rides in.
    ForeignEntry {
        /// The service whose spec is malformed.
        service: ServiceId,
        /// The entry kind ("case study" or "recommendation").
        field: &'static str,
        /// The service the entry claims.
        found: ServiceId,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Io { path, message } => write!(f, "cannot access {path}: {message}"),
            FleetError::Parse { path, message } => {
                write!(f, "invalid service spec {path}: {message}")
            }
            FleetError::UnsupportedSchema { found } => write!(
                f,
                "unsupported service-spec schema version {found} (this build reads {SCHEMA_VERSION})"
            ),
            FleetError::FilenameMismatch { path, expected } => write!(
                f,
                "service spec {path} must be named {expected}.json to match its profile id"
            ),
            FleetError::DuplicateService { service } => {
                write!(f, "service {service} loaded more than once")
            }
            FleetError::EmptyDir { path } => {
                write!(f, "service directory {path} holds no .json files")
            }
            FleetError::BreakdownTotal { service, field, total } => write!(
                f,
                "{service}: {field} breakdown must sum to ~100%, got {}%",
                short(*total)
            ),
            FleetError::EmptyBreakdown { service, field } => {
                write!(f, "{service}: {field} breakdown has no entries")
            }
            FleetError::BreakdownEntry { service, field, reason } => {
                write!(f, "{service}: {field} breakdown is invalid: {reason}")
            }
            FleetError::EmptyCdf { service, field } => {
                write!(f, "{service}: {field} granularity CDF has no points")
            }
            FleetError::NonMonotoneCdf { service, field, index } => write!(
                f,
                "{service}: {field} granularity CDF is non-monotone at knot {index}"
            ),
            FleetError::NegativeIpc { service, category, value } => write!(
                f,
                "{service}: IPC for {category} must be positive and finite, got {}",
                short(*value)
            ),
            FleetError::NegativeRate { service, field, value } => write!(
                f,
                "{service}: rate {field} must be non-negative and finite, got {}",
                short(*value)
            ),
            FleetError::InvalidModelParam { service, field, value } => write!(
                f,
                "{service}: model parameter {field} is out of range, got {}",
                short(*value)
            ),
            FleetError::ForeignEntry { service, field, found } => write!(
                f,
                "{service}: embedded {field} belongs to {found}, not to this spec"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// Per-service IPC-scaling tables (Figs. 8 and 10 for Cache1; empty for
/// services the paper does not cover).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IpcTable {
    /// Leaf-category IPC across the three CPU generations.
    #[serde(default)]
    pub leaves: Vec<(LeafCategory, IpcScaling)>,
    /// Functionality-category IPC across the three CPU generations.
    #[serde(default)]
    pub functionality: Vec<(FunctionalityCategory, IpcScaling)>,
}

/// One Table 6 case study riding in a service spec, with its global row
/// order (Table 6 row order spans services, so the position cannot be
/// derived from the service iteration order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseStudyEntry {
    /// Global Table 6 row index.
    pub order: u32,
    /// The case study itself.
    pub study: CaseStudy,
}

/// One Fig. 20 recommendation riding in a service spec, with its global
/// presentation order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendationEntry {
    /// Global Fig. 20 presentation index.
    pub order: u32,
    /// The recommendation itself.
    pub recommendation: Recommendation,
}

/// Everything the runners know about one service, as pure data: the
/// schema of one `configs/services/<slug>.json` file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSpec {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema: u32,
    /// The characterization profile (breakdowns, rates, platform).
    pub profile: ServiceProfile,
    /// Fig. 21: the memory-copy granularity CDF.
    pub copy_granularity: GranularityCdf,
    /// Fig. 22: the memory-allocation granularity CDF.
    pub allocation_granularity: GranularityCdf,
    /// Figs. 8/10: IPC-scaling tables, where the data exists.
    #[serde(default)]
    pub ipc: Option<IpcTable>,
    /// Table 6 case studies anchored on this service.
    #[serde(default)]
    pub case_studies: Vec<CaseStudyEntry>,
    /// Fig. 20 recommendations anchored on this service.
    #[serde(default)]
    pub recommendations: Vec<RecommendationEntry>,
}

/// A value as an error message prints it: two decimals, in scientific
/// notation past a million (a shortest round-trip `f64` can run to
/// hundreds of digits either way), and never a negative zero.
fn short(value: f64) -> String {
    // Adding +0.0 turns -0.0 into +0.0 and leaves every other value alone.
    let value = value + 0.0;
    if value.abs() < 1e6 {
        format!("{value:.2}")
    } else {
        format!("{value:.3e}")
    }
}

fn check_breakdown<C: Copy + PartialEq>(
    service: ServiceId,
    field: &'static str,
    b: &Breakdown<C>,
) -> Result<(), FleetError> {
    if b.iter().next().is_none() {
        return Err(FleetError::EmptyBreakdown { service, field });
    }
    if !b.is_complete() {
        return Err(FleetError::BreakdownTotal {
            service,
            field,
            total: b.total_percent(),
        });
    }
    // Re-run the constructor invariants the serde derive bypassed.
    Breakdown::complete(b.iter().collect()).map_err(|e| match e {
        crate::breakdown::BreakdownError::BadTotal { total } => {
            FleetError::BreakdownTotal { service, field, total }
        }
        other => FleetError::BreakdownEntry {
            service,
            field,
            reason: other.to_string(),
        },
    })?;
    Ok(())
}

fn check_cdf(
    service: ServiceId,
    field: &'static str,
    cdf: &GranularityCdf,
) -> Result<(), FleetError> {
    GranularityCdf::from_points(cdf.points().to_vec()).map_err(|e| match e {
        ModelError::EmptyDistribution => FleetError::EmptyCdf { service, field },
        ModelError::NonMonotonicCdf { index } => {
            FleetError::NonMonotoneCdf { service, field, index }
        }
        other => FleetError::Parse {
            path: format!("{service}/{field}"),
            message: other.to_string(),
        },
    })?;
    Ok(())
}

fn check_ipc_scaling(
    service: ServiceId,
    category: &dyn fmt::Display,
    scaling: IpcScaling,
) -> Result<(), FleetError> {
    for value in [scaling.gen_a, scaling.gen_b, scaling.gen_c] {
        if !(value.is_finite() && value > 0.0) {
            return Err(FleetError::NegativeIpc {
                service,
                category: category.to_string(),
                value,
            });
        }
    }
    Ok(())
}

fn check_rate(
    service: ServiceId,
    field: &'static str,
    value: f64,
) -> Result<(), FleetError> {
    if !(value.is_finite() && value >= 0.0) {
        return Err(FleetError::NegativeRate { service, field, value });
    }
    Ok(())
}

fn check_param(
    service: ServiceId,
    field: &'static str,
    value: f64,
    ok: bool,
) -> Result<(), FleetError> {
    if value.is_finite() && ok {
        Ok(())
    } else {
        Err(FleetError::InvalidModelParam { service, field, value })
    }
}

impl ServiceSpec {
    /// Re-validates everything the serde derives let through unchecked.
    ///
    /// # Errors
    ///
    /// One [`FleetError`] variant per rejection reason: breakdowns that
    /// do not sum to ~100% or carry invalid entries, empty or
    /// non-monotone granularity CDFs, non-positive IPC values, negative
    /// rates, out-of-range embedded model parameters, entries that name
    /// a different service, and unsupported schema versions.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.schema != SCHEMA_VERSION {
            return Err(FleetError::UnsupportedSchema { found: self.schema });
        }
        let id = self.profile.id;
        let p = &self.profile;
        check_breakdown(id, "functionality", &p.functionality)?;
        check_breakdown(id, "leaves", &p.leaves)?;
        check_breakdown(id, "memory_ops", &p.memory_ops)?;
        check_breakdown(id, "copy_origins", &p.copy_origins)?;
        check_breakdown(id, "kernel_ops", &p.kernel_ops)?;
        check_breakdown(id, "sync_ops", &p.sync_ops)?;
        check_breakdown(id, "clib_ops", &p.clib_ops)?;
        check_rate(id, "compressions_per_second", p.rates.compressions_per_second)?;
        check_rate(id, "copies_per_second", p.rates.copies_per_second)?;
        check_rate(id, "allocations_per_second", p.rates.allocations_per_second)?;
        check_rate(id, "encryptions_per_second", p.rates.encryptions_per_second)?;
        let cycles = p.rates.host_cycles_per_second;
        if !(cycles.is_finite() && cycles > 0.0) {
            return Err(FleetError::NegativeRate {
                service: id,
                field: "host_cycles_per_second",
                value: cycles,
            });
        }
        check_cdf(id, "copy_granularity", &self.copy_granularity)?;
        check_cdf(id, "allocation_granularity", &self.allocation_granularity)?;
        if let Some(table) = &self.ipc {
            for (category, scaling) in &table.leaves {
                check_ipc_scaling(id, category, *scaling)?;
            }
            for (category, scaling) in &table.functionality {
                check_ipc_scaling(id, category, *scaling)?;
            }
        }
        for entry in &self.case_studies {
            let study = &entry.study;
            if study.service != id {
                return Err(FleetError::ForeignEntry {
                    service: id,
                    field: "case study",
                    found: study.service,
                });
            }
            if let Some(g) = &study.granularity {
                check_cdf(id, "case_study.granularity", g)?;
            }
            let params = &study.scenario.params;
            check_param(id, "case_study.host_cycles", params.host_cycles().get(),
                params.host_cycles().get() > 0.0)?;
            let alpha = params.kernel_fraction();
            check_param(id, "case_study.kernel_fraction", alpha, alpha > 0.0 && alpha < 1.0)?;
            check_param(id, "case_study.offloads", params.offloads(), params.offloads() >= 0.0)?;
            check_param(id, "case_study.peak_speedup", params.peak_speedup(),
                params.peak_speedup() > 0.0)?;
            check_param(id, "case_study.cycles_per_byte", study.cycles_per_byte,
                study.cycles_per_byte > 0.0)?;
        }
        for entry in &self.recommendations {
            let rec = &entry.recommendation;
            if rec.service != id {
                return Err(FleetError::ForeignEntry {
                    service: id,
                    field: "recommendation",
                    found: rec.service,
                });
            }
            check_cdf(id, "recommendation.granularity", &rec.profile.granularity)?;
            let alpha = rec.profile.kernel_fraction;
            check_param(id, "recommendation.kernel_fraction", alpha, alpha > 0.0 && alpha < 1.0)?;
            check_param(id, "recommendation.total_offloads", rec.profile.total_offloads,
                rec.profile.total_offloads >= 0.0)?;
            for cfg in &rec.configs {
                check_param(id, "recommendation.peak_speedup", cfg.accelerator.peak_speedup,
                    cfg.accelerator.peak_speedup > 0.0)?;
            }
        }
        Ok(())
    }
}

/// The shipped `configs/services/<slug>.json` files, in
/// [`ServiceId::ALL`] order: the builtin service data.
const EMBEDDED: [&str; ServiceId::ALL.len()] = [
    include_str!("../../../configs/services/web.json"),
    include_str!("../../../configs/services/feed1.json"),
    include_str!("../../../configs/services/feed2.json"),
    include_str!("../../../configs/services/ads1.json"),
    include_str!("../../../configs/services/ads2.json"),
    include_str!("../../../configs/services/cache1.json"),
    include_str!("../../../configs/services/cache2.json"),
    include_str!("../../../configs/services/cache3.json"),
    include_str!("../../../configs/services/ai-inference.json"),
    include_str!("../../../configs/services/kvstore.json"),
    include_str!("../../../configs/services/pqc.json"),
];

/// The builtin registry: every embedded spec, parsed and validated on
/// first use.
static BUILTIN: LazyLock<Arc<ServiceRegistry>> = LazyLock::new(|| {
    let specs = ServiceId::ALL
        .into_iter()
        .zip(EMBEDDED)
        .map(|(id, text)| {
            let path = format!("configs/services/{}.json", id.slug());
            let spec = parse_spec(&path, text, Some(id.slug()))?;
            spec.validate()?;
            Ok(spec)
        })
        .collect::<Result<_, FleetError>>()
        .unwrap_or_else(|e| panic!("embedded service data is invalid: {e}"));
    Arc::new(ServiceRegistry {
        specs,
        loaded: Vec::new(),
    })
});

/// Parses one spec file's text, checking that the file stem (when
/// known) names the profile it holds.
fn parse_spec(path: &str, text: &str, stem: Option<&str>) -> Result<ServiceSpec, FleetError> {
    let spec: ServiceSpec = serde_json::from_str(text).map_err(|e| FleetError::Parse {
        path: path.to_owned(),
        message: e.to_string(),
    })?;
    if stem.is_some_and(|stem| stem != spec.profile.id.slug()) {
        return Err(FleetError::FilenameMismatch {
            path: path.to_owned(),
            expected: spec.profile.id.slug().to_owned(),
        });
    }
    Ok(spec)
}

/// A full set of service specs, keyed by [`ServiceId`], loadable from
/// JSON files.
#[derive(Debug, Clone)]
pub struct ServiceRegistry {
    /// Specs in [`ServiceId::ALL`] order.
    specs: Vec<ServiceSpec>,
    /// Services whose spec came from a loaded file (the rest are the
    /// embedded builtin specs).
    loaded: Vec<ServiceId>,
}

fn index_of(id: ServiceId) -> usize {
    ServiceId::ALL
        .iter()
        .position(|&s| s == id)
        .expect("every ServiceId appears in ALL")
}

impl ServiceRegistry {
    /// The registry holding every embedded builtin spec (no files
    /// loaded).
    #[must_use]
    pub fn builtin() -> Self {
        ServiceRegistry::clone(&BUILTIN)
    }

    /// The spec for a service.
    #[must_use]
    pub fn spec(&self, id: ServiceId) -> &ServiceSpec {
        &self.specs[index_of(id)]
    }

    /// The characterization profile for a service.
    #[must_use]
    pub fn profile(&self, id: ServiceId) -> ServiceProfile {
        self.spec(id).profile.clone()
    }

    /// Leaf-category IPC scaling for a service, where its spec has data.
    #[must_use]
    pub fn leaf_ipc(&self, id: ServiceId, category: LeafCategory) -> Option<IpcScaling> {
        self.spec(id)
            .ipc
            .as_ref()?
            .leaves
            .iter()
            .find(|(c, _)| *c == category)
            .map(|(_, s)| *s)
    }

    /// Functionality-category IPC scaling for a service, where its spec
    /// has data.
    #[must_use]
    pub fn functionality_ipc(
        &self,
        id: ServiceId,
        category: FunctionalityCategory,
    ) -> Option<IpcScaling> {
        self.spec(id)
            .ipc
            .as_ref()?
            .functionality
            .iter()
            .find(|(c, _)| *c == category)
            .map(|(_, s)| *s)
    }

    /// Every case study across all specs, in global (Table 6 row) order.
    #[must_use]
    pub fn case_studies(&self) -> Vec<CaseStudy> {
        let mut entries: Vec<&CaseStudyEntry> =
            self.specs.iter().flat_map(|s| &s.case_studies).collect();
        entries.sort_by_key(|e| e.order);
        entries.into_iter().map(|e| e.study.clone()).collect()
    }

    /// The Table 6 case study called `name` (`"aes-ni"`, `"encryption"`,
    /// `"inference"`), if any spec carries it.
    #[must_use]
    pub fn case_study(&self, name: &str) -> Option<CaseStudy> {
        self.case_studies().into_iter().find(|s| s.name == name)
    }

    /// The §5 recommendation called `name` (`"Feed1: Compression"`,
    /// `"Ads1: Memory copy"`, `"Cache1: Memory allocation"`), if any spec
    /// carries it.
    #[must_use]
    pub fn recommendation(&self, name: &str) -> Option<Recommendation> {
        self.recommendations().into_iter().find(|r| r.name == name)
    }

    /// Every recommendation across all specs, in global (Fig. 20) order.
    #[must_use]
    pub fn recommendations(&self) -> Vec<Recommendation> {
        let mut entries: Vec<&RecommendationEntry> =
            self.specs.iter().flat_map(|s| &s.recommendations).collect();
        entries.sort_by_key(|e| e.order);
        entries.into_iter().map(|e| e.recommendation.clone()).collect()
    }

    /// The services whose specs were loaded from files (the rest are the
    /// built-in fallback).
    #[must_use]
    pub fn loaded_services(&self) -> &[ServiceId] {
        &self.loaded
    }

    /// Validates and installs a spec, replacing that service's current
    /// one.
    ///
    /// # Errors
    ///
    /// Any [`ServiceSpec::validate`] rejection, or
    /// [`FleetError::DuplicateService`] when the service was already
    /// loaded from a file.
    pub fn install_spec(&mut self, spec: ServiceSpec) -> Result<ServiceId, FleetError> {
        spec.validate()?;
        let id = spec.profile.id;
        if self.loaded.contains(&id) {
            return Err(FleetError::DuplicateService { service: id });
        }
        self.specs[index_of(id)] = spec;
        self.loaded.push(id);
        Ok(id)
    }

    /// Loads one `<slug>.json` spec file into the registry.
    ///
    /// # Errors
    ///
    /// I/O and parse failures, a file stem that does not match the
    /// profile's id, and any [`ServiceSpec::validate`] rejection.
    pub fn load_file(&mut self, path: &Path) -> Result<ServiceId, FleetError> {
        let display = path.display().to_string();
        let text = fs::read_to_string(path).map_err(|e| FleetError::Io {
            path: display.clone(),
            message: e.to_string(),
        })?;
        let stem = path.file_stem().and_then(|s| s.to_str());
        self.install_spec(parse_spec(&display, &text, stem)?)
    }

    /// Builds a registry from a directory of `*.json` specs (loaded in
    /// file-name order) or from a single spec file. Services without a
    /// file keep their builtin spec.
    ///
    /// # Errors
    ///
    /// Everything [`ServiceRegistry::load_file`] rejects, plus
    /// [`FleetError::EmptyDir`] for a directory holding no `.json`
    /// files.
    pub fn load_path(path: &Path) -> Result<Self, FleetError> {
        let mut registry = Self::builtin();
        if path.is_dir() {
            let entries = fs::read_dir(path).map_err(|e| FleetError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
            let mut files: Vec<PathBuf> = entries
                .filter_map(std::result::Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
                .collect();
            files.sort();
            if files.is_empty() {
                return Err(FleetError::EmptyDir {
                    path: path.display().to_string(),
                });
            }
            for file in &files {
                registry.load_file(file)?;
            }
        } else {
            registry.load_file(path)?;
        }
        Ok(registry)
    }

    /// The builtin spec for a service as its canonical JSON file content
    /// (the embedded `configs/services/<slug>.json` bytes).
    #[must_use]
    pub fn export_json(id: ServiceId) -> &'static str {
        EMBEDDED[index_of(id)]
    }

    /// Writes every builtin spec to `<dir>/<slug>.json`, returning the
    /// paths written.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] when the directory cannot be created or a
    /// file cannot be written.
    pub fn export_dir(dir: &Path) -> Result<Vec<PathBuf>, FleetError> {
        fs::create_dir_all(dir).map_err(|e| FleetError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        let mut written = Vec::new();
        for id in ServiceId::ALL {
            let path = dir.join(format!("{}.json", id.slug()));
            fs::write(&path, Self::export_json(id)).map_err(|e| FleetError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
            written.push(path);
        }
        Ok(written)
    }
}

static ACTIVE: RwLock<Option<Arc<ServiceRegistry>>> = RwLock::new(None);

/// Installs (or, with `None`, clears) the process-wide default registry
/// that [`current_registry`] returns in place of the builtin one.
/// Returns the previously installed registry. Only the benchmark harness
/// still calls this; the next benchmark change deletes it.
pub fn set_active_registry(
    registry: Option<Arc<ServiceRegistry>>,
) -> Option<Arc<ServiceRegistry>> {
    let mut guard = ACTIVE.write().unwrap_or_else(PoisonError::into_inner);
    std::mem::replace(&mut *guard, registry)
}

/// The process default registry: the one [`set_active_registry`]
/// installed, otherwise the builtin one. Run contexts start from it;
/// runners read the registry they are handed instead.
#[must_use]
pub fn current_registry() -> Arc<ServiceRegistry> {
    let active = ACTIVE.read().unwrap_or_else(PoisonError::into_inner);
    active.clone().unwrap_or_else(|| Arc::clone(&BUILTIN))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_holds_every_embedded_spec() {
        let reg = ServiceRegistry::builtin();
        for id in ServiceId::ALL {
            assert_eq!(reg.spec(id).profile.id, id);
        }
        assert!(reg.loaded_services().is_empty());
        assert_eq!(reg.leaf_ipc(ServiceId::Web, LeafCategory::Memory), None);
    }

    #[test]
    fn case_study_order_is_table6_row_order() {
        let studies = ServiceRegistry::builtin().case_studies();
        let names: Vec<&str> = studies.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["aes-ni", "encryption", "inference"]);
    }
}
