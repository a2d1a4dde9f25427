//! # accelerometer-fleet
//!
//! The workload-characterization datasets behind the Accelerometer
//! reproduction: calibrated profiles of the seven hyperscale
//! microservices the paper studies (§2), the taxonomies of Tables 2–3,
//! the platform matrix of Table 1, the IPC-scaling series of Figs. 8/10,
//! the granularity CDFs of Figs. 15/19/21/22, the Table 4 findings, and
//! the validated parameter sets of Tables 6–7.
//!
//! The production data is proprietary, so every dataset here is a
//! reconstruction: values are pinned by the quantitative statements the
//! paper makes in prose and tables, and free values are filled in
//! consistently. See `DESIGN.md` §2 for the substitution rationale.
//!
//! The data itself lives in one place, the committed
//! `configs/services/<slug>.json` files. They are compiled into this
//! crate and parsed once per process into the builtin
//! [`ServiceRegistry`]; `--services` hands a run a loaded one instead.
//! `configs/README.md` records the paper constraints behind each file,
//! and the unit tests check the data against them.
//!
//! ```
//! use accelerometer_fleet::{profile, ServiceId};
//! use accelerometer_fleet::categories::FunctionalityCategory;
//!
//! let web = profile(ServiceId::Web);
//! // §2.4: Web spends only 18% of cycles in core web-serving logic.
//! assert_eq!(web.core_percent(), 18.0);
//! assert_eq!(web.functionality.percent(FunctionalityCategory::Logging), 23.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod breakdown;
pub mod categories;
pub mod cdf;
pub mod findings;
pub mod ipc;
pub mod params;
pub mod platform;
pub mod reference;
pub mod registry;
pub mod services;

pub use breakdown::{Breakdown, BreakdownError};
pub use categories::{
    CLibOp, CopyOrigin, FunctionalityCategory, KernelOp, LeafCategory, MemoryOp, SyncPrimitive,
};
pub use findings::{Finding, FINDINGS};
pub use params::{
    all_case_studies, all_recommendations, CaseStudy, Recommendation, RecommendationConfig,
};
pub use platform::{CpuGeneration, CpuPlatform, ALL_PLATFORMS, GEN_A, GEN_B, GEN_C_18, GEN_C_20};
pub use registry::{
    current_registry, set_active_registry, FleetError, ServiceRegistry, ServiceSpec,
    SCHEMA_VERSION,
};
pub use services::{
    profile, ServiceDomain, ServiceId, ServiceProfile, ServiceRates,
};
