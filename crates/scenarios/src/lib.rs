//! Scenario registry and batch verification runner.
//!
//! The paper's contribution is a *pipeline* — simulate, falsify, synthesize
//! a barrier candidate, δ-SAT-check it — and this crate turns the problems
//! that pipeline runs on into **data**: a [`Scenario`] names a plant (with
//! its neural controller), a safety specification, a pipeline
//! configuration, and the expected verdict.  A [`Registry`] is an ordered
//! collection of scenarios, either the [built-in set](Registry::builtin)
//! (the Dubins, pendulum, and train case studies plus parameterized
//! variants) or loaded from a TOML manifest ([`Registry::from_toml_file`]).
//!
//! [`run_batch`] executes the full falsify→verify pipeline over a registry
//! — fanning scenarios out over the workspace's thread-parallel layer —
//! and produces a [`BatchReport`]: per-scenario verdict, certificate
//! fingerprint, counterexample witnesses, δ-SAT box counts, and wall
//! times, serialized as deterministic JSON.  CI diffs that report against
//! the checked-in `SCENARIOS_expected.json` baseline and fails on any
//! verdict or witness drift (see `ci.sh`'s scenario-regression stage and
//! the `nncps-batch` binary).
//!
//! # Examples
//!
//! ```
//! use nncps_scenarios::{run_batch, BatchOptions, Registry};
//!
//! // Run a slice of the built-in registry and serialize the report.
//! let registry = Registry::builtin().filtered("canary");
//! let report = run_batch(&registry, &BatchOptions::default());
//! assert!(report.all_match_expected());
//! let json = report.to_json(true);
//! assert!(json.contains("\"linear-unstable-canary\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod family;
pub mod json;
pub mod registry;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod serve;
pub mod toml;

pub use family::{AxisParam, ExpectedCounts, Family, ParamAxis};
pub use json::{Json, JsonError};
#[doc(hidden)]
pub use registry::SMOKE_MANIFEST;
pub use registry::{builtin_families, families_from_toml_str, Registry};
pub use report::{BatchReport, CrashedMember, FamilyRollup, RunStats, ScenarioResult};
pub use runner::{run_batch, run_scenario, run_sweep, BatchOptions, SweepCache, SweepOptions};
pub use scenario::{
    pd_controller, pendulum_controller, ExpectedVerdict, ManifestError, PlantSpec, Scenario,
};
pub use serve::{Directive, ServeEngine, ServeOptions, PROTOCOL_VERSION};
