//! Scenario-driven end-to-end conformance harness for the qce
//! reproduction.
//!
//! The paper's claims are quantitative — accuracy, MAPE, SSIM,
//! recognized-image counts under 2–6-bit quantization (Tables I, III,
//! IV) — and every prior layer of this workspace promises something
//! exact: bit-for-bit determinism at any thread count, resilient decode
//! counts, cache bit-identity. This crate turns those promises into one
//! executable contract:
//!
//! 1. A [`Scenario`] is a declarative spec (dataset synthesis
//!    parameters, flow configuration, quantizer bit width, optional
//!    fault plan) stored as JSON and resolved through the existing
//!    [`AttackFlow`](qce::AttackFlow).
//! 2. Running a scenario emits a [`ConformanceReport`]: per-stage
//!    metrics (accuracy, MAPE, SSIM, decode Ok/Degraded/Failed counts),
//!    deterministic telemetry counters, and the
//!    [`qce-store`](qce_store) content digests of the released state.
//! 3. `check` diffs a fresh report against a *golden* report committed
//!    as a CRC-guarded QCES artifact — exact for digests and counts,
//!    epsilon-banded for floats (see [`Tolerances`]) — and fails on any
//!    violation. `bless` regenerates the goldens; `bless` followed by
//!    `check` is a fixed point.
//! 4. `bench-gate` compares a fresh bench record (the benchmark's last
//!    line) against a committed `conformance/BENCH_*.json` baseline and
//!    fails on a regression of any baseline metric beyond the
//!    configured threshold (20% by default), or on one that is missing
//!    or not measured.
//!
//! The `harness` binary wires these into CI; see the README
//! "Conformance" section for the workflow and the tolerance table.
//!
//! # Example: bless and re-check in-process
//!
//! ```no_run
//! use qce_harness::{diff_reports, load_scenarios, run_scenario, Tolerances};
//!
//! # fn main() -> Result<(), qce_harness::HarnessError> {
//! let scenarios = load_scenarios(std::path::Path::new("conformance/scenarios"))?;
//! let scenario = &scenarios[0];
//! let golden = run_scenario(scenario)?;
//! let fresh = run_scenario(scenario)?;
//! let violations = diff_reports(&golden, &fresh, &Tolerances::for_scenario(scenario));
//! assert!(violations.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bench_gate;
mod diff;
mod leaderboard;
mod report;
mod runner;
mod scenario;

pub use bench_gate::{bench_gate, DEFAULT_BENCH_THRESHOLD};
pub use diff::{diff_reports, Gate, Tolerances, Violation};
pub use leaderboard::{leaderboard_markdown, report_from_json, DEFENSE_STAGE_PREFIX};
pub use report::{
    golden_path, ConformanceReport, StageMetrics, CONFORMANCE_REPORT_SECTION, REPORT_FORMAT_VERSION,
};
pub use runner::{run_scenario, DETERMINISTIC_COUNTER_PREFIXES, RECOVERY_MAPE_CEILING};
pub use scenario::{DatasetKind, DatasetSpec, Scenario};

use std::path::Path;

/// Error type of the conformance harness.
#[derive(Debug)]
#[non_exhaustive]
pub enum HarnessError {
    /// Reading or writing a scenario, report or golden file failed.
    Io {
        /// What the harness was doing when the I/O failed.
        context: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A scenario or bench JSON document is malformed or has
    /// out-of-range fields.
    Spec {
        /// Why the document is rejected.
        reason: String,
    },
    /// Running the attack flow for a scenario failed.
    Flow(qce::FlowError),
    /// Dataset synthesis for a scenario failed.
    Data(qce_data::DataError),
    /// Reading or writing a golden artifact failed structurally.
    Store(qce_store::StoreError),
    /// A golden exists but cannot be used by this build (newer container
    /// or report format version, or unreadable payload) — the caller
    /// must regenerate it with `harness bless`.
    Rebless {
        /// Which golden is unusable.
        scenario: String,
        /// Why it is unusable.
        reason: String,
    },
}

impl HarnessError {
    /// An [`HarnessError::Io`] with context on what was being attempted.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        HarnessError::Io {
            context: context.into(),
            source,
        }
    }

    /// An [`HarnessError::Spec`] from any printable reason.
    pub fn spec(reason: impl Into<String>) -> Self {
        HarnessError::Spec {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Io { context, source } => write!(f, "{context}: {source}"),
            HarnessError::Spec { reason } => write!(f, "invalid spec: {reason}"),
            HarnessError::Flow(e) => write!(f, "scenario flow failed: {e}"),
            HarnessError::Data(e) => write!(f, "scenario dataset failed: {e}"),
            HarnessError::Store(e) => write!(f, "golden artifact: {e}"),
            HarnessError::Rebless { scenario, reason } => write!(
                f,
                "golden for scenario {scenario:?} is unusable ({reason}); if the format \
                 change is intentional, regenerate goldens with `harness bless`"
            ),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Io { source, .. } => Some(source),
            HarnessError::Flow(e) => Some(e),
            HarnessError::Data(e) => Some(e),
            HarnessError::Store(e) => Some(e),
            HarnessError::Spec { .. } | HarnessError::Rebless { .. } => None,
        }
    }
}

impl From<qce::FlowError> for HarnessError {
    fn from(e: qce::FlowError) -> Self {
        HarnessError::Flow(e)
    }
}

impl From<qce_data::DataError> for HarnessError {
    fn from(e: qce_data::DataError) -> Self {
        HarnessError::Data(e)
    }
}

impl From<qce_store::StoreError> for HarnessError {
    fn from(e: qce_store::StoreError) -> Self {
        HarnessError::Store(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, HarnessError>;

/// Loads every `*.json` scenario under `dir`, sorted by file name so
/// runs are deterministic.
///
/// # Errors
///
/// [`HarnessError::Io`] when the directory is unreadable,
/// [`HarnessError::Spec`] when any scenario fails to parse.
pub fn load_scenarios(dir: &Path) -> Result<Vec<Scenario>> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| HarnessError::io(format!("reading scenario dir {}", dir.display()), e))?;
    let mut paths: Vec<_> = entries
        .filter_map(std::result::Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let body = std::fs::read_to_string(&path)
            .map_err(|e| HarnessError::io(format!("reading scenario {}", path.display()), e))?;
        let scenario = Scenario::from_json(&body)
            .map_err(|e| HarnessError::spec(format!("{}: {e}", path.display())))?;
        out.push(scenario);
    }
    Ok(out)
}
