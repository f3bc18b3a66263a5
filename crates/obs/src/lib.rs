//! Trace profiling for the qce workspace: turns raw `QCE_TRACE` JSONL
//! streams into actionable profiles.
//!
//! The analysis layers, bottom to top:
//!
//! - [`trace`] — parses a JSONL stream into a [`Trace`]: the span
//!   forest (parent links from the per-thread span stacks), log and
//!   manifest events, and per-span timing.
//! - [`mod@validate`] — a strict schema/structure validator (the promoted
//!   successor of the old `trace_check` example): per-event required
//!   fields plus dangling parent ids, non-monotonic `seq`/`t_us`, and
//!   spans that never close. A `partial` mode accepts the analyzable
//!   prefix an aborted run leaves behind.
//! - [`mod@profile`] — per-label aggregation (count, total, **self-time**
//!   with child intervals clamped to the parent, exact p50/p90/p99)
//!   and critical-path extraction.
//! - [`diff`] — pairs two traces label-by-label and ranks the deltas,
//!   naming the specific span whose duration moved; `obs diff`
//!   prints it for two runs' traces.
//! - [`flame`] — folded stacks and a hand-rolled flame-chart SVG
//!   (x = start time, width = duration, row = depth).
//!
//! Everything is std-only on top of `qce_telemetry::json`, matching the
//! workspace's zero-dependency rule. The `obs` binary fronts the same
//! code as a CLI (`obs check|profile|critical|flame|diff`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod diff;
pub mod flame;
pub mod profile;
pub mod trace;
pub mod validate;

pub use diff::{attribution_report, diff_traces, DeltaStatus, LabelDelta};
pub use flame::{flamegraph_svg, folded_stacks};
pub use profile::{critical_path, profile, CriticalPathEntry, LabelProfile};
pub use trace::{SpanRec, Trace};
pub use validate::{validate, ValidateOptions, ValidationSummary};

/// Errors surfaced by trace loading, validation, and analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsError {
    /// I/O failure reading a trace (path, message).
    Io(String, String),
    /// The trace body failed to parse or is structurally invalid.
    Invalid(String),
}

impl std::fmt::Display for ObsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsError::Io(path, e) => write!(f, "{path}: {e}"),
            ObsError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ObsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ObsError>;
