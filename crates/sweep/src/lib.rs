//! `qce-sweep` — the declarative sweep orchestrator.
//!
//! The paper's core result is a *trade-off surface* — extraction quality
//! vs. task accuracy vs. bit width vs. correlation pressure — but a
//! single scenario probes one point of it. This crate turns a committed
//! JSON **grid spec** (explicit axis lists, cross-product expansion)
//! into hundreds of [`FlowMachine`](qce::FlowMachine) flows, runs them
//! on a fixed worker pool, and folds the per-cell results into a
//! [`SweepReport`]
//! with a Pareto frontier over (accuracy, MAPE, recovered images, bit
//! width).
//!
//! Three properties make sweeps practical at grid scale:
//!
//! * **Incremental.** Every cell runs through the
//!   [`StageCache`](qce_store::StageCache): stage checkpoints are shared
//!   between cells that agree on a prefix (e.g. fault variants of one
//!   trained model), finished cells are memoized whole under their
//!   content-addressed cell key, and a re-run after editing one axis
//!   value recomputes only the new cells.
//! * **Resumable.** Killing a run between cells loses at most the cells
//!   in flight; a re-run replays finished cells from the cache and
//!   produces a byte-identical merged report.
//! * **Shardable.** `--shard i/n` partitions cells by
//!   `cell_key % n` — a pure function of cell *content*, not position —
//!   so shards can run in separate processes (or on separate machines
//!   sharing nothing but the grid spec) and their partial files merge
//!   deterministically into the same report a single process produces.
//!
//! See `DESIGN.md` §5k for the grid-spec schema, the shard/merge
//! protocol and the Pareto rules, and `OPERATIONS.md` for a
//! multi-process walkthrough.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod executor;
mod grid;
mod report;

pub use executor::{run_cells, CellRun, ExecOptions};
pub use grid::{parse_grid, Cell, Grid, AXIS_NAMES, MAX_CELLS_CEILING, MAX_CELLS_DEFAULT};
pub use report::{
    merge_partials, partial_json, CellMetrics, CellResult, SweepReport, PARTIAL_FORMAT,
    REPORT_FORMAT,
};

/// A sweep failure: spec problems, flow failures, or I/O.
#[derive(Debug)]
pub enum SweepError {
    /// The grid spec (or a partial/report document) is malformed.
    Spec(String),
    /// A cell's flow failed while executing.
    Flow(String),
    /// Filesystem trouble reading or writing sweep documents.
    Io(String),
}

impl SweepError {
    /// Shorthand for a [`SweepError::Spec`].
    pub fn spec(message: impl Into<String>) -> Self {
        SweepError::Spec(message.into())
    }

    /// Shorthand for a [`SweepError::Io`] with path context.
    pub fn io(context: impl Into<String>, e: std::io::Error) -> Self {
        SweepError::Io(format!("{}: {e}", context.into()))
    }
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Spec(m) => write!(f, "spec error: {m}"),
            SweepError::Flow(m) => write!(f, "flow error: {m}"),
            SweepError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<qce_harness::HarnessError> for SweepError {
    fn from(e: qce_harness::HarnessError) -> Self {
        SweepError::Spec(e.to_string())
    }
}

impl From<qce::FlowError> for SweepError {
    fn from(e: qce::FlowError) -> Self {
        SweepError::Flow(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SweepError>;
