//! `qce-serve` — a long-running local serving daemon for the attack flow.
//!
//! The binary accepts `qce-harness`-format [`Scenario`] JSON over a
//! hand-rolled HTTP/1.1 socket (no external dependencies, like the rest
//! of the workspace), runs the flows concurrently on a worker pool built
//! from the resumable [`FlowMachine`](qce::FlowMachine) stage steps, and
//! streams per-stage progress back to clients as NDJSON.
//!
//! Three properties make it a *multi-tenant* server rather than a batch
//! runner:
//!
//! * **Dedup.** Work is content-addressed: two tenants submitting the
//!   same scenario (same dataset fingerprint, flow config and seed)
//!   share one in-flight computation, and warm resubmits replay entirely
//!   from the [`StageCache`](qce_store::StageCache) checkpoints that
//!   every completed stage step writes.
//! * **Scheduling.** Jobs carry an integer priority and drain through a
//!   max-priority / FIFO-within-priority queue; any job can be cancelled
//!   between stage steps, leaving its cache checkpoints behind for a
//!   later resubmit to resume from.
//! * **Quotas.** Each tenant is capped at a configurable number of
//!   in-flight jobs; exceeding it yields a typed `quota_exhausted`
//!   error with HTTP 429.
//!
//! See `OPERATIONS.md` at the repository root for the wire protocol and
//! an operator's guide, and `DESIGN.md` §5j for the stage-step state
//! machine the workers drive. Serving latency is measured by the
//! benchmark's `serve_mix` workload, which drives this crate's
//! [`Server`] over HTTP and checks every served result; CI gates its
//! result line.
//!
//! [`Scenario`]: qce_harness::Scenario

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod http;
mod job;
pub mod queue;
mod scheduler;
mod server;

pub use job::JobState;
pub use scheduler::{Scheduler, SchedulerConfig};
pub use server::{Server, ServerConfig};

use std::sync::{LockResult, PoisonError};

use qce_telemetry::json::ObjWriter;

/// Environment variable naming the daemon's default listen address
/// (overridden by `--addr`).
pub const SERVE_ADDR_ENV: &str = "QCE_SERVE_ADDR";
/// Environment variable naming the default worker-thread count
/// (overridden by `--workers`).
pub const SERVE_WORKERS_ENV: &str = "QCE_SERVE_WORKERS";
/// Environment variable naming the default per-tenant in-flight job
/// quota, `0` meaning unlimited (overridden by `--quota`).
pub const SERVE_QUOTA_ENV: &str = "QCE_SERVE_QUOTA";

/// Machine-readable failure class, carried on the wire as
/// `error.kind` and mapped onto the HTTP status line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed request: unparsable HTTP, invalid scenario JSON, or a
    /// bad header value. HTTP 400.
    BadRequest,
    /// The referenced job (or route) does not exist. HTTP 404.
    NotFound,
    /// The tenant is at its in-flight job quota. HTTP 429.
    QuotaExhausted,
    /// The scenario uses a harness axis the server does not run
    /// (fault injection / defense tournaments). HTTP 400.
    UnsupportedAxis,
    /// The server is shutting down and no longer accepts work. HTTP 503.
    Shutdown,
    /// The flow itself failed while executing. HTTP 500.
    Flow,
    /// Socket-level failure talking to a peer. HTTP 500.
    Io,
}

impl ErrorKind {
    /// The stable wire name of this kind (`error.kind` in responses).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::NotFound => "not_found",
            ErrorKind::QuotaExhausted => "quota_exhausted",
            ErrorKind::UnsupportedAxis => "unsupported_axis",
            ErrorKind::Shutdown => "shutting_down",
            ErrorKind::Flow => "flow_error",
            ErrorKind::Io => "io_error",
        }
    }

    /// The HTTP status code this kind is reported with.
    #[must_use]
    pub fn status(self) -> u16 {
        match self {
            ErrorKind::BadRequest | ErrorKind::UnsupportedAxis => 400,
            ErrorKind::NotFound => 404,
            ErrorKind::QuotaExhausted => 429,
            ErrorKind::Shutdown => 503,
            ErrorKind::Flow | ErrorKind::Io => 500,
        }
    }
}

/// A typed serving error: every failure the daemon reports carries a
/// machine-readable [`ErrorKind`] plus a human-readable message.
#[derive(Debug, Clone)]
pub struct ServeError {
    /// Failure class (drives the HTTP status and `error.kind`).
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ServeError {
    /// A new error of `kind` with `message`.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ServeError {
            kind,
            message: message.into(),
        }
    }

    /// Shorthand for a [`ErrorKind::BadRequest`] error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ServeError::new(ErrorKind::BadRequest, message)
    }

    /// Shorthand for a [`ErrorKind::Io`] error.
    pub fn io(message: impl Into<String>) -> Self {
        ServeError::new(ErrorKind::Io, message)
    }

    /// Renders the canonical error body:
    /// `{"error":{"kind":"...","message":"..."}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut inner = ObjWriter::new();
        inner
            .str("kind", self.kind.as_str())
            .str("message", &self.message);
        let mut root = ObjWriter::new();
        root.raw("error", &inner.finish());
        root.finish()
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::io(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;

/// The guard of a `lock()`, `wait()` or `into_inner()`, poisoned or
/// not. A job panic is caught and reported as a failed job, so a panic
/// while a lock was held must not fail every later request on that
/// lock. The guarded state (job tables, queue heaps, a job's state and
/// events) is only changed by single statements, so a poisoned guard
/// still holds a consistent value.
pub(crate) fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}
