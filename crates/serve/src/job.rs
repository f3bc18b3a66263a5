//! Job state shared between the scheduler's workers and the HTTP
//! connection threads.

use std::sync::atomic::AtomicBool;
use std::sync::{Condvar, Mutex};

use qce_harness::Scenario;
use qce_telemetry::json::ObjWriter;

use crate::unpoisoned;

/// Lifecycle of a submitted job.
///
/// `Queued → Running → {Done, Failed, Cancelled}`; cancellation can
/// also strike while still queued. The three right-hand states are
/// terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting for a worker.
    Queued,
    /// A worker is driving the flow machine.
    Running,
    /// Completed; the result document is available.
    Done,
    /// The flow errored; a typed error is available.
    Failed,
    /// Cancelled before completion. Completed stage steps remain in the
    /// stage cache, so a resubmit resumes from the checkpoint.
    Cancelled,
}

impl JobState {
    /// Stable wire name (`state` field in status documents).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job will never change state again.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Mutable job state, guarded by [`Job::core`]. Waiters block on
/// [`Job::cv`], which is notified on every event append and state
/// change.
#[derive(Debug)]
pub(crate) struct JobCore {
    pub state: JobState,
    /// Per-stage progress events, each pre-rendered as one JSON object.
    pub events: Vec<String>,
    /// Result document JSON, set when `state == Done`.
    pub result: Option<String>,
    /// `(kind, message)`, set when `state == Failed`.
    pub error: Option<(String, String)>,
    /// Tenants attached to this job (first is the submitter; more join
    /// through dedup).
    pub tenants: Vec<String>,
}

/// One unit of work: a scenario plus scheduling metadata. Shared as
/// `Arc<Job>` between the queue, the jobs table and connection threads.
#[derive(Debug)]
pub(crate) struct Job {
    /// Server-assigned id, also the wire handle.
    pub id: u64,
    /// Higher runs earlier.
    pub priority: i64,
    /// Content address: `fnv1a` of the canonical scenario JSON. Jobs
    /// with equal keys are the same computation.
    pub work_key: u64,
    pub scenario: Scenario,
    /// Set to request cancellation; workers check it between stage
    /// steps.
    pub cancel: AtomicBool,
    pub core: Mutex<JobCore>,
    pub cv: Condvar,
}

impl Job {
    pub fn state(&self) -> JobState {
        unpoisoned(self.core.lock()).state
    }

    /// Full status document: id, scenario name, state, priority,
    /// tenants, events so far, and the result/error when terminal.
    pub fn status_json(&self) -> String {
        let core = unpoisoned(self.core.lock());
        let mut root = ObjWriter::new();
        root.str("id", &self.id.to_string())
            .str("scenario", &self.scenario.name)
            .str("state", core.state.name())
            .num("priority", self.priority as f64);
        let tenants: Vec<String> = core.tenants.iter().map(|t| format!("{:?}", t)).collect();
        root.raw("tenants", &format!("[{}]", tenants.join(",")));
        root.raw("events", &format!("[{}]", core.events.join(",")));
        match &core.result {
            Some(result) => root.raw("result", result),
            None => root.raw("result", "null"),
        };
        match &core.error {
            Some((kind, message)) => {
                let mut err = ObjWriter::new();
                err.str("kind", kind).str("message", message);
                root.raw("error", &err.finish())
            }
            None => root.raw("error", "null"),
        };
        root.finish()
    }
}
