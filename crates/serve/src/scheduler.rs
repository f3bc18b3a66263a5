//! The job scheduler: a priority queue drained by a fixed worker pool,
//! with content-addressed dedup, per-tenant quotas and cooperative
//! cancellation between stage steps.

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use qce::AttackFlow;
use qce_harness::{Scenario, RECOVERY_MAPE_CEILING};
use qce_store::StageCache;
use qce_telemetry::json::ObjWriter;
use qce_telemetry::{counter, fnv1a};

use crate::job::{Job, JobCore, JobState};
use crate::queue::QueueEntry;
use crate::{unpoisoned, ErrorKind, Result, ServeError};

/// Terminal jobs are pruned oldest-first once the table exceeds this,
/// bounding daemon memory over long uptimes.
const MAX_JOBS_RETAINED: usize = 4096;

/// Scheduler construction parameters.
#[derive(Debug)]
pub struct SchedulerConfig {
    /// Worker threads draining the queue (minimum 1).
    pub workers: usize,
    /// Per-tenant in-flight job cap; `0` means unlimited.
    pub tenant_quota: usize,
    /// Stage cache shared by all workers. `None` disables checkpoint
    /// reuse (every job recomputes from scratch).
    pub cache: Option<StageCache>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 2,
            tenant_quota: 0,
            cache: None,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Job ids ordered by the shared priority/FIFO rule
    /// ([`QueueEntry`]); the heap lives inside `Inner` because the
    /// scheduler's state transitions (dedup, quotas, cancellation) must
    /// be atomic with queue membership.
    queue: BinaryHeap<QueueEntry<u64>>,
    jobs: HashMap<u64, Arc<Job>>,
    /// `work_key → job id` for every non-terminal job: the dedup index.
    inflight: HashMap<u64, u64>,
    tenant_inflight: HashMap<String, usize>,
    next_id: u64,
    next_seq: u64,
    shutdown: bool,
}

/// The scheduler. Locking order is `inner` before any `Job::core`;
/// workers never hold both across a stage step.
#[derive(Debug)]
pub struct Scheduler {
    inner: Mutex<Inner>,
    work: Condvar,
    cache: Option<StageCache>,
    quota: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts the worker pool and returns the shared scheduler handle.
    #[must_use]
    pub fn start(config: SchedulerConfig) -> Arc<Scheduler> {
        let sched = Arc::new(Scheduler {
            inner: Mutex::new(Inner {
                next_id: 1,
                ..Inner::default()
            }),
            work: Condvar::new(),
            cache: config.cache,
            quota: config.tenant_quota,
            workers: Mutex::new(Vec::new()),
        });
        let n = config.workers.max(1);
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            let me = Arc::clone(&sched);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("qce-serve-worker-{i}"))
                    .spawn(move || me.worker_loop())
                    .expect("spawn worker"),
            );
        }
        *unpoisoned(sched.workers.lock()) = handles;
        sched
    }

    /// The per-tenant in-flight quota (`0` = unlimited).
    #[must_use]
    pub fn quota(&self) -> usize {
        self.quota
    }

    /// Submits `scenario` for `tenant` at `priority`. Returns the job
    /// (new or an in-flight job with the same content address) and
    /// whether the submit was deduplicated onto existing work.
    ///
    /// # Errors
    ///
    /// `unsupported_axis` for fault/defense scenarios,
    /// `quota_exhausted` when the tenant is at its cap,
    /// `shutting_down` after [`Scheduler::shutdown`].
    pub(crate) fn submit(
        &self,
        scenario: Scenario,
        tenant: &str,
        priority: i64,
    ) -> Result<(Arc<Job>, bool)> {
        if scenario.fault.is_some() || !scenario.defenses.is_empty() {
            counter("serve.rejected").incr(1);
            return Err(ServeError::new(
                ErrorKind::UnsupportedAxis,
                "the server runs clean flows only; fault/defense axes belong to the harness CLI",
            ));
        }
        let work_key = fnv1a(&scenario.to_json());
        let mut inner = unpoisoned(self.inner.lock());
        if inner.shutdown {
            return Err(ServeError::new(
                ErrorKind::Shutdown,
                "server is shutting down",
            ));
        }

        if let Some(&existing) = inner.inflight.get(&work_key) {
            if let Some(job) = inner.jobs.get(&existing).map(Arc::clone) {
                let attach = {
                    let core = unpoisoned(job.core.lock());
                    !core.tenants.iter().any(|t| t == tenant)
                };
                if attach {
                    self.charge_tenant(&mut inner, tenant)?;
                    unpoisoned(job.core.lock()).tenants.push(tenant.to_string());
                }
                counter("serve.submit").incr(1);
                counter("serve.dedup").incr(1);
                return Ok((job, true));
            }
        }

        self.charge_tenant(&mut inner, tenant)?;
        let id = inner.next_id;
        inner.next_id += 1;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let job = Arc::new(Job {
            id,
            priority,
            work_key,
            scenario,
            cancel: std::sync::atomic::AtomicBool::new(false),
            core: Mutex::new(JobCore {
                state: JobState::Queued,
                events: Vec::new(),
                result: None,
                error: None,
                tenants: vec![tenant.to_string()],
            }),
            cv: Condvar::new(),
        });
        prune_terminal(&mut inner);
        inner.jobs.insert(id, Arc::clone(&job));
        inner.inflight.insert(work_key, id);
        inner.queue.push(QueueEntry {
            priority,
            seq,
            item: id,
        });
        counter("serve.submit").incr(1);
        self.work.notify_one();
        Ok((job, false))
    }

    fn charge_tenant(&self, inner: &mut Inner, tenant: &str) -> Result<()> {
        let used = inner.tenant_inflight.get(tenant).copied().unwrap_or(0);
        if self.quota > 0 && used >= self.quota {
            counter("serve.quota_denied").incr(1);
            return Err(ServeError::new(
                ErrorKind::QuotaExhausted,
                format!(
                    "tenant {tenant:?} is at its quota of {} in-flight jobs",
                    self.quota
                ),
            ));
        }
        *inner.tenant_inflight.entry(tenant.to_string()).or_insert(0) += 1;
        Ok(())
    }

    /// The job with `id`, if retained.
    pub(crate) fn job(&self, id: u64) -> Option<Arc<Job>> {
        unpoisoned(self.inner.lock()).jobs.get(&id).map(Arc::clone)
    }

    /// Requests cancellation of job `id` and returns its state after
    /// the request: queued jobs cancel immediately; running jobs stop
    /// at the next stage-step boundary (their completed steps stay in
    /// the stage cache as a resumable checkpoint).
    ///
    /// # Errors
    ///
    /// `not_found` if no such job is retained.
    pub fn cancel(&self, id: u64) -> Result<JobState> {
        let mut inner = unpoisoned(self.inner.lock());
        let job = inner
            .jobs
            .get(&id)
            .map(Arc::clone)
            .ok_or_else(|| ServeError::new(ErrorKind::NotFound, format!("no job {id}")))?;
        job.cancel.store(true, Ordering::SeqCst);
        let state = job.state();
        if state == JobState::Queued {
            finalize(&mut inner, &job, |core| {
                core.state = JobState::Cancelled;
            });
            counter("serve.cancelled").incr(1);
            return Ok(JobState::Cancelled);
        }
        Ok(state)
    }

    /// `(in-flight jobs, quota)` for `tenant`; quota `0` = unlimited.
    #[must_use]
    pub fn tenant_usage(&self, tenant: &str) -> (usize, usize) {
        let inner = unpoisoned(self.inner.lock());
        (
            inner.tenant_inflight.get(tenant).copied().unwrap_or(0),
            self.quota,
        )
    }

    /// A stats document: job counts by state plus every `serve.*` and
    /// `store.*` telemetry counter.
    #[must_use]
    pub fn stats_json(&self) -> String {
        let (queued, running, done, failed, cancelled) = {
            let inner = unpoisoned(self.inner.lock());
            let mut counts = (0u64, 0u64, 0u64, 0u64, 0u64);
            for job in inner.jobs.values() {
                match job.state() {
                    JobState::Queued => counts.0 += 1,
                    JobState::Running => counts.1 += 1,
                    JobState::Done => counts.2 += 1,
                    JobState::Failed => counts.3 += 1,
                    JobState::Cancelled => counts.4 += 1,
                }
            }
            counts
        };
        let mut jobs = ObjWriter::new();
        jobs.uint("queued", queued)
            .uint("running", running)
            .uint("done", done)
            .uint("failed", failed)
            .uint("cancelled", cancelled);
        let mut counters = ObjWriter::new();
        for (name, value) in qce_telemetry::snapshot().counters_with_prefix(&["serve.", "store."]) {
            counters.uint(&name, value);
        }
        let mut root = ObjWriter::new();
        root.raw("jobs", &jobs.finish())
            .raw("counters", &counters.finish());
        root.finish()
    }

    /// Stops accepting work, cancels queued jobs, asks running jobs to
    /// stop at the next stage boundary, and joins the worker pool.
    pub fn shutdown(&self) {
        let queued: Vec<Arc<Job>> = {
            let mut inner = unpoisoned(self.inner.lock());
            if inner.shutdown {
                return;
            }
            inner.shutdown = true;
            let mut queued = Vec::new();
            for job in inner.jobs.values() {
                job.cancel.store(true, Ordering::SeqCst);
                if job.state() == JobState::Queued {
                    queued.push(Arc::clone(job));
                }
            }
            for job in &queued {
                finalize(&mut inner, job, |core| {
                    core.state = JobState::Cancelled;
                });
                counter("serve.cancelled").incr(1);
            }
            inner.queue.clear();
            queued
        };
        drop(queued);
        self.work.notify_all();
        let handles = std::mem::take(&mut *unpoisoned(self.workers.lock()));
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            let job = {
                let mut inner = unpoisoned(self.inner.lock());
                loop {
                    if inner.shutdown {
                        return;
                    }
                    if let Some(entry) = inner.queue.pop() {
                        if let Some(job) = inner.jobs.get(&entry.item).map(Arc::clone) {
                            // Skip entries finalized while queued
                            // (cancelled); only Queued jobs run.
                            if job.state() == JobState::Queued {
                                unpoisoned(job.core.lock()).state = JobState::Running;
                                break job;
                            }
                        }
                        continue;
                    }
                    inner = unpoisoned(self.work.wait(inner));
                }
            };
            self.run_job(&job);
        }
    }

    fn run_job(&self, job: &Arc<Job>) {
        let started = Instant::now();
        let outcome = fail_on_panic(|| self.drive(job));
        let mut inner = unpoisoned(self.inner.lock());
        match outcome {
            Ok(Some(result)) => {
                finalize(&mut inner, job, |core| {
                    core.state = JobState::Done;
                    core.result = Some(result);
                });
                counter("serve.complete").incr(1);
            }
            Ok(None) => {
                finalize(&mut inner, job, |core| {
                    core.state = JobState::Cancelled;
                });
                counter("serve.cancelled").incr(1);
            }
            Err(err) => {
                finalize(&mut inner, job, |core| {
                    core.state = JobState::Failed;
                    core.error = Some((err.kind.as_str().to_string(), err.message.clone()));
                });
                counter("serve.failed").incr(1);
            }
        }
        drop(inner);
        qce_telemetry::log_line(
            qce_telemetry::Level::Debug,
            &format!(
                "serve: job {} finished as {} in {:.1} ms",
                job.id,
                job.state().name(),
                started.elapsed().as_secs_f64() * 1e3,
            ),
        );
    }

    /// Drives the flow machine to completion. `Ok(None)` means the job
    /// was cancelled between steps.
    fn drive(&self, job: &Arc<Job>) -> Result<Option<String>> {
        if job.cancel.load(Ordering::SeqCst) {
            return Ok(None);
        }
        let started = Instant::now();
        let dataset = job
            .scenario
            .dataset
            .generate()
            .map_err(|e| ServeError::new(ErrorKind::Flow, format!("dataset synthesis: {e}")))?;
        let mut flow = AttackFlow::new(job.scenario.flow.clone());
        if let Some(cache) = &self.cache {
            flow = flow.with_cache(cache.clone());
        }
        let mut machine = flow
            .machine(&dataset)
            .map_err(|e| ServeError::new(ErrorKind::Flow, e.to_string()))?;
        while !machine.is_done() {
            if job.cancel.load(Ordering::SeqCst) {
                return Ok(None);
            }
            let event = machine
                .advance()
                .map_err(|e| ServeError::new(ErrorKind::Flow, e.to_string()))?;
            let mut event_json = ObjWriter::new();
            event_json
                .str("type", "stage")
                .str("step", event.step.name())
                .str("label", &event.label)
                .num("wall_ms", event.wall_ms)
                .bool("skipped", event.skipped);
            let mut core = unpoisoned(job.core.lock());
            core.events.push(event_json.finish());
            job.cv.notify_all();
        }
        let outcome = machine
            .into_outcome()
            .map_err(|e| ServeError::new(ErrorKind::Flow, e.to_string()))?;
        Ok(Some(result_json(
            &job.scenario,
            &outcome,
            started.elapsed().as_secs_f64() * 1e3,
        )))
    }
}

/// Runs `f`, turning a panic into a [`ErrorKind::Flow`] error that
/// carries the panic text. Without this a panicking flow would end its
/// worker thread and leave the job `Running` forever, with every stream
/// on it waiting.
fn fail_on_panic<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let message = match payload.downcast::<String>() {
            Ok(text) => *text,
            Err(payload) => match payload.downcast::<&str>() {
                Ok(text) => (*text).to_string(),
                Err(_) => "flow panicked".to_string(),
            },
        };
        Err(ServeError::new(ErrorKind::Flow, message))
    })
}

/// Removes the job from the dedup index and releases its tenants'
/// quota charges, then applies the terminal state under the job lock
/// and wakes all waiters. Caller holds `inner`.
fn finalize(inner: &mut Inner, job: &Arc<Job>, apply: impl FnOnce(&mut JobCore)) {
    if inner.inflight.get(&job.work_key) == Some(&job.id) {
        inner.inflight.remove(&job.work_key);
    }
    let mut core = unpoisoned(job.core.lock());
    for tenant in &core.tenants {
        if let Some(n) = inner.tenant_inflight.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                inner.tenant_inflight.remove(tenant);
            }
        }
    }
    apply(&mut core);
    job.cv.notify_all();
}

/// Drops the oldest terminal jobs once the table is full. Caller holds
/// `inner`.
fn prune_terminal(inner: &mut Inner) {
    if inner.jobs.len() < MAX_JOBS_RETAINED {
        return;
    }
    let mut terminal: Vec<u64> = inner
        .jobs
        .iter()
        .filter(|(_, j)| j.state().is_terminal())
        .map(|(id, _)| *id)
        .collect();
    terminal.sort_unstable();
    let excess = inner.jobs.len().saturating_sub(MAX_JOBS_RETAINED - 1);
    for id in terminal.into_iter().take(excess) {
        inner.jobs.remove(&id);
    }
}

/// Renders the result document: released accuracy, extraction quality,
/// compression ratio and the deterministic artifact digests (as hex
/// strings — u64 digests do not survive JSON number precision).
fn result_json(scenario: &Scenario, outcome: &qce::FlowOutcome, wall_ms: f64) -> String {
    let report = outcome.final_report();
    let mut digests = ObjWriter::new();
    for (name, digest) in outcome.artifact_digests() {
        digests.str(&name, &format!("{digest:016x}"));
    }
    let mut root = ObjWriter::new();
    root.str("scenario", &scenario.name)
        .num("pre_quant_accuracy", f64::from(outcome.pre_quant.accuracy))
        .num("accuracy", f64::from(report.accuracy))
        .uint("images", report.images.len() as u64)
        .uint("recognized", report.recognized_count() as u64)
        .num("mean_mape", f64::from(report.mean_mape()))
        .num("mean_ssim", f64::from(report.mean_ssim()))
        .num("wall_ms", wall_ms);
    match outcome.compression_ratio {
        Some(ratio) => root.num("compression_ratio", ratio),
        None => root.raw("compression_ratio", "null"),
    };
    root.raw("digests", &digests.finish());
    match &outcome.post_defense {
        Some(defended) => root.raw("defense", &defense_json(defended)),
        None => root.raw("defense", "null"),
    };
    root.finish()
}

/// The defended release's metrics, taken as the sweep takes a defended
/// cell's: the top-level fields describe the undefended release, while
/// `digests` fingerprint the network after the defense.
fn defense_json(report: &qce::FaultedReport) -> String {
    // `num` writes a non-finite value as `null`.
    let opt = |v: Option<f32>| v.map_or(f64::NAN, f64::from);
    let mut doc = ObjWriter::new();
    doc.str("label", &report.label)
        .num("accuracy", f64::from(report.accuracy))
        .uint("images", report.images.len() as u64)
        .uint(
            "recovered",
            report.recovered_count(RECOVERY_MAPE_CEILING) as u64,
        )
        .num("mean_mape", opt(report.mean_mape()))
        .num("mean_ssim", opt(report.mean_ssim()));
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn a_poisoned_job_lock_does_not_fail_later_requests() {
        let server = crate::Server::start(crate::ServerConfig::default()).expect("server start");
        let addr = server.addr().to_string();
        let job = Arc::new(Job {
            id: 1000,
            priority: 0,
            work_key: 0,
            scenario: Scenario::from_json(include_str!(
                "../../../conformance/scenarios/quant2_weq.json"
            ))
            .unwrap(),
            cancel: AtomicBool::new(false),
            core: Mutex::new(JobCore {
                state: JobState::Done,
                events: Vec::new(),
                result: None,
                error: None,
                tenants: vec!["t".to_string()],
            }),
            cv: Condvar::new(),
        });
        unpoisoned(server.scheduler().inner.lock())
            .jobs
            .insert(job.id, Arc::clone(&job));
        let holder = Arc::clone(&job);
        let _ = std::thread::spawn(move || {
            let _core = holder.core.lock();
            panic!("a panic while the job lock is held");
        })
        .join();
        assert!(job.core.is_poisoned());

        for path in ["/v1/jobs/1000", "/v1/stats"] {
            let (status, body) =
                crate::http::http_request(&addr, "GET", path, &[], None).expect(path);
            assert_eq!(status, 200, "{path}: {body}");
            qce_telemetry::json::parse(&body).expect(path);
        }
        assert_eq!(job.state(), JobState::Done);
        server.shutdown();
    }

    #[test]
    fn a_panic_becomes_a_flow_error_with_its_text() {
        // A literal message panics with a `&str` payload, a formatted
        // one with a `String`.
        let err = fail_on_panic(|| -> Result<()> { panic!("static text") }).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Flow);
        assert_eq!(err.message, "static text");

        let step = 3;
        let err =
            fail_on_panic(|| -> Result<()> { panic!("formatted at step {step}") }).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Flow);
        assert_eq!(err.message, "formatted at step 3");
    }
}
