//! The TCP front end: accept loop, request routing, and the NDJSON
//! progress stream.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use qce_harness::Scenario;
use qce_store::StageCache;
use qce_telemetry::json::ObjWriter;

use crate::http::{read_request, respond_error, respond_json, start_ndjson, Request};
use crate::job::Job;
use crate::scheduler::{Scheduler, SchedulerConfig};
use crate::{unpoisoned, ErrorKind, Result, ServeError};

/// Server construction parameters.
#[derive(Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7700`; port `0` picks a free
    /// port (read it back from [`Server::addr`]).
    pub addr: String,
    /// Worker threads for the scheduler.
    pub workers: usize,
    /// Per-tenant in-flight quota; `0` = unlimited.
    pub tenant_quota: usize,
    /// Stage cache shared by the workers (`None` disables dedup across
    /// restarts and checkpoint resume).
    pub cache: Option<StageCache>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            tenant_quota: 0,
            cache: None,
        }
    }
}

/// A running daemon: accept loop plus scheduler.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    scheduler: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
    shutdown_signal: Arc<(Mutex<bool>, Condvar)>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listen socket, starts the worker pool and the accept
    /// thread, and returns the running server.
    ///
    /// # Errors
    ///
    /// `io_error` if the address cannot be bound.
    pub fn start(config: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::io(format!("binding {}: {e}", config.addr)))?;
        let addr = listener.local_addr()?;
        let scheduler = Scheduler::start(SchedulerConfig {
            workers: config.workers,
            tenant_quota: config.tenant_quota,
            cache: config.cache,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let shutdown_signal = Arc::new((Mutex::new(false), Condvar::new()));

        let accept = {
            let scheduler = Arc::clone(&scheduler);
            let stop = Arc::clone(&stop);
            let shutdown_signal = Arc::clone(&shutdown_signal);
            std::thread::Builder::new()
                .name("qce-serve-accept".to_string())
                .spawn(move || {
                    for incoming in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = incoming else { continue };
                        let scheduler = Arc::clone(&scheduler);
                        let shutdown_signal = Arc::clone(&shutdown_signal);
                        let _ = std::thread::Builder::new()
                            .name("qce-serve-conn".to_string())
                            .spawn(move || {
                                handle_connection(stream, &scheduler, &shutdown_signal);
                            });
                    }
                })
                .map_err(|e| ServeError::io(format!("spawning accept thread: {e}")))?
        };

        qce_telemetry::log_line(
            qce_telemetry::Level::Debug,
            &format!("serve: listening on {addr}"),
        );
        Ok(Server {
            addr,
            scheduler,
            stop,
            shutdown_signal,
            accept: Some(accept),
        })
    }

    /// The bound listen address (resolves port `0` requests).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scheduler, for direct (non-HTTP) inspection in tests.
    #[must_use]
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// Blocks until a client POSTs `/v1/shutdown`.
    pub fn wait_for_shutdown_request(&self) {
        let (flag, cv) = &*self.shutdown_signal;
        let mut requested = unpoisoned(flag.lock());
        while !*requested {
            requested = unpoisoned(cv.wait(requested));
        }
    }

    /// Stops the accept loop, cancels queued work, waits for running
    /// jobs to reach a stage boundary, and joins every pool thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.scheduler.shutdown();
    }
}

fn handle_connection(
    mut stream: TcpStream,
    scheduler: &Arc<Scheduler>,
    shutdown_signal: &Arc<(Mutex<bool>, Condvar)>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(err) => {
            respond_error(&mut stream, &err);
            return;
        }
    };
    let path = request.path.split('?').next().unwrap_or("").to_string();
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let outcome = match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            respond_json(&mut stream, 200, "{\"ok\":true}");
            Ok(())
        }
        ("POST", ["v1", "jobs"]) => handle_submit(&mut stream, scheduler, &request),
        ("GET", ["v1", "jobs", id]) => {
            parse_id(id).and_then(|id| handle_status(&mut stream, scheduler, id))
        }
        ("GET", ["v1", "jobs", id, "stream"]) => {
            parse_id(id).and_then(|id| handle_stream(&mut stream, scheduler, id))
        }
        ("POST", ["v1", "jobs", id, "cancel"]) => {
            parse_id(id).and_then(|id| handle_cancel(&mut stream, scheduler, id))
        }
        ("GET", ["v1", "tenants", tenant]) => {
            let (inflight, quota) = scheduler.tenant_usage(tenant);
            let mut doc = ObjWriter::new();
            doc.str("tenant", tenant)
                .uint("inflight", inflight as u64)
                .uint("quota", quota as u64);
            respond_json(&mut stream, 200, &doc.finish());
            Ok(())
        }
        ("GET", ["v1", "stats"]) => {
            respond_json(&mut stream, 200, &scheduler.stats_json());
            Ok(())
        }
        ("POST", ["v1", "shutdown"]) => {
            respond_json(&mut stream, 200, "{\"ok\":true}");
            let (flag, cv) = &**shutdown_signal;
            *unpoisoned(flag.lock()) = true;
            cv.notify_all();
            Ok(())
        }
        _ => Err(ServeError::new(
            ErrorKind::NotFound,
            format!("no route {} {}", request.method, path),
        )),
    };
    if let Err(err) = outcome {
        respond_error(&mut stream, &err);
    }
}

fn parse_id(raw: &str) -> Result<u64> {
    raw.parse::<u64>()
        .map_err(|_| ServeError::bad_request(format!("bad job id {raw:?}")))
}

fn handle_submit(
    stream: &mut TcpStream,
    scheduler: &Arc<Scheduler>,
    request: &Request,
) -> Result<()> {
    let body = request.body_utf8()?;
    let scenario =
        Scenario::from_json(body).map_err(|e| ServeError::bad_request(format!("scenario: {e}")))?;
    let tenant = match request.header("x-qce-tenant") {
        Some(t) if !t.trim().is_empty() => t.trim().to_string(),
        _ => "anonymous".to_string(),
    };
    let priority = request
        .header("x-qce-priority")
        .map(|v| {
            v.trim()
                .parse::<i64>()
                .map_err(|_| ServeError::bad_request(format!("bad X-Qce-Priority {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    let (job, deduped) = scheduler.submit(scenario, &tenant, priority)?;
    let mut doc = ObjWriter::new();
    doc.str("id", &job.id.to_string())
        .str("state", job.state().name())
        .bool("deduped", deduped);
    respond_json(stream, 200, &doc.finish());
    Ok(())
}

fn handle_status(stream: &mut TcpStream, scheduler: &Arc<Scheduler>, id: u64) -> Result<()> {
    let job = scheduler
        .job(id)
        .ok_or_else(|| ServeError::new(ErrorKind::NotFound, format!("no job {id}")))?;
    respond_json(stream, 200, &job.status_json());
    Ok(())
}

fn handle_cancel(stream: &mut TcpStream, scheduler: &Arc<Scheduler>, id: u64) -> Result<()> {
    let state = scheduler.cancel(id)?;
    let mut doc = ObjWriter::new();
    doc.str("id", &id.to_string()).str("state", state.name());
    respond_json(stream, 200, &doc.finish());
    Ok(())
}

/// Streams stage events as NDJSON until the job reaches a terminal
/// state, then emits one final `{"type":"state",...}` line and closes.
fn handle_stream(stream: &mut TcpStream, scheduler: &Arc<Scheduler>, id: u64) -> Result<()> {
    let job = scheduler
        .job(id)
        .ok_or_else(|| ServeError::new(ErrorKind::NotFound, format!("no job {id}")))?;
    start_ndjson(stream)?;
    let mut cursor = 0usize;
    loop {
        let (lines, terminal) = wait_for_progress(&job, &mut cursor);
        for line in &lines {
            stream.write_all(line.as_bytes())?;
            stream.write_all(b"\n")?;
        }
        stream.flush()?;
        if let Some(doc) = terminal {
            stream.write_all(doc.as_bytes())?;
            stream.write_all(b"\n")?;
            stream.flush()?;
            return Ok(());
        }
    }
}

/// Blocks on the job's condvar until new events arrive past `cursor`
/// or the job turns terminal; returns the new lines and, when
/// terminal, the final state line.
fn wait_for_progress(job: &Arc<Job>, cursor: &mut usize) -> (Vec<String>, Option<String>) {
    let mut core = unpoisoned(job.core.lock());
    loop {
        if core.events.len() > *cursor || core.state.is_terminal() {
            let lines: Vec<String> = core.events[*cursor..].to_vec();
            *cursor = core.events.len();
            let terminal = core.state.is_terminal().then(|| {
                let mut doc = ObjWriter::new();
                doc.str("type", "state").str("state", core.state.name());
                match &core.result {
                    Some(result) => doc.raw("result", result),
                    None => doc.raw("result", "null"),
                };
                match &core.error {
                    Some((kind, message)) => {
                        let mut err = ObjWriter::new();
                        err.str("kind", kind).str("message", message);
                        doc.raw("error", &err.finish())
                    }
                    None => doc.raw("error", "null"),
                };
                doc.finish()
            });
            return (lines, terminal);
        }
        (core, _) = unpoisoned(job.cv.wait_timeout(core, Duration::from_millis(200)));
    }
}
