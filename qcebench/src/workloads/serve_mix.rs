//! `serve_mix`: closed loop with `nproc` clients against an in-process
//! `qce-serve` daemon (`Server::start` on `127.0.0.1:0`, run-private
//! stage cache). Each client submits over HTTP and waits on the job's
//! NDJSON stream, as serve's callers do.
//!
//! Ops come from one seeded sequence shared by the clients:
//! * 94 % warm resubmits of the scenarios completed during set-up
//!   (stage-cache replays);
//! * 1.2 % cold jobs, each a scenario never submitted before;
//! * 0.8 % duplicates: a cold scenario submitted twice in a row under two
//!   tenants, the second while the first is in flight, so it must be
//!   deduplicated onto the first job;
//! * 4 % malformed bodies, which must get a typed 4xx, after which the
//!   daemon must still answer `/healthz`. These are timed apart from
//!   jobs.
//!
//! Every served result must equal an in-process `AttackFlow::run` of the
//! same scenario, and replays must write nothing to the stage cache.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qce::{AttackFlow, BandRule, FaultKind, FaultPlan, FlowConfig, QuantConfig, QuantMethod};
use qce_harness::{DatasetKind, DatasetSpec, Scenario};
use qce_serve::http::http_request;
use qce_serve::{Server, ServerConfig};
use qce_store::StageCache;
use qce_telemetry::json::{parse, JsonValue};

use super::{timed_phases, timed_setup, Ctx, Quality, Report};
use crate::run::{ms_since, Phase, Rng, RunDir};
use crate::stats::median;
use crate::trace;

/// Scenarios completed during set-up and resubmitted as replays.
const WARM: u64 = 6;

/// Op shares in parts per ten thousand: replay, cold, duplicate,
/// malformed.
const SHARES: [u32; 4] = [9400, 120, 80, 400];

/// One op of the seeded sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Resubmit warm scenario `w`.
    Replay(u64),
    /// Submit cold scenario `c` once.
    Cold(u64),
    /// Submit cold scenario `c` twice, under two tenants.
    Dup(u64),
    /// Post malformed body variant `v`.
    Malformed(usize),
}

/// The op sequence for `seed`: `n` ops, cold scenario ids numbered in
/// order of first use from `first_cold`.
pub fn op_sequence(seed: u64, n: usize, first_cold: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x5e7e);
    let mut cold = first_cold;
    let mut malformed = 0;
    (0..n)
        .map(|_| {
            let draw = rng.below(10_000) as u32;
            if draw < SHARES[0] {
                Op::Replay(rng.below(WARM as usize) as u64)
            } else if draw < SHARES[0] + SHARES[1] {
                cold += 1;
                Op::Cold(cold - 1)
            } else if draw < SHARES[0] + SHARES[1] + SHARES[2] {
                cold += 1;
                Op::Dup(cold - 1)
            } else {
                malformed += 1;
                Op::Malformed(malformed - 1)
            }
        })
        .collect()
}

/// Scenario `id`: ids below [`WARM`] are the warm roster. Each is a
/// tiny attack flow (8×8 images, 96 of them, three stages of width
/// 8/16/32, one epoch, 4-bit TCQ without fine-tuning). Cold scenarios
/// encode the first images that fit rather than a pixel-σ band, which
/// some of their datasets leave empty.
fn scenario(id: u64) -> Scenario {
    let band = if id < WARM {
        FlowConfig::small().band
    } else {
        BandRule::FirstN
    };
    let spec = Scenario {
        name: format!("bench{id}"),
        dataset: DatasetSpec {
            kind: DatasetKind::Cifar,
            size: 8,
            classes: 4,
            count: 96,
            seed: 1 + id,
            rgb: true,
        },
        flow: FlowConfig {
            seed: 100 + id,
            stage_channels: vec![8, 16, 32],
            epochs: 1,
            band,
            quant: Some(QuantConfig {
                finetune_epochs: 0,
                ..QuantConfig::new(QuantMethod::TargetCorrelated, 4)
            }),
            ..FlowConfig::small()
        },
        fault: None,
        defenses: Vec::new(),
        tolerance_overrides: Vec::new(),
    };
    // What the daemon will run: the scenario as parsed from its JSON.
    Scenario::from_json(&spec.to_json()).expect("bench scenarios round-trip")
}

/// Bodies the daemon must refuse with a typed 4xx.
fn malformed_body(variant: usize) -> (String, Vec<(&'static str, &'static str)>) {
    let valid = scenario(0).to_json();
    match variant % 6 {
        0 => ("this is not json".to_string(), Vec::new()),
        1 => (valid[..valid.len() / 2].to_string(), Vec::new()),
        2 => ("{\"name\":\"no-dataset\"}".to_string(), Vec::new()),
        3 => (String::new(), Vec::new()),
        4 => {
            let mut faulted = scenario(0);
            faulted.fault = Some(FaultPlan::new(3).with(FaultKind::BitFlip { rate: 0.002 }));
            (faulted.to_json(), Vec::new())
        }
        _ => (valid, vec![("X-Qce-Priority", "urgent")]),
    }
}

/// What a reference run or a served job reported.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Release accuracy.
    pub accuracy: f64,
    /// Images decoded.
    pub images: u64,
    /// `release.weights`, `select.indices`, `targets.pixels`,
    /// `training.history`, as hex.
    pub digests: Vec<String>,
}

const DIGESTS: [&str; 4] = [
    "release.weights",
    "select.indices",
    "targets.pixels",
    "training.history",
];

/// A reference result with its recovered and encoded image counts.
type Reference = (JobResult, u64, u64);

/// The in-process reference for scenario `id`, with its recovered and
/// encoded image counts.
fn reference(id: u64) -> Result<Reference, String> {
    let s = scenario(id);
    let data = s.dataset.generate().map_err(|e| e.to_string())?;
    let outcome = AttackFlow::new(s.flow.clone())
        .run(&data)
        .map_err(|e| format!("reference {id}: {e}"))?;
    let report = outcome.final_report();
    let digests = outcome
        .artifact_digests()
        .into_iter()
        .map(|(_, d)| format!("{d:016x}"))
        .collect();
    let recovered = report
        .images
        .iter()
        .filter(|i| i.mape <= super::RECOVERED_MAPE)
        .count() as u64;
    Ok((
        JobResult {
            accuracy: f64::from(report.accuracy),
            images: report.images.len() as u64,
            digests,
        },
        recovered,
        outcome.targets.len() as u64,
    ))
}

/// References for `ids`, computed on `threads` threads.
fn references(ids: &[u64], threads: usize) -> Vec<Result<Reference, String>> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Result<Reference, String>>>> = Mutex::new(vec![None; ids.len()]);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= ids.len() {
                    break;
                }
                let r = reference(ids[i]);
                out.lock().expect("references")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("references")
        .into_iter()
        .map(|r| r.expect("every reference computed"))
        .collect()
}

fn parse_result(doc: &JsonValue) -> Option<JobResult> {
    let r = doc.get("result")?;
    let digests = DIGESTS
        .iter()
        .map(|name| {
            r.get("digests")
                .and_then(|d| d.get(name))
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        })
        .collect::<Option<Vec<_>>>()?;
    Some(JobResult {
        accuracy: r.get("accuracy")?.as_f64()?,
        images: r.get("images")?.as_u64()?,
        digests,
    })
}

/// What one client saw for one job.
#[derive(Debug)]
struct Served {
    deduped: bool,
    result: Result<JobResult, String>,
}

fn submit(addr: &str, body: &str, tenant: &str) -> Result<(String, bool), String> {
    let _s = trace::span("serve.submit");
    let (status, resp) = http_request(
        addr,
        "POST",
        "/v1/jobs",
        &[("X-Qce-Tenant", tenant)],
        Some(body),
    )
    .map_err(|e| format!("submit: {e}"))?;
    let doc = parse(&resp).map_err(|e| format!("submit response: {e}"))?;
    if status != 200 {
        return Err(format!("submit returned {status}: {resp}"));
    }
    let id = doc
        .get("id")
        .and_then(JsonValue::as_str)
        .ok_or("submit response has no id")?
        .to_string();
    let deduped = matches!(doc.get("deduped"), Some(JsonValue::Bool(true)));
    Ok((id, deduped))
}

/// Follows the job's NDJSON stream to its terminal line.
fn wait(addr: &str, id: &str) -> Result<JobResult, String> {
    let io = |e: std::io::Error| format!("stream {id}: {e}");
    let mut wait_span = Some(trace::span("serve.queue_wait"));
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    write!(
        stream,
        "GET /v1/jobs/{id}/stream HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(io)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut in_body = false;
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(io)? == 0 {
            return Err(format!("stream {id} ended without a terminal state"));
        }
        let text = line.trim_end();
        if !in_body {
            in_body = text.is_empty();
            continue;
        }
        let doc = parse(text).map_err(|e| format!("stream {id}: {e}"))?;
        match doc.get("type").and_then(JsonValue::as_str) {
            Some("stage") => {
                wait_span.take();
            }
            Some("state") => {
                if doc.get("state").and_then(JsonValue::as_str) != Some("done") {
                    return Err(format!("job {id} ended as {text}"));
                }
                return parse_result(&doc).ok_or_else(|| format!("job {id}: bad result {text}"));
            }
            _ => return Err(format!("stream {id}: unexpected line {text}")),
        }
    }
}

fn run_job(addr: &str, id: u64, dup: bool) -> Served {
    let body = scenario(id).to_json();
    let submitted = submit(addr, &body, "bench-a").and_then(|(job, _)| {
        if dup {
            let (again, deduped) = submit(addr, &body, "bench-b")?;
            if again != job {
                return Err(format!("duplicate got job {again}, not {job}"));
            }
            Ok((job, deduped))
        } else {
            Ok((job, false))
        }
    });
    match submitted {
        Ok((job, deduped)) => Served {
            deduped,
            result: wait(addr, &job),
        },
        Err(e) => Served {
            deduped: false,
            result: Err(e),
        },
    }
}

/// Posts a malformed body: the daemon must answer with a typed 4xx and
/// keep serving.
fn reject(addr: &str, variant: usize) -> Result<(), String> {
    let (body, headers) = malformed_body(variant);
    let (status, resp) = http_request(addr, "POST", "/v1/jobs", &headers, Some(&body))
        .map_err(|e| format!("malformed {variant}: {e}"))?;
    let kind = parse(&resp)
        .ok()
        .and_then(|d| d.get("error")?.get("kind")?.as_str().map(str::to_string));
    if !(400..500).contains(&status) || kind.is_none() {
        return Err(format!(
            "malformed body {variant} got {status} {resp}, not a typed 4xx"
        ));
    }
    let (health, _) = http_request(addr, "GET", "/healthz", &[], None)
        .map_err(|e| format!("healthz after malformed {variant}: {e}"))?;
    if health != 200 {
        return Err(format!(
            "healthz returned {health} after malformed {variant}"
        ));
    }
    Ok(())
}

/// A running daemon and what set-up learned.
struct Daemon {
    server: Option<Server>,
    addr: String,
    warm: Vec<JobResult>,
    quality: Quality,
    /// Cache writes one cold job makes.
    writes_per_cold: u64,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn store(name: &str) -> u64 {
    qce_telemetry::counter(name).get()
}

fn check(served: &Served, expected: &JobResult) -> Result<(), String> {
    match &served.result {
        Ok(r) if r == expected => Ok(()),
        Ok(r) => Err(format!("served {r:?}, in-process run gives {expected:?}")),
        Err(e) => Err(e.clone()),
    }
}

/// Starts a daemon on `127.0.0.1:0` with `nproc` workers, no tenant
/// quota and a fresh stage cache under the run directory. It is ready
/// when this returns.
fn serve(dir: &RunDir, nproc: usize) -> Result<Server, String> {
    let cache = StageCache::at(dir.fresh_cache().map_err(|e| e.to_string())?);
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: nproc,
        tenant_quota: 0,
        cache: Some(cache),
    })
    .map_err(|e| e.to_string())
}

fn start(
    dir: &RunDir,
    nproc: usize,
    checks: &mut Phase,
    next_cold: &mut u64,
) -> Result<Daemon, String> {
    let server = serve(dir, nproc)?;
    let addr = server.addr().to_string();
    let mut daemon = Daemon {
        server: Some(server),
        addr,
        warm: Vec::new(),
        quality: Quality::default(),
        writes_per_cold: 0,
    };
    let addr = daemon.addr.clone();

    // Complete the warm roster through the daemon, nproc at a time.
    let warm_ids: Vec<u64> = (0..WARM).collect();
    let served: Vec<Served> = std::thread::scope(|scope| {
        let handles: Vec<_> = warm_ids
            .chunks(WARM.div_ceil(nproc as u64) as usize)
            .map(|ids| {
                let addr = &addr;
                scope.spawn(move || {
                    ids.iter()
                        .map(|&id| run_job(addr, id, false))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("warm client"))
            .collect()
    });
    for (res, served) in references(&warm_ids, nproc).into_iter().zip(&served) {
        let (result, recovered, encoded) = res?;
        checks.record(0.0, check(served, &result));
        daemon.quality.recovered += recovered;
        daemon.quality.encoded += encoded;
        daemon.quality.accuracies.push(result.accuracy);
        daemon.warm.push(result);
    }

    // One discarded warm-up of every op kind, each checked. Replays run
    // alone here, so their cache-write delta must be exactly zero.
    let writes = store("store.write");
    for w in 0..WARM {
        let t = Instant::now();
        let served = run_job(&addr, w, false);
        checks.record(ms_since(t), check(&served, &daemon.warm[w as usize]));
    }
    let replay_writes = store("store.write") - writes;
    checks.record(
        0.0,
        if replay_writes == 0 {
            Ok(())
        } else {
            Err(format!("warm replays wrote {replay_writes} cache entries"))
        },
    );
    for dup in [false, true] {
        let id = *next_cold;
        *next_cold += 1;
        let writes = store("store.write");
        let t = Instant::now();
        let served = run_job(&addr, id, dup);
        let latency = ms_since(t);
        daemon.writes_per_cold = store("store.write") - writes;
        let (expected, _, _) = reference(id)?;
        let mut outcome = check(&served, &expected);
        if dup && !served.deduped {
            outcome = Err(format!(
                "duplicate submit of scenario {id} was not deduplicated"
            ));
        }
        checks.record(latency, outcome);
    }
    checks.record(0.0, reject(&addr, 0));
    Ok(daemon)
}

/// A cold job, its replay, a deduplicated pair and a malformed body
/// against a fresh daemon, for the layer drives of every traced run;
/// returns the dedup hits it saw.
pub fn drive_once(ctx: &Ctx) -> Result<Vec<(String, f64)>, String> {
    let server = serve(&ctx.dir, ctx.nproc)?;
    let outcome = drive_jobs(&server.addr().to_string());
    server.shutdown();
    outcome.map(|hits| vec![("serve.dedup_hits".to_string(), hits)])
}

fn drive_jobs(addr: &str) -> Result<f64, String> {
    // Ids past any the workload's sequence reaches (it draws fewer than
    // a million cold scenarios from 1_000_000 on).
    let (cold, dup) = (500_000_000, 500_000_001);
    let mut dedup_hits = 0.0;
    for (id, dup) in [(cold, false), (cold, false), (dup, true)] {
        let _op = trace::op_span("serve.job", super::DRIVE_OP);
        let served = run_job(addr, id, dup);
        served.result?;
        if dup && !served.deduped {
            return Err(format!("duplicate of scenario {id} was not deduplicated"));
        }
        dedup_hits += f64::from(u8::from(served.deduped));
    }
    let _op = trace::op_span("serve.reject", super::DRIVE_OP);
    reject(addr, 0)?;
    Ok(dedup_hits)
}

/// One op as a client saw it.
struct Record {
    op: Op,
    latency_ms: f64,
    served: Option<Served>,
    reject: Option<Result<(), String>>,
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    // Cold ids start past the warm roster; set-up warm-ups take some.
    let mut next_cold = 1_000u64;
    let Some(daemon) = timed_setup(ctx, &mut report, |checks| {
        start(&ctx.dir, ctx.nproc, checks, &mut next_cold)
    })?
    else {
        return Ok(report);
    };
    report.quality = daemon.quality.clone();

    let sequence = op_sequence(ctx.seed, 200_000, 1_000_000);
    let mut cursor = 0usize;
    let mut store_delta = [0u64; 3];
    let mut dedup_hits = 0u64;
    let mut notes = Vec::new();
    timed_phases(ctx, &mut report, |seconds| {
        let before = [
            store("store.hit"),
            store("store.miss"),
            store("store.write"),
        ];
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let next = AtomicUsize::new(cursor);
        let records: Mutex<Vec<Record>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for c in 0..ctx.nproc {
                let (next, records, sequence, addr) = (&next, &records, &sequence, &daemon.addr);
                std::thread::Builder::new()
                    .name(format!("client-{c}"))
                    .spawn_scoped(scope, move || {
                        while Instant::now() < deadline {
                            let i = next.fetch_add(1, Ordering::SeqCst);
                            let Some(&op) = sequence.get(i) else { break };
                            let t = Instant::now();
                            let record = match op {
                                Op::Malformed(v) => {
                                    let _op = trace::op_span("serve.reject", i as u64);
                                    let r = reject(addr, v);
                                    Record {
                                        op,
                                        latency_ms: 0.0,
                                        served: None,
                                        reject: Some(r),
                                    }
                                }
                                Op::Replay(id) | Op::Cold(id) | Op::Dup(id) => {
                                    let _op = trace::op_span("serve.job", i as u64);
                                    let served = run_job(addr, id, matches!(op, Op::Dup(_)));
                                    Record {
                                        op,
                                        latency_ms: 0.0,
                                        served: Some(served),
                                        reject: None,
                                    }
                                }
                            };
                            let record = Record {
                                latency_ms: ms_since(t),
                                ..record
                            };
                            records.lock().expect("records").push(record);
                        }
                    })
                    .expect("spawning a client");
            }
        });
        let wall_s = start.elapsed().as_secs_f64();
        cursor = next.load(Ordering::SeqCst);
        let after = [
            store("store.hit"),
            store("store.miss"),
            store("store.write"),
        ];
        let records = records.into_inner().expect("records");

        let mut phase = Phase {
            wall_s,
            ..Phase::default()
        };
        // Check cold and duplicate jobs against in-process references,
        // computed after the timed phase.
        let cold_ids: Vec<u64> = records
            .iter()
            .filter_map(|r| match r.op {
                Op::Cold(id) | Op::Dup(id) => Some(id),
                _ => None,
            })
            .collect();
        let cold_refs = references(&cold_ids, ctx.nproc);
        let mut reject_ms = Vec::new();
        for r in &records {
            match (r.op, &r.served, &r.reject) {
                (Op::Malformed(_), _, Some(outcome)) => {
                    // Timed apart: attempted, not a job.
                    phase.attempted += 1;
                    reject_ms.push(r.latency_ms);
                    if let Err(e) = outcome {
                        phase.fail(e.clone());
                    }
                }
                (Op::Replay(w), Some(served), _) => {
                    phase.record(r.latency_ms, check(served, &daemon.warm[w as usize]));
                }
                (Op::Cold(id) | Op::Dup(id), Some(served), _) => {
                    let pos = cold_ids.iter().position(|&c| c == id).expect("cold id");
                    let mut outcome = match &cold_refs[pos] {
                        Ok((expected, _, _)) => check(served, expected),
                        Err(e) => Err(e.clone()),
                    };
                    if matches!(r.op, Op::Dup(_)) {
                        if served.deduped {
                            dedup_hits += 1;
                        } else {
                            outcome =
                                Err(format!("duplicate of scenario {id} was not deduplicated"));
                        }
                    }
                    phase.record(r.latency_ms, outcome);
                }
                _ => phase.fail(format!("op {:?} left no result", r.op)),
            }
        }
        // Replays write nothing: every cache write is a cold job's.
        let writes = after[2] - before[2];
        let expected = daemon.writes_per_cold * cold_ids.len() as u64;
        if writes != expected {
            phase.fail(format!(
                "{writes} cache writes, but {} cold jobs account for {expected}",
                cold_ids.len()
            ));
        }
        for k in 0..3 {
            store_delta[k] = after[k] - before[k];
        }
        notes.push(format!(
            "phase: {} jobs, {} malformed (reject p50 {:.3} ms), {} cold scenarios, cache writes {writes}",
            phase.latencies_ms.len(),
            reject_ms.len(),
            median(&reject_ms).unwrap_or(0.0),
            cold_ids.len()
        ));
        Ok(phase)
    })?;

    report.notes.extend(notes);
    let [hit, miss, write] = store_delta.map(|v| v as f64);
    report.layer.extend([
        ("store.hit".to_string(), hit),
        ("store.miss".to_string(), miss),
        ("store.write".to_string(), write),
        ("store.hit_ratio".to_string(), hit / (hit + miss).max(1.0)),
        ("serve.dedup_hits".to_string(), dedup_hits as f64),
    ]);
    report.notes.push(format!(
        "store.hit_ratio base: {hit} hits / {} lookups (last phase)",
        hit + miss
    ));
    drop(daemon);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_sequences_reproduce_and_keep_their_shares() {
        let a = op_sequence(5, 20_000, 0);
        assert_eq!(a, op_sequence(5, 20_000, 0));
        assert_ne!(a, op_sequence(6, 20_000, 0));
        let share = |f: fn(&Op) -> bool| a.iter().filter(|o| f(o)).count() as f64 / a.len() as f64;
        assert!((share(|o| matches!(o, Op::Replay(_))) - 0.94).abs() < 0.01);
        assert!((share(|o| matches!(o, Op::Malformed(_))) - 0.04).abs() < 0.01);
        // Cold and duplicate scenarios are never reused.
        let mut cold: Vec<u64> = a
            .iter()
            .filter_map(|o| match o {
                Op::Cold(c) | Op::Dup(c) => Some(*c),
                _ => None,
            })
            .collect();
        let n = cold.len();
        cold.sort_unstable();
        cold.dedup();
        assert_eq!(cold.len(), n);
    }

    #[test]
    fn a_doctored_served_result_fails_the_op() {
        let expected = JobResult {
            accuracy: 0.25,
            images: 5,
            digests: vec!["00".to_string(); 4],
        };
        let mut served = Served {
            deduped: false,
            result: Ok(expected.clone()),
        };
        let mut phase = Phase::default();
        phase.record(1.0, check(&served, &expected));
        served.result = Ok(JobResult {
            accuracy: 0.5,
            ..expected.clone()
        });
        phase.record(1.0, check(&served, &expected));
        assert_eq!(phase.failed, 1);
        assert_eq!(phase.fail_ratio(), 0.5);
    }
}
