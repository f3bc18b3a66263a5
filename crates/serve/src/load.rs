//! The load generator: drives a running daemon with tiny scenarios at
//! several concurrency levels and emits `BENCH_serve.json` as a
//! [`BenchFile`] (`serve_flow_c<N>.p50_ms`, `.p99_ms`, …), so serving
//! latency regressions gate CI exactly like compute-kernel regressions
//! do.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use qce::{BandRule, FlowConfig, Grouping, QuantConfig, QuantMethod};
use qce_harness::{DatasetKind, DatasetSpec, Scenario};
use qce_telemetry::bench::{percentile, BenchFile};
use qce_telemetry::json::{parse, JsonValue};

use crate::http::http_request;
use crate::{unpoisoned, ErrorKind, Result, ServeError};

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address, e.g. `127.0.0.1:7700`.
    pub addr: String,
    /// Jobs per concurrency level (each a distinct scenario seed, so
    /// levels measure cold latency, not cache replay).
    pub jobs: usize,
    /// Client concurrency levels to sweep.
    pub levels: Vec<usize>,
    /// Base flow seed; each (level, job) derives a unique seed from it.
    pub seed_base: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7700".to_string(),
            jobs: 6,
            levels: vec![1, 4],
            seed_base: 9000,
        }
    }
}

/// Latency/throughput summary of one concurrency level.
#[derive(Debug, Clone)]
pub struct LevelStats {
    /// Client threads used.
    pub concurrency: usize,
    /// Jobs completed.
    pub jobs: usize,
    /// Median submit-to-terminal latency, ms.
    pub p50_ms: f64,
    /// 90th-percentile latency, ms.
    pub p90_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Wall time of the whole level, ms.
    pub total_ms: f64,
    /// Completed jobs per second of wall time.
    pub throughput_jobs_per_s: f64,
}

/// Everything one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Cold sweep, one entry per requested concurrency level.
    pub levels: Vec<LevelStats>,
    /// Warm resubmit of the first level's scenarios: replays entirely
    /// from stage-cache checkpoints.
    pub warm: LevelStats,
    /// `store.hit` delta across the warm pass.
    pub warm_store_hits: u64,
    /// `store.miss` delta across the warm pass.
    pub warm_store_misses: u64,
    /// `store.write` delta across the warm pass (0 = zero recompute).
    pub warm_store_writes: u64,
    /// `hit / (hit + miss)` during the warm pass.
    pub dedup_hit_rate: f64,
}

/// The scenario for `(level, index)`: a one-epoch tiny flow with 4-bit
/// target-correlated quantization, seeded uniquely so cold levels never
/// share cache entries. `level == usize::MAX` marks the warm pass,
/// which reuses the first cold level's seeds.
fn load_scenario(cfg: &LoadConfig, level: usize, index: usize) -> Scenario {
    let first = cfg.levels.first().copied().unwrap_or(1);
    let (tag, seed_level) = if level == usize::MAX {
        ("warm".to_string(), first)
    } else {
        (format!("c{level}"), level)
    };
    let flow = FlowConfig {
        seed: cfg.seed_base + (seed_level as u64) * 1000 + index as u64,
        epochs: 1,
        grouping: Grouping::Uniform(5.0),
        band: BandRule::FirstN,
        quant: Some(QuantConfig::new(QuantMethod::TargetCorrelated, 4)),
        ..FlowConfig::tiny()
    };
    Scenario {
        name: format!("load_{tag}_{index}"),
        dataset: DatasetSpec {
            kind: DatasetKind::Cifar,
            size: 8,
            classes: 4,
            count: 96,
            seed: 5,
            rgb: false,
        },
        flow,
        fault: None,
        defenses: Vec::new(),
        tolerance_overrides: Vec::new(),
    }
}

/// Submits one scenario and polls its status until terminal; returns
/// the observed submit-to-terminal latency in ms.
fn run_one(addr: &str, scenario: &Scenario) -> Result<f64> {
    let started = Instant::now();
    let (status, body) = http_request(
        addr,
        "POST",
        "/v1/jobs",
        &[
            ("X-Qce-Tenant", "load"),
            ("Content-Type", "application/json"),
        ],
        Some(&scenario.to_json()),
    )?;
    if status != 200 {
        return Err(ServeError::new(
            ErrorKind::Flow,
            format!("submit returned {status}: {body}"),
        ));
    }
    let id = parse(&body)
        .ok()
        .and_then(|doc| doc.get("id").and_then(JsonValue::as_str).map(String::from))
        .ok_or_else(|| {
            ServeError::new(ErrorKind::Flow, format!("submit body without id: {body}"))
        })?;
    loop {
        let (status, body) = http_request(addr, "GET", &format!("/v1/jobs/{id}"), &[], None)?;
        if status != 200 {
            return Err(ServeError::new(
                ErrorKind::Flow,
                format!("status returned {status}: {body}"),
            ));
        }
        let state = parse(&body)
            .ok()
            .and_then(|doc| {
                doc.get("state")
                    .and_then(JsonValue::as_str)
                    .map(String::from)
            })
            .unwrap_or_default();
        match state.as_str() {
            "done" => return Ok(started.elapsed().as_secs_f64() * 1e3),
            "failed" | "cancelled" => {
                return Err(ServeError::new(
                    ErrorKind::Flow,
                    format!("job {id} ended as {state}"),
                ))
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
}

/// Runs `cfg.jobs` scenarios through the daemon with `concurrency`
/// client threads and summarizes latency.
fn run_level(cfg: &LoadConfig, level_tag: usize, concurrency: usize) -> Result<LevelStats> {
    let work: Mutex<VecDeque<Scenario>> = Mutex::new(
        (0..cfg.jobs)
            .map(|i| load_scenario(cfg, level_tag, i))
            .collect(),
    );
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(cfg.jobs));
    let failures: Mutex<Vec<ServeError>> = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..concurrency.max(1) {
            scope.spawn(|| loop {
                let Some(scenario) = unpoisoned(work.lock()).pop_front() else {
                    return;
                };
                match run_one(&cfg.addr, &scenario) {
                    Ok(ms) => unpoisoned(latencies.lock()).push(ms),
                    Err(e) => unpoisoned(failures.lock()).push(e),
                }
            });
        }
    });
    if let Some(err) = unpoisoned(failures.into_inner()).into_iter().next() {
        return Err(err);
    }
    let total_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut latencies = unpoisoned(latencies.into_inner());
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    Ok(LevelStats {
        concurrency,
        jobs: latencies.len(),
        p50_ms: percentile(&latencies, 50.0),
        p90_ms: percentile(&latencies, 90.0),
        p99_ms: percentile(&latencies, 99.0),
        total_ms,
        throughput_jobs_per_s: if total_ms > 0.0 {
            latencies.len() as f64 / (total_ms / 1e3)
        } else {
            0.0
        },
    })
}

/// One `store.*`/`serve.*` counter from the daemon's stats document.
fn stats_counter(addr: &str, name: &str) -> Result<u64> {
    let (status, body) = http_request(addr, "GET", "/v1/stats", &[], None)?;
    if status != 200 {
        return Err(ServeError::new(
            ErrorKind::Flow,
            format!("stats returned {status}"),
        ));
    }
    let doc = parse(&body).map_err(|e| ServeError::new(ErrorKind::Flow, format!("stats: {e}")))?;
    Ok(doc
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0) as u64)
}

/// Runs the full load sweep against an already-listening daemon: every
/// cold concurrency level, then a warm resubmit of the first level's
/// scenarios measuring cache-dedup replay.
///
/// # Errors
///
/// Any submit/poll failure, a job ending `failed`/`cancelled`, or a
/// warm pass that is not served wholly from the stage cache (it wrote
/// or missed a cache entry, or hit none): [`ErrorKind::Flow`].
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport> {
    let mut levels = Vec::with_capacity(cfg.levels.len());
    for &concurrency in &cfg.levels {
        levels.push(run_level(cfg, concurrency, concurrency)?);
    }

    let hits_before = stats_counter(&cfg.addr, "store.hit")?;
    let misses_before = stats_counter(&cfg.addr, "store.miss")?;
    let writes_before = stats_counter(&cfg.addr, "store.write")?;
    let warm_concurrency = cfg.levels.last().copied().unwrap_or(1);
    let warm = run_level(cfg, usize::MAX, warm_concurrency)?;
    let warm_store_hits = stats_counter(&cfg.addr, "store.hit")?.saturating_sub(hits_before);
    let warm_store_misses = stats_counter(&cfg.addr, "store.miss")?.saturating_sub(misses_before);
    let warm_store_writes = stats_counter(&cfg.addr, "store.write")?.saturating_sub(writes_before);
    if warm_store_writes > 0 || warm_store_misses > 0 || warm_store_hits == 0 {
        return Err(ServeError::new(
            ErrorKind::Flow,
            format!(
                "warm pass was not replayed from the stage cache: {warm_store_hits} hits, \
                 {warm_store_misses} misses, {warm_store_writes} writes \
                 (a fully cached pass hits and never misses or writes)"
            ),
        ));
    }
    Ok(LoadReport {
        levels,
        warm,
        warm_store_hits,
        warm_store_misses,
        warm_store_writes,
        dedup_hit_rate: warm_store_hits as f64 / (warm_store_hits + warm_store_misses) as f64,
    })
}

impl LoadReport {
    /// The gated latencies as `BENCH_serve.json`: p50 and p99 of every
    /// cold level (`serve_flow_c<N>`) and of the warm pass
    /// (`serve_warm_resubmit`).
    #[must_use]
    pub fn to_bench(&self) -> BenchFile {
        let mut file = BenchFile::new("serve");
        let rows = self
            .levels
            .iter()
            .map(|l| (format!("serve_flow_c{}", l.concurrency), l))
            .chain([("serve_warm_resubmit".to_string(), &self.warm)]);
        for (row, stats) in rows {
            file.insert(format!("{row}.p50_ms"), stats.p50_ms, "ms")
                .insert(format!("{row}.p99_ms"), stats.p99_ms, "ms");
        }
        file
    }
}
