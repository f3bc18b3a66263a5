//! Runs expanded cells on a worker pool, memoizing finished cells in
//! the stage cache.
//!
//! Each cell is one [`FlowMachine`](qce::FlowMachine) drive. Two cache
//! layers make re-runs cheap:
//!
//! 1. **Stage checkpoints** (inside the machine): cells that share a
//!    config prefix — e.g. four fault variants of one trained model —
//!    replay `select`/`train`/`evaluate` checkpoints instead of
//!    recomputing them. A fault cell's own evaluation has no stage
//!    checkpoint; the whole-cell entry below memoizes it.
//! 2. **Whole-cell memoization** (here): a finished cell's metrics are
//!    stored under its content-addressed [`Cell::key`]; a warm re-run
//!    answers from that entry without even synthesizing the dataset,
//!    so its `store.write` delta is zero.
//!
//! The pool itself is a fixed set of threads that take work from one
//! shared counter, one stretch of consecutive cells with equal
//! `(dataset, flow)` at a time. Only such cells share stage checkpoints
//! (the checkpoint key hashes both), so one worker computes each
//! checkpoint and the cells after it replay it: the stage-cache writes
//! do not depend on the worker count. Per-cell metrics
//! come only from flow reports — never from process-global telemetry
//! counters, which concurrent cells would interleave — so results are
//! bit-identical at any worker count.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use qce::{AttackFlow, FaultedReport, FlowOutcome, Perturbation, StageReport};
use qce_harness::RECOVERY_MAPE_CEILING;
use qce_store::codec::{ByteReader, ByteWriter};
use qce_store::{section_kind, Artifact, CacheKey, StageCache};

use crate::grid::Cell;
use crate::report::{CellMetrics, CellResult};
use crate::{Result, SweepError};

/// Artifact section tag for a memoized cell result (downstream range;
/// the core crate claims `BASE` and `BASE + 1`).
const CELL_RESULT: u16 = section_kind::DOWNSTREAM_BASE + 0x10;

/// Cache stage label for memoized cell results.
const CELL_STAGE: &str = "sweep-cell";

/// Execution knobs for [`run_cells`].
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Worker threads; `0` means one.
    pub workers: usize,
    /// Stage cache shared by every cell (checkpoints + cell
    /// memoization). `None` runs everything cold and unmemoized.
    pub cache: Option<StageCache>,
    /// Run only the first `n` queued cells (in expansion order) and
    /// skip the rest — the deterministic stand-in for a mid-run kill.
    pub limit: Option<usize>,
}

/// One executed (or replayed) cell.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The cell's metrics plus identity, ready for a report partial.
    pub result: CellResult,
    /// Wall time this process spent on the cell, milliseconds.
    pub wall_ms: f64,
    /// Whether the result came from the whole-cell cache entry.
    pub cached: bool,
}

/// Runs `cells` across `opts.workers` threads and returns their runs in
/// input order. A worker runs each maximal stretch of consecutive cells
/// that share `(dataset, flow)` in order, on its own; with one worker
/// the cells run in input order.
///
/// The first failing cell aborts the run: workers stop taking cells,
/// and the error is returned. With `opts.limit`, only the first `n`
/// cells are attempted and the result covers exactly those (a resumed
/// run replays them from cache and continues).
///
/// # Errors
///
/// The first cell failure ([`SweepError::Flow`] or a dataset/spec
/// error), verbatim.
pub fn run_cells(cells: &[Cell], opts: &ExecOptions) -> Result<Vec<CellRun>> {
    let take = opts.limit.unwrap_or(cells.len()).min(cells.len());
    let stretches = shared_stage_stretches(&cells[..take]);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<CellRun>>> = Mutex::new(vec![None; take]);
    let failure: Mutex<Option<SweepError>> = Mutex::new(None);
    let abort = AtomicBool::new(false);
    let workers = opts.workers.max(1).min(stretches.len().max(1));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(stretch) = stretches.get(next.fetch_add(1, Ordering::SeqCst)) {
                    for position in stretch.clone() {
                        if abort.load(Ordering::SeqCst) {
                            return;
                        }
                        match run_cell(&cells[position], opts) {
                            Ok(run) => {
                                slots.lock().expect("sweep results")[position] = Some(run);
                            }
                            Err(e) => {
                                abort.store(true, Ordering::SeqCst);
                                let mut failure = failure.lock().expect("sweep failure");
                                failure.get_or_insert(e);
                                return;
                            }
                        }
                    }
                }
            });
        }
    });

    if let Some(e) = failure.into_inner().expect("sweep failure") {
        return Err(e);
    }
    let runs: Vec<CellRun> = slots
        .into_inner()
        .expect("sweep results")
        .into_iter()
        .flatten()
        .collect();
    debug_assert_eq!(runs.len(), take);
    Ok(runs)
}

/// Positions of the maximal stretches of consecutive `cells` with equal
/// `(dataset, flow)`, in order.
fn shared_stage_stretches(cells: &[Cell]) -> Vec<Range<usize>> {
    let mut start = 0;
    cells
        .chunk_by(|a, b| {
            a.scenario.dataset == b.scenario.dataset && a.scenario.flow == b.scenario.flow
        })
        .map(|stretch| {
            start += stretch.len();
            start - stretch.len()..start
        })
        .collect()
}

/// Executes one cell: whole-cell cache probe, then a full flow drive.
fn run_cell(cell: &Cell, opts: &ExecOptions) -> Result<CellRun> {
    let started = Instant::now();
    let key = CacheKey::new(cell.key, cell.scenario.flow.seed, CELL_STAGE);
    if let Some(cache) = &opts.cache {
        if let Some(metrics) = load_cell(cache, &key) {
            return Ok(CellRun {
                result: CellResult::new(cell, metrics),
                wall_ms: started.elapsed().as_secs_f64() * 1e3,
                cached: true,
            });
        }
    }

    let scenario = &cell.scenario;
    let dataset = scenario.dataset.generate()?;
    let mut flow = AttackFlow::new(scenario.flow.clone());
    if let Some(cache) = &opts.cache {
        flow = flow.with_cache(cache.clone());
    }
    let metrics = match &scenario.fault {
        None => {
            let mut machine = flow.machine(&dataset)?;
            while !machine.is_done() {
                machine.advance()?;
            }
            metrics_from_outcome(scenario, &machine.into_outcome()?)
        }
        Some(plan) => {
            // Select + Train replay their stage checkpoints; the faulted
            // evaluation itself is memoized only by the whole-cell entry,
            // whose key already covers the plan and the quantizer.
            let mut trained = flow.train(&dataset)?;
            let faulted = trained.evaluate_arm(
                scenario.flow.quant,
                &Perturbation::Fault(plan.clone()),
                format!("fault seed {}", plan.seed()),
            )?;
            metrics_from_faulted(scenario, &faulted)
        }
    };

    if let Some(cache) = &opts.cache {
        store_cell(cache, &key, &metrics);
    }
    Ok(CellRun {
        result: CellResult::new(cell, metrics),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        cached: false,
    })
}

fn effective_bits(scenario: &qce_harness::Scenario) -> u32 {
    scenario.flow.quant.map_or(0, |q| q.bits)
}

/// Metrics for a clean (or defended) cell, from the finished flow.
fn metrics_from_outcome(scenario: &qce_harness::Scenario, outcome: &FlowOutcome) -> CellMetrics {
    let base = |report: &StageReport| CellMetrics {
        float_accuracy: Some(outcome.pre_quant.accuracy),
        accuracy: report.accuracy,
        images: report.images.len() as u32,
        recovered: report.count_mape_below(RECOVERY_MAPE_CEILING) as u32,
        mean_mape: Some(report.mean_mape()),
        mean_ssim: Some(report.mean_ssim()),
        bits: effective_bits(scenario),
        compression_ratio: outcome.compression_ratio,
    };
    match &outcome.post_defense {
        None => base(outcome.final_report()),
        Some(defended) => CellMetrics {
            accuracy: defended.accuracy,
            images: defended.images.len() as u32,
            recovered: defended.recovered_count(RECOVERY_MAPE_CEILING) as u32,
            mean_mape: defended.mean_mape(),
            mean_ssim: defended.mean_ssim(),
            ..base(outcome.final_report())
        },
    }
}

/// Metrics for a faulted cell. The float stage never runs on this path,
/// so `float_accuracy` and the compression ratio are absent.
fn metrics_from_faulted(scenario: &qce_harness::Scenario, report: &FaultedReport) -> CellMetrics {
    CellMetrics {
        float_accuracy: None,
        accuracy: report.accuracy,
        images: report.images.len() as u32,
        recovered: report.recovered_count(RECOVERY_MAPE_CEILING) as u32,
        mean_mape: report.mean_mape(),
        mean_ssim: report.mean_ssim(),
        bits: effective_bits(scenario),
        compression_ratio: None,
    }
}

fn store_cell(cache: &StageCache, key: &CacheKey, metrics: &CellMetrics) {
    let mut w = ByteWriter::new();
    w.put_opt_f32(metrics.float_accuracy)
        .put_f32(metrics.accuracy)
        .put_u32(metrics.images)
        .put_u32(metrics.recovered)
        .put_opt_f32(metrics.mean_mape)
        .put_opt_f32(metrics.mean_ssim)
        .put_u32(metrics.bits);
    match metrics.compression_ratio {
        None => {
            w.put_u8(0);
        }
        Some(v) => {
            w.put_u8(1).put_f64(v);
        }
    }
    let mut artifact = Artifact::new();
    artifact.push(CELL_RESULT, w.finish());
    // Failure policy matches the flow's own checkpointing: a cache that
    // cannot persist degrades to recomputation, never to a sweep error.
    if let Err(e) = cache.store(key, &artifact) {
        qce_telemetry::debug!("[sweep] cell store failed for {}: {e}", key.stage);
    }
}

/// Probes the whole-cell entry. A present entry that does not decode
/// counts `store.corrupt` and misses, so the cell recomputes (the
/// policy of the flow's own stage checkpoints).
fn load_cell(cache: &StageCache, key: &CacheKey) -> Option<CellMetrics> {
    let artifact = cache.load(key)?;
    let decode = || -> qce_store::Result<CellMetrics> {
        let mut r = ByteReader::new(artifact.require(CELL_RESULT)?);
        let metrics = CellMetrics {
            float_accuracy: r.opt_f32()?,
            accuracy: r.f32()?,
            images: r.u32()?,
            recovered: r.u32()?,
            mean_mape: r.opt_f32()?,
            mean_ssim: r.opt_f32()?,
            bits: r.u32()?,
            compression_ratio: match r.u8()? {
                0 => None,
                _ => Some(r.f64()?),
            },
        };
        r.expect_empty()?;
        Ok(metrics)
    };
    match decode() {
        Ok(metrics) => Some(metrics),
        Err(e) => {
            qce_telemetry::counter("store.corrupt").incr(1);
            qce_telemetry::debug!("[sweep] discarding cell entry for {}: {e}", key.stage);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_metrics_survive_the_cache_codec() {
        let dir = std::env::temp_dir().join(format!("qce-sweep-codec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = StageCache::at(&dir);
        let metrics = CellMetrics {
            float_accuracy: Some(0.75),
            accuracy: 0.5,
            images: 8,
            recovered: 3,
            mean_mape: Some(12.5),
            mean_ssim: None,
            bits: 4,
            compression_ratio: Some(8.0),
        };
        let key = CacheKey::new(0xfeed, 5, CELL_STAGE);
        store_cell(&cache, &key, &metrics);
        let loaded = load_cell(&cache, &key).expect("round trip");
        assert_eq!(format!("{metrics:?}"), format!("{loaded:?}"));
        // A different key misses.
        assert!(load_cell(&cache, &CacheKey::new(0xbeef, 5, CELL_STAGE)).is_none());
        // A truncated payload misses too, and counts as corrupt.
        let corrupt = qce_telemetry::counter("store.corrupt");
        let before = corrupt.get();
        let mut w = ByteWriter::new();
        w.put_opt_f32(metrics.float_accuracy)
            .put_f32(metrics.accuracy);
        let mut truncated = Artifact::new();
        truncated.push(CELL_RESULT, w.finish());
        let bad = CacheKey::new(0xdead, 5, CELL_STAGE);
        cache.store(&bad, &truncated).unwrap();
        assert!(load_cell(&cache, &bad).is_none());
        assert!(corrupt.get() > before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
