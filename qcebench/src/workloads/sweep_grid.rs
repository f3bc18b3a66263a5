//! `sweep_grid`: rounds of one `qce_sweep::run_cells` call with one
//! worker and `QCE_THREADS=1`, each on a fresh run-private cold cache,
//! followed by `partial_json` + `merge_partials`. Each op is one cell.
//!
//! One worker, not `nproc`: two cells training at once on a 2-vCPU VM
//! drew host steal time that spread `ops_per_s` by a third of its median
//! across seeds.
//!
//! The benchmark's own grid mixes axes that retrain (λ and bits are in
//! the flow-config hash: 2 × 3 = 6 trained cells) with fault variants
//! that reuse a trained checkpoint (3 per trained cell: 18 reused
//! cells). The fault axis is listed first, so expansion puts every
//! clean cell before the fault variants; the workload seed shuffles the
//! order within each of the two blocks, every round.

use std::time::{Duration, Instant};

use qce_store::StageCache;
use qce_sweep::{merge_partials, parse_grid, partial_json, run_cells, Cell, ExecOptions, Grid};

use super::{timed_phases, timed_setup, Ctx, Quality, Report};
use crate::run::{ms_since, Phase, Rng};
use crate::stats::median;
use crate::trace;

/// The benchmark's grid.
pub const GRID: &str = r#"{
  "name": "qcebench",
  "max_cells": 64,
  "base": {
    "dataset": {"kind": "cifar", "size": 8, "classes": 4, "count": 96, "seed": 7},
    "flow": {"epochs": 2, "batch_size": 16, "stage_channels": [8, 16, 32],
             "blocks_per_stage": 2,
             "band": {"kind": "explicit", "min": 50, "max": 55},
             "quant": {"method": "target_correlated", "bits": 4, "finetune_epochs": 0}}
  },
  "axes": [
    {"axis": "fault", "values": [null,
        {"seed": 3, "faults": [{"kind": "bit_flip", "rate": 0.002}]},
        {"seed": 3, "faults": [{"kind": "prune", "fraction": 0.25}]},
        {"seed": 4, "faults": [{"kind": "gaussian_noise", "fraction": 0.05}]}]},
    {"axis": "lambda", "values": [3, 5]},
    {"axis": "bits", "values": [2, 4, 6]}
  ]
}"#;

/// Worker threads of `run_cells`.
const WORKERS: usize = 1;

/// Recorded digest of the merged report of [`GRID`].
pub const EXPECTED_DIGEST: &str = "bebd87fd63044069";

fn expand(spec: &str) -> Result<Grid, String> {
    let _s = trace::span("sweep.expand");
    parse_grid(spec).map_err(|e| e.to_string())
}

/// One round of [`GRID`] in expansion order, checked, for the layer
/// drives of every traced run; returns its cell timings and reuse ratio.
pub fn drive_once(ctx: &Ctx) -> Result<Vec<(String, f64)>, String> {
    let grid = expand(GRID)?;
    let r = round(ctx, &grid, &grid.cells)?;
    check_digest(&r.digest)?;
    Ok(cell_figures(&grid, &r.cells))
}

/// Median wall time of the trained and of the reusing cells among
/// `cells` (`(wall_ms, reused)`), and the grid's share of reusing cells.
fn cell_figures(grid: &Grid, cells: &[(f64, bool)]) -> Vec<(String, f64)> {
    let wall = |reused: bool| {
        let walls: Vec<f64> = cells
            .iter()
            .filter(|c| c.1 == reused)
            .map(|c| c.0)
            .collect();
        median(&walls).unwrap_or(0.0)
    };
    let reused = grid.cells.iter().filter(|c| reuses_training(c)).count();
    vec![
        ("sweep.cell_trained_ms".to_string(), wall(false)),
        ("sweep.cell_reused_ms".to_string(), wall(true)),
        (
            "sweep.train_reuse_ratio".to_string(),
            reused as f64 / grid.cells.len() as f64,
        ),
    ]
}

/// Whether a cell replays its training from another cell's checkpoint.
fn reuses_training(cell: &Cell) -> bool {
    cell.scenario.fault.is_some()
}

/// The round's cell order: the trained block, then the reusing block,
/// each shuffled.
fn round_order(grid: &Grid, rng: &mut Rng) -> Vec<Cell> {
    let (mut trained, mut reused): (Vec<Cell>, Vec<Cell>) = grid
        .cells
        .iter()
        .cloned()
        .partition(|c| !reuses_training(c));
    rng.shuffle(&mut trained);
    rng.shuffle(&mut reused);
    trained.extend(reused);
    trained
}

/// One round's result.
struct Round {
    /// `(wall_ms, reused)` per cell.
    cells: Vec<(f64, bool)>,
    digest: String,
    quality: Quality,
}

fn round(ctx: &Ctx, grid: &Grid, cells: &[Cell]) -> Result<Round, String> {
    let cache = StageCache::at(ctx.dir.fresh_cache().map_err(|e| e.to_string())?);
    let opts = ExecOptions {
        workers: WORKERS,
        cache: Some(cache),
        limit: None,
    };
    let runs = {
        let _s = trace::span("sweep.run");
        run_cells(cells, &opts).map_err(|e| e.to_string())?
    };
    let report = {
        let _s = trace::span("sweep.merge");
        merge_partials(&[partial_json(grid, 0, 1, &runs)]).map_err(|e| e.to_string())?
    };
    let mut quality = Quality::default();
    for c in &report.cells {
        quality.recovered += u64::from(c.metrics.recovered);
        quality.encoded += u64::from(c.metrics.images);
        quality.accuracies.push(f64::from(c.metrics.accuracy));
    }
    Ok(Round {
        cells: runs
            .iter()
            .zip(cells)
            .map(|(r, c)| (r.wall_ms, reuses_training(c)))
            .collect(),
        digest: report.digest_hex(),
        quality,
    })
}

fn check_digest(digest: &str) -> Result<(), String> {
    if digest == EXPECTED_DIGEST {
        Ok(())
    } else {
        Err(format!(
            "merged report digest {digest} differs from the recorded {EXPECTED_DIGEST}"
        ))
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let Some(grid) = timed_setup(ctx, &mut report, |checks| {
        let grid = expand(GRID)?;
        // Discarded warm-up of both op kinds: one clean cell and one of
        // its fault variants, in a cache of their own.
        let clean = grid
            .cells
            .iter()
            .find(|c| !reuses_training(c))
            .ok_or("grid has no clean cell")?;
        let variant = grid
            .cells
            .iter()
            .find(|c| reuses_training(c) && c.scenario.flow == clean.scenario.flow)
            .ok_or("grid has no fault variant of its first clean cell")?;
        let cache = StageCache::at(ctx.dir.fresh_cache().map_err(|e| e.to_string())?);
        let t = Instant::now();
        let warm = run_cells(
            &[clean.clone(), variant.clone()],
            &ExecOptions {
                workers: 1,
                cache: Some(cache),
                limit: None,
            },
        );
        checks.record(ms_since(t), warm.map(|_| ()).map_err(|e| e.to_string()));
        // Two clean cells at once, so the allocator arena a second
        // worker thread needs exists, and is warm, before timing. Each
        // round of the phase spawns a fresh worker; now and then it
        // starts before the previous one has handed its arena back, and
        // the arena created then lifted peak_rss_mb from about 7.5 to
        // about 9.6 MB in some runs and not in others.
        let pair: Vec<Cell> = grid
            .cells
            .iter()
            .filter(|c| !reuses_training(c))
            .take(2)
            .cloned()
            .collect();
        let cache = StageCache::at(ctx.dir.fresh_cache().map_err(|e| e.to_string())?);
        let t = Instant::now();
        let warm = run_cells(
            &pair,
            &ExecOptions {
                workers: 2,
                cache: Some(cache),
                limit: None,
            },
        );
        checks.record(ms_since(t), warm.map(|_| ()).map_err(|e| e.to_string()));
        Ok(grid)
    })?
    else {
        return Ok(report);
    };

    let mut rng = Rng::new(ctx.seed, 0x5eeb);
    let mut quality = None;
    let mut last_cells: Vec<(f64, bool)> = Vec::new();
    let mut rounds = 0u64;
    let hits0 = qce_telemetry::counter("store.hit").get();
    let writes0 = qce_telemetry::counter("store.write").get();
    let miss0 = qce_telemetry::counter("store.miss").get();
    timed_phases(ctx, &mut report, |seconds| {
        let mut phase = Phase::default();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        last_cells.clear();
        while phase.latencies_ms.is_empty() || Instant::now() < deadline {
            let cells = round_order(&grid, &mut rng);
            match round(ctx, &grid, &cells) {
                Ok(r) => {
                    let check = check_digest(&r.digest);
                    for &(wall_ms, _) in &r.cells {
                        phase.record(wall_ms, check.clone());
                    }
                    last_cells.extend(r.cells.iter().copied());
                    quality.get_or_insert(r.quality);
                }
                Err(e) => {
                    phase.attempted += cells.len() as u64;
                    phase.failed += cells.len() as u64;
                    phase.failures.push(e);
                }
            }
            rounds += 1;
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        Ok(phase)
    })?;
    report.quality = quality.unwrap_or_default();

    let reused = grid.cells.iter().filter(|c| reuses_training(c)).count();
    let hits = qce_telemetry::counter("store.hit").get() - hits0;
    let misses = qce_telemetry::counter("store.miss").get() - miss0;
    let writes = qce_telemetry::counter("store.write").get() - writes0;
    report.layer.extend(cell_figures(&grid, &last_cells));
    report.layer.extend([
        ("store.hit".to_string(), hits as f64),
        ("store.miss".to_string(), misses as f64),
        ("store.write".to_string(), writes as f64),
        (
            "store.hit_ratio".to_string(),
            hits as f64 / (hits + misses).max(1) as f64,
        ),
    ]);
    report.notes.push(format!(
        "sweep.train_reuse_ratio base: {reused} of {} cells reuse a training checkpoint; \
         {rounds} rounds; store.hit_ratio base: {hits} hits / {} lookups",
        grid.cells.len(),
        hits + misses
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_puts_trained_cells_before_reusing_ones() {
        let grid = parse_grid(GRID).unwrap();
        assert_eq!(grid.cells.len(), 24);
        let order = round_order(&grid, &mut Rng::new(1, 2));
        let first_reuse = order.iter().position(reuses_training).unwrap();
        assert_eq!(first_reuse, 6);
        assert!(order[first_reuse..].iter().all(reuses_training));
        // Each reusing cell has a trained cell with the same flow.
        for c in &order[first_reuse..] {
            assert!(order[..first_reuse]
                .iter()
                .any(|t| t.scenario.flow == c.scenario.flow
                    && t.scenario.dataset == c.scenario.dataset));
        }
    }

    #[test]
    fn a_doctored_digest_fails_every_cell_of_the_round() {
        let mut phase = Phase::default();
        let check = check_digest("0123456789abcdef");
        for _ in 0..3 {
            phase.record(1.0, check.clone());
        }
        assert_eq!(phase.fail_ratio(), 1.0);
    }
}
