//! End-to-end sweep properties — the acceptance surface of the sweep
//! orchestrator:
//!
//! * a ≥64-cell sweep killed mid-run (via `limit`) and resumed merges
//!   to the byte-identical report of an uninterrupted run;
//! * `--shard 0/2` + `--shard 1/2` partials merge to the byte-identical
//!   single-process report, from a cold cache and at different worker
//!   counts;
//! * shard assignment partitions the grid exactly (proptest);
//! * every cell's content-addressed key is distinct — including cells
//!   that differ only in swept-axis state living *outside* `FlowConfig`
//!   (fault plans) or added to it this release (λ schedules), the
//!   regression surface of stage-cache key collisions;
//! * a cold run writes the same stage-cache entries at any worker count.

use std::path::PathBuf;
use std::process::Command;

use proptest::prelude::*;
use qce_store::StageCache;
use qce_sweep::{merge_partials, parse_grid, partial_json, run_cells, ExecOptions, Grid};
use qce_telemetry::json::{parse, JsonValue};

/// 64 cells over five axes; 2·2 = 4 distinct trainings (λ × schedule),
/// everything else reuses their checkpoints. The dataset is the
/// smallest geometry the flow accepts so the whole matrix stays fast.
const GRID_64: &str = r#"{
  "name": "resume-proof",
  "base": {
    "dataset": {"kind": "cifar", "size": 8, "classes": 2, "count": 32, "seed": 5},
    "flow": {"epochs": 1, "batch_size": 16,
             "grouping": {"kind": "uniform", "lambda": 5},
             "band": {"kind": "first_n"},
             "quant": {"method": "kmeans", "bits": 4, "finetune_epochs": 0}}
  },
  "axes": [
    {"axis": "lambda", "values": [3, 5]},
    {"axis": "lambda_schedule", "values": ["warmup", "constant"]},
    {"axis": "bits", "values": [2, 4]},
    {"axis": "quant_method", "values": ["kmeans", "linear"]},
    {"axis": "fault", "values": [null,
        {"seed": 3, "faults": [{"kind": "bit_flip", "rate": 0.002}]},
        {"seed": 3, "faults": [{"kind": "prune", "fraction": 0.25}]},
        {"seed": 4, "faults": [{"kind": "gaussian_noise", "fraction": 0.05}]}]}
  ]
}"#;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qce-sweep-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn exec(cache: &StageCache, workers: usize, limit: Option<usize>) -> ExecOptions {
    ExecOptions {
        workers,
        cache: Some(cache.clone()),
        limit,
    }
}

/// Runs one shard and renders its partial document.
fn shard_partial(
    grid: &Grid,
    shard: u64,
    shards: u64,
    cache: &StageCache,
    workers: usize,
) -> String {
    let cells = grid.shard_cells(shard, shards);
    let runs = run_cells(&cells, &exec(cache, workers, None)).expect("shard run");
    partial_json(grid, shard, shards, &runs)
}

#[test]
fn grid_expands_to_64_distinct_cells() {
    let grid = parse_grid(GRID_64).expect("grid");
    assert_eq!(grid.cells.len(), 64);
    let mut keys: Vec<u64> = grid.cells.iter().map(|c| c.key).collect();
    keys.sort_unstable();
    keys.dedup();
    // Distinct keys even for cells that differ only in the λ schedule
    // (new FlowConfig field) or the fault plan (outside FlowConfig) —
    // the stage-cache collision regression this release fixes.
    assert_eq!(keys.len(), 64, "cell keys must be pairwise distinct");
}

#[test]
fn killed_and_resumed_sweep_merges_byte_identical_to_uninterrupted() {
    let grid = parse_grid(GRID_64).expect("grid");

    // Reference: uninterrupted single-process run, 4 workers.
    let cache_a = StageCache::at(tmp_dir("uninterrupted"));
    let reference = merge_partials(&[shard_partial(&grid, 0, 1, &cache_a, 4)])
        .expect("merge")
        .render_json();

    // Killed mid-run: only the first 13 cells complete, then the
    // process "dies". The resumed run (different worker count on
    // purpose) replays those 13 from the whole-cell cache and computes
    // the rest.
    let cache_b = StageCache::at(tmp_dir("resumed"));
    let first = run_cells(&grid.cells, &exec(&cache_b, 2, Some(13))).expect("limited run");
    assert_eq!(first.len(), 13);
    assert!(first.iter().all(|r| !r.cached), "cold cache must not hit");

    let resumed = run_cells(&grid.cells, &exec(&cache_b, 1, None)).expect("resumed run");
    assert_eq!(resumed.len(), 64);
    assert_eq!(
        resumed.iter().filter(|r| r.cached).count(),
        13,
        "exactly the killed run's finished cells replay from cache"
    );
    let report_b = merge_partials(&[partial_json(&grid, 0, 1, &resumed)])
        .expect("merge")
        .render_json();
    assert_eq!(reference, report_b, "resumed report must be byte-identical");

    // Warm re-run: everything answers from the whole-cell cache and the
    // report bytes still hold.
    let warm = run_cells(&grid.cells, &exec(&cache_b, 4, None)).expect("warm run");
    assert!(
        warm.iter().all(|r| r.cached),
        "warm re-run must be all hits"
    );
    let report_warm = merge_partials(&[partial_json(&grid, 0, 1, &warm)])
        .expect("merge")
        .render_json();
    assert_eq!(reference, report_warm);

    for dir in [cache_a.dir(), cache_b.dir()] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn sharded_runs_merge_byte_identical_to_single_process() {
    let grid = parse_grid(GRID_64).expect("grid");

    let cache_single = StageCache::at(tmp_dir("single"));
    let single = merge_partials(&[shard_partial(&grid, 0, 1, &cache_single, 2)])
        .expect("merge")
        .render_json();

    // Two shards, separate cold caches (nothing shared but the spec),
    // different worker counts, merged in reverse order.
    let cache_s0 = StageCache::at(tmp_dir("shard0"));
    let cache_s1 = StageCache::at(tmp_dir("shard1"));
    let p0 = shard_partial(&grid, 0, 2, &cache_s0, 1);
    let p1 = shard_partial(&grid, 1, 2, &cache_s1, 3);
    let merged = merge_partials(&[p1, p0]).expect("merge").render_json();

    assert_eq!(single, merged, "sharded merge must be byte-identical");
    assert!(merged.contains("\"digest\":\""));

    for dir in [cache_single.dir(), cache_s0.dir(), cache_s1.dir()] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// One flow × the fault axis: four cells that share every stage
/// checkpoint of their flow.
const GRID_FAULTS: &str = r#"{
  "name": "shared-stages",
  "base": {
    "dataset": {"kind": "cifar", "size": 8, "classes": 2, "count": 32, "seed": 5},
    "flow": {"epochs": 1, "batch_size": 16,
             "grouping": {"kind": "uniform", "lambda": 5},
             "band": {"kind": "first_n"},
             "quant": {"method": "kmeans", "bits": 4, "finetune_epochs": 0}}
  },
  "axes": [
    {"axis": "fault", "values": [null,
        {"seed": 3, "faults": [{"kind": "bit_flip", "rate": 0.002}]},
        {"seed": 3, "faults": [{"kind": "prune", "fraction": 0.25}]},
        {"seed": 4, "faults": [{"kind": "gaussian_noise", "fraction": 0.05}]}]}
  ]
}"#;

/// `store_write_delta` of one cold `sweep run` of `grid` in its own
/// process (the store counters are process-global).
fn cold_store_writes(dir: &std::path::Path, grid: &std::path::Path, workers: usize) -> u64 {
    let tag = format!("w{workers}");
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .arg("run")
        .arg("--grid")
        .arg(grid)
        .arg("--out")
        .arg(dir.join(format!("out-{tag}")))
        .arg("--cache")
        .arg(dir.join(format!("cache-{tag}")))
        .arg("--workers")
        .arg(workers.to_string())
        .output()
        .expect("spawn sweep");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stats = parse(stdout.trim()).expect("stats line");
    stats
        .get("store_write_delta")
        .and_then(JsonValue::as_u64)
        .expect("store_write_delta")
}

#[test]
fn cold_run_writes_each_stage_entry_once_at_any_worker_count() {
    let dir = tmp_dir("workers");
    std::fs::create_dir_all(&dir).unwrap();
    let grid = dir.join("grid.json");
    std::fs::write(&grid, GRID_FAULTS).unwrap();
    let serial = cold_store_writes(&dir, &grid, 1);
    let parallel = cold_store_writes(&dir, &grid, 2);
    assert!(serial > 0, "a cold run writes stage entries");
    assert_eq!(
        parallel, serial,
        "two workers computed a shared stage checkpoint twice"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// Shard assignment is a pure function of cell content: for any shard
// count the shards are disjoint and their union is the whole grid, and
// membership never depends on expansion order.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn shards_partition_the_grid_for_any_shard_count(shards in 1u64..9) {
        let grid = parse_grid(GRID_64).expect("grid");
        let mut union: Vec<usize> = Vec::new();
        for shard in 0..shards {
            let cells = grid.shard_cells(shard, shards);
            for cell in &cells {
                prop_assert_eq!(cell.key % shards, shard);
            }
            union.extend(cells.iter().map(|c| c.index));
        }
        let mut sorted = union.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), union.len(), "shards must not overlap");
        prop_assert_eq!(sorted, (0..grid.cells.len()).collect::<Vec<_>>());
    }
}
