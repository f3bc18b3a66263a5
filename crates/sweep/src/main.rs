//! `sweep` — declarative grid sweeps over the attack flow.
//!
//! ```text
//! sweep expand --grid grid.json                      show the expansion
//! sweep run    --grid grid.json --out DIR [--shard i/n] [--workers K]
//!              [--cache DIR] [--limit N]
//! sweep merge  --out DIR [--report FILE] [--markdown FILE]
//! ```
//!
//! `run` executes one shard (default `0/1` = everything) and writes
//! `DIR/partial-<i>of<n>.json`; `merge` folds every partial in `DIR`
//! into the canonical `SweepReport.json`. Stats go to stdout as one
//! JSON object per command — `store_write_delta` is `0` exactly when
//! the run answered entirely from a warm cache. Cell time is measured
//! by the benchmark's `sweep_grid` workload.
//!
//! Exit codes: 0 = pass, 2 = usage / spec / runtime error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use qce_store::StageCache;
use qce_sweep::{
    merge_partials, parse_grid, partial_json, run_cells, ExecOptions, Grid, SweepError,
};
use qce_telemetry::bench::percentile;
use qce_telemetry::json::ObjWriter;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "expand" => cmd_expand(rest),
        "run" => cmd_run(rest),
        "merge" => cmd_merge(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("sweep: unknown command {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sweep: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: sweep <expand|run|merge> [options]
  expand  parse a grid spec and print its expansion (one line per cell)
  run     execute one shard of a grid and write its partial document
  merge   fold every partial under --out into the canonical SweepReport
options:
  --grid FILE      grid spec JSON (expand, run)
  --out DIR        partial/report directory (default: sweep-out)
  --shard i/n      run only cells with cell_key % n == i (default: 0/1)
  --workers K      worker threads for cell execution (default: 1)
  --cache DIR      stage cache root (default: $QCE_CACHE when set)
  --limit N        run only the first N queued cells, then stop —
                   deterministic stand-in for a mid-run kill
  --report FILE    merge: report path (default: --out/SweepReport.json)
  --markdown FILE  merge: also render the leaderboard markdown";

struct Opts {
    grid: Option<PathBuf>,
    out: PathBuf,
    shard: u64,
    shards: u64,
    workers: usize,
    cache: Option<PathBuf>,
    limit: Option<usize>,
    report: Option<PathBuf>,
    markdown: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, SweepError> {
    let mut opts = Opts {
        grid: None,
        out: PathBuf::from("sweep-out"),
        shard: 0,
        shards: 1,
        workers: 1,
        cache: None,
        limit: None,
        report: None,
        markdown: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| SweepError::spec(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--grid" => opts.grid = Some(PathBuf::from(value("--grid")?)),
            "--out" => opts.out = PathBuf::from(value("--out")?),
            "--shard" => {
                let raw = value("--shard")?;
                let parsed = raw.split_once('/').and_then(|(i, n)| {
                    match (i.parse::<u64>(), n.parse::<u64>()) {
                        (Ok(i), Ok(n)) if n > 0 && i < n => Some((i, n)),
                        _ => None,
                    }
                });
                let Some((shard, shards)) = parsed else {
                    return Err(SweepError::spec(format!(
                        "--shard {raw:?} is not i/n with 0 <= i < n"
                    )));
                };
                opts.shard = shard;
                opts.shards = shards;
            }
            "--workers" => {
                let raw = value("--workers")?;
                opts.workers = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|w| *w > 0)
                    .ok_or_else(|| {
                        SweepError::spec(format!("--workers {raw:?} is not a positive integer"))
                    })?;
            }
            "--cache" => opts.cache = Some(PathBuf::from(value("--cache")?)),
            "--limit" => {
                let raw = value("--limit")?;
                opts.limit =
                    Some(raw.parse::<usize>().map_err(|_| {
                        SweepError::spec(format!("--limit {raw:?} is not an integer"))
                    })?);
            }
            "--report" => opts.report = Some(PathBuf::from(value("--report")?)),
            "--markdown" => opts.markdown = Some(PathBuf::from(value("--markdown")?)),
            other => return Err(SweepError::spec(format!("unknown option {other:?}"))),
        }
    }
    Ok(opts)
}

fn load_grid(opts: &Opts) -> Result<Grid, SweepError> {
    let Some(path) = &opts.grid else {
        return Err(SweepError::spec("--grid FILE is required"));
    };
    parse_grid(&read(path)?)
}

fn cmd_expand(args: &[String]) -> Result<ExitCode, SweepError> {
    let opts = parse_opts(args)?;
    let grid = load_grid(&opts)?;
    for cell in &grid.cells {
        let axes = cell
            .axes
            .iter()
            .map(|(a, v)| format!("{a}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!("{}  key={:016x}  {axes}", cell.name, cell.key);
    }
    let mut w = ObjWriter::new();
    w.str("grid", &grid.name)
        .uint("cells", grid.cells.len() as u64)
        .raw(
            "axes",
            &format!(
                "[{}]",
                grid.axes
                    .iter()
                    .map(|a| format!("{a:?}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        )
        .str("spec_digest", &format!("{:016x}", grid.spec_digest));
    println!("{}", w.finish());
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, SweepError> {
    let opts = parse_opts(args)?;
    let grid = load_grid(&opts)?;
    let cells = grid.shard_cells(opts.shard, opts.shards);
    let exec = ExecOptions {
        workers: opts.workers,
        cache: match &opts.cache {
            Some(dir) => Some(StageCache::at(dir)),
            None => StageCache::from_env(),
        },
        limit: opts.limit,
    };

    let store_before = store_counters();
    let started = Instant::now();
    let runs = run_cells(&cells, &exec)?;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let store_after = store_counters();

    std::fs::create_dir_all(&opts.out)
        .map_err(|e| SweepError::io(format!("creating {}", opts.out.display()), e))?;
    let partial_path = opts
        .out
        .join(format!("partial-{}of{}.json", opts.shard, opts.shards));
    // A `--limit` run is incomplete by construction: it must not leave a
    // partial that a later merge would mistake for full shard coverage.
    // The work itself is preserved in the stage cache; the resumed full
    // run replays it and writes the real partial.
    if opts.limit.is_none() || runs.len() == cells.len() {
        std::fs::write(
            &partial_path,
            partial_json(&grid, opts.shard, opts.shards, &runs),
        )
        .map_err(|e| SweepError::io(format!("writing {}", partial_path.display()), e))?;
    } else {
        eprintln!(
            "sweep: --limit stopped after {}/{} cells; no partial written \
             (cached work is kept — rerun without --limit to finish)",
            runs.len(),
            cells.len()
        );
    }

    let cached = runs.iter().filter(|r| r.cached).count();
    let mut walls: Vec<f64> = runs.iter().map(|r| r.wall_ms).collect();
    walls.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let delta = |name: &str| {
        store_after.get(name).copied().unwrap_or(0) - store_before.get(name).copied().unwrap_or(0)
    };
    let mut stats = ObjWriter::new();
    stats
        .str("grid", &grid.name)
        .uint("shard", opts.shard)
        .uint("shards", opts.shards)
        .uint("cells", runs.len() as u64)
        .uint("cached_cells", cached as u64)
        .num("wall_ms", wall_ms)
        .num(
            "cells_per_sec",
            if wall_ms > 0.0 {
                runs.len() as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
        )
        .num("p50_cell_ms", percentile(&walls, 50.0))
        .num("p99_cell_ms", percentile(&walls, 99.0))
        .uint("store_write_delta", delta("store.write"))
        .uint("store_hit_delta", delta("store.hit"))
        .uint("store_miss_delta", delta("store.miss"));
    println!("{}", stats.finish());
    Ok(ExitCode::SUCCESS)
}

fn cmd_merge(args: &[String]) -> Result<ExitCode, SweepError> {
    let opts = parse_opts(args)?;
    let entries = std::fs::read_dir(&opts.out)
        .map_err(|e| SweepError::io(format!("reading {}", opts.out.display()), e))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(std::result::Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|ext| ext == "json")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("partial-"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(SweepError::spec(format!(
            "no partial-*.json under {}",
            opts.out.display()
        )));
    }
    let mut partials = Vec::with_capacity(paths.len());
    for path in &paths {
        partials.push(read(path)?);
    }
    let report = merge_partials(&partials)?;

    let report_path = opts
        .report
        .clone()
        .unwrap_or_else(|| opts.out.join("SweepReport.json"));
    std::fs::write(&report_path, report.render_json())
        .map_err(|e| SweepError::io(format!("writing {}", report_path.display()), e))?;
    if let Some(md_path) = &opts.markdown {
        std::fs::write(md_path, report.render_markdown())
            .map_err(|e| SweepError::io(format!("writing {}", md_path.display()), e))?;
    }

    let mut stats = ObjWriter::new();
    stats
        .str("grid", &report.grid)
        .uint("partials", paths.len() as u64)
        .uint("cells", report.cells.len() as u64)
        .uint("pareto_cells", report.pareto.len() as u64)
        .str("digest", &report.digest_hex())
        .str("report", &report_path.display().to_string());
    println!("{}", stats.finish());
    Ok(ExitCode::SUCCESS)
}

fn store_counters() -> std::collections::BTreeMap<String, u64> {
    qce_telemetry::snapshot()
        .counters_with_prefix(&["store."])
        .into_iter()
        .collect()
}

fn read(path: &Path) -> Result<String, SweepError> {
    std::fs::read_to_string(path)
        .map_err(|e| SweepError::io(format!("reading {}", path.display()), e))
}
