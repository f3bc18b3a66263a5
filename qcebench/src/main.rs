//! `qcebench` — the qce workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path qcebench/Cargo.toml -- \
//!     --workload attack_flow --seed 1 --seconds 28 --trace 0
//! ```
//!
//! Each invocation runs one workload in a fresh process, checks every
//! op's output, prints every metric by name with its unit, and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is the traced
//! run, which reports the per-layer metrics and writes its spans as
//! `qce-telemetry` JSONL under `.qcebench-runs/`. See `README.md`.

mod layers;
mod run;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

use qce_telemetry::json::ObjWriter;

use run::{nproc, peak_rss_mb, reset_env, RunDir, RUNS_DIR, SETUP_LINE, SETUP_ONLY_FLAG};
use stats::{median, per_layer, tail, valid_name, valid_unit, END_TO_END};
use workloads::{Ctx, Report, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Stop after set-up and print its [`SETUP_LINE`] (a cold set-up
    /// sample for a parent run).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let take = |map: &mut BTreeMap<String, String>, key: &str| {
        map.remove(key).ok_or_else(|| format!("missing --{key}"))
    };
    let workload = take(&mut map, "workload")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            NAMES.join(", ")
        ));
    }
    let seed = take(&mut map, "seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take(&mut map, "seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let traced = match take(&mut map, "trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let setup_only = match map
        .remove(SETUP_ONLY_FLAG.trim_start_matches('-'))
        .as_deref()
    {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("{SETUP_ONLY_FLAG} must be 0 or 1, not {other:?}")),
    };
    if let Some(extra) = map.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
        setup_only,
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qcebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let started = std::time::Instant::now();
    let args = parse_args()?;
    let nproc = nproc();
    // Every flow computes on one thread: the clients of serve_mix and
    // the workers of sweep_grid are nproc flows at once, and a second
    // busy vCPU per flow draws host steal time that made single-client
    // flows vary by up to 2x between runs.
    let compute_threads = 1;
    let env = reset_env(compute_threads);
    let dir = RunDir::create(&args.workload, args.seed).map_err(|e| format!("run dir: {e}"))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        setup_only: args.setup_only,
        started,
        nproc,
        dir,
    };
    println!(
        "qcebench workload={} seed={} seconds={} trace={} nproc={nproc} QCE_THREADS={compute_threads}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    println!("environment on entry (cleared): {}", env.join(" "));

    let measured = measure(&args, &ctx);
    // The run directory goes on every path, failed runs included.
    let removed = ctx.dir.finish();
    let (report, metrics) = measured?;
    removed.map_err(|e| format!("removing run dir: {e}"))?;
    if args.setup_only {
        let checks = &report.checks;
        for f in &checks.failures {
            eprintln!("qcebench: set-up check failed: {f}");
        }
        println!(
            "{SETUP_LINE} {} {} {}",
            report.setup_s[0], checks.attempted, checks.failed
        );
        return Ok(());
    }

    for note in &report.notes {
        println!("{note}");
    }
    let mut total = run::Phase::default();
    let phases = [
        Some(&report.checks),
        Some(&report.phase),
        report.traced.as_ref(),
    ];
    for p in phases.into_iter().flatten() {
        total.attempted += p.attempted;
        total.failed += p.failed;
        for f in &p.failures {
            println!("FAILED: {f}");
        }
    }
    let (attempted, failed) = (total.attempted, total.failed);
    println!(
        "op_fail_ratio = {} ratio ({failed} failed of {attempted} attempted)",
        total.fail_ratio()
    );
    let mut json_metrics = ObjWriter::new();
    for (name, value, unit) in &metrics {
        if !value.is_finite() || !valid_name(name) || !valid_unit(unit) {
            return Err(format!("metric {name} = {value} {unit} is malformed"));
        }
        println!("{name} = {value} {unit}");
        let mut m = ObjWriter::new();
        m.num("value", *value).str("unit", unit);
        json_metrics.raw(name, &m.finish());
    }
    let mut out = ObjWriter::new();
    out.bool("correct", failed == 0)
        .uint("attempted", attempted)
        .uint("failed", failed)
        .raw("metrics", &json_metrics.finish());
    println!("{}", out.finish());
    Ok(())
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

/// Runs the workload (and, in the traced run, the layer drives) and
/// computes the metrics this run reports.
fn measure(args: &Args, ctx: &Ctx) -> Result<(Report, Vec<Metric>), String> {
    let started = std::time::Instant::now();
    let steal_before = run::host_steal_s();
    let mut report = match args.workload.as_str() {
        "attack_flow" => workloads::attack_flow::run(ctx),
        "release_arms" => workloads::release_arms::run(ctx),
        "serve_mix" => workloads::serve_mix::run(ctx),
        _ => workloads::sweep_grid::run(ctx),
    }?;
    if args.setup_only {
        return Ok((report, Vec::new()));
    }
    if let (Some(a), Some(b)) = (steal_before, run::host_steal_s()) {
        report.notes.push(format!(
            "host steal time during the workload: {:.2} s over {:.1} s of wall time on {} CPUs",
            b - a,
            started.elapsed().as_secs_f64(),
            ctx.nproc
        ));
    }
    if !args.traced {
        let metrics = end_to_end_metrics(&report)?;
        return Ok((report, metrics));
    }
    match layers::drive(ctx) {
        Ok(extra) => report.layer.extend(extra),
        Err(e) => report.checks.fail(format!("layer drive: {e}")),
    }
    report.checks.attempted += 1;
    let path = std::path::Path::new(RUNS_DIR).join(format!(
        "trace-{}-s{}-p{}.jsonl",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::write(&path, trace::to_jsonl())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("trace: {}", path.display());
    let metrics = per_layer_metrics(&report);
    Ok((report, metrics))
}

fn end_to_end_metrics(report: &Report) -> Result<Vec<Metric>, String> {
    let p = &report.phase;
    let setup = median(&report.setup_s).ok_or("no set-up was timed")?;
    println!(
        "setup_s samples, process start to first timed op, this process then its {} set-up-only children: {:?} (median reported)",
        run::COLD_SETUPS,
        report.setup_s
    );
    let p50 = median(&p.latencies_ms).ok_or("no op completed")?;
    let t = tail(&p.latencies_ms)
        .ok_or_else(|| format!("only {} ops: no tail percentile", p.latencies_ms.len()))?;
    println!(
        "op_tail_ms is p{:.1} of n={} ops, timed over {:.3} s",
        t.percentile, t.n, p.wall_s
    );
    println!(
        "recovered_frac base: {} of {} encoded images over the roster",
        report.quality.recovered, report.quality.encoded
    );
    let values = [
        setup,
        p.ops_per_s(),
        p50,
        t.value,
        peak_rss_mb()?,
        report.quality.recovered_frac(),
        report.quality.release_accuracy(),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect())
}

fn per_layer_metrics(report: &Report) -> Vec<Metric> {
    let spans = trace::closed();
    let span_median = |name: &str| median(&trace::durations_ms(&spans, name));
    // The workload's own figures come first in `report.layer` and win
    // over the layer drives'.
    let mut supplied: BTreeMap<&str, f64> = BTreeMap::new();
    for (n, v) in &report.layer {
        supplied.entry(n.as_str()).or_insert(*v);
    }
    let untraced = report.phase.ops_per_s();
    let traced = report.traced.as_ref().map_or(0.0, run::Phase::ops_per_s);
    let mut idle = Vec::new();
    let out = per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = match name.as_str() {
                "trace.ops_per_s_untraced" => Some(untraced),
                "trace.ops_per_s_traced" => Some(traced),
                "trace.overhead_pct" => Some(100.0 * (1.0 - traced / untraced.max(1e-12))),
                "nn.bwd_fwd_ratio" => span_median("nn.bwd")
                    .zip(span_median("nn.fwd"))
                    .map(|(b, f)| b / f),
                n => supplied
                    .get(n)
                    .copied()
                    .or_else(|| n.strip_suffix("_ms").and_then(span_median)),
            };
            if value.is_none() {
                idle.push(name.clone());
            }
            (name, value.unwrap_or(0.0), unit)
        })
        .collect();
    if !idle.is_empty() {
        println!(
            "not exercised on this workload (reported as 0): {}",
            idle.join(" ")
        );
    }
    out
}
