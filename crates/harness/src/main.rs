//! `harness` — scenario conformance runner and CI regression gate.
//!
//! ```text
//! harness init       [--dir conformance]            write builtin scenario specs
//! harness list       [--dir conformance]            list scenarios
//! harness run        [--dir conformance] [--scenario NAME]   run + print report JSON
//! harness bless      [--dir conformance] [--scenario NAME]   regenerate golden artifacts
//! harness check      [--dir conformance] [--scenario NAME] [--out conformance-out]
//! harness bench-gate --fresh FRESH.json --baseline BASELINE.json [--threshold 0.20]
//! ```
//!
//! Exit codes: 0 = pass, 1 = gate violation or unusable golden,
//! 2 = usage / runtime error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use qce_harness::{
    bench_gate, diff_reports, leaderboard_markdown, load_scenarios, report_from_json, run_scenario,
    ConformanceReport, HarnessError, Scenario, Tolerances, Violation,
};
use qce_telemetry::bench::BenchFile;

fn main() -> ExitCode {
    // A warm stage cache would skip pipeline stages and change the
    // exported telemetry counters; conformance runs must always be cold.
    std::env::remove_var(qce_store::CACHE_ENV);

    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "init" => cmd_init(rest),
        "list" => cmd_list(rest),
        "run" => cmd_run(rest),
        "bless" => cmd_bless(rest),
        "check" => cmd_check(rest),
        "leaderboard" => cmd_leaderboard(rest),
        "bench-gate" => cmd_bench_gate(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("harness: unknown command {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(e @ HarnessError::Rebless { .. }) => {
            eprintln!("harness: {e}");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("harness: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: harness <init|list|run|bless|check|leaderboard|bench-gate> [options]
  init        write the builtin scenario specs under --dir
              (--tournament writes the defense-tournament set instead)
  list        list scenarios under --dir (channel, quant, fault/defense axes)
  run         run scenarios and print their report JSON
  bless       run scenarios and (re)write golden artifacts under --dir/golden
  check       run scenarios and diff against goldens; nonzero on any violation
  leaderboard render the defense-sweep reports under --out as a markdown table
  bench-gate  diff a fresh bench record against its committed baseline
options:
  --dir DIR        conformance root (default: conformance)
  --tournament     init: write the tournament scenario set instead of the builtins
  --scenario NAME  restrict run/bless/check to one scenario
  --out DIR        where check writes fresh report JSON (default: conformance-out);
                   where leaderboard reads report JSON from
  --fresh FILE     bench-gate: fresh bench record, e.g. a benchmark's last line (required)
  --baseline FILE  bench-gate: committed baseline record (required)
  --threshold X    bench-gate: relative slowdown allowed (default: 0.20)";

struct Opts {
    dir: PathBuf,
    tournament: bool,
    scenario: Option<String>,
    out: PathBuf,
    fresh: Option<PathBuf>,
    baseline: Option<PathBuf>,
    threshold: f64,
}

fn parse_opts(args: &[String]) -> Result<Opts, HarnessError> {
    let mut opts = Opts {
        dir: PathBuf::from("conformance"),
        tournament: false,
        scenario: None,
        out: PathBuf::from("conformance-out"),
        fresh: None,
        baseline: None,
        threshold: qce_harness::DEFAULT_BENCH_THRESHOLD,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| HarnessError::spec(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--dir" => opts.dir = PathBuf::from(value("--dir")?),
            "--tournament" => opts.tournament = true,
            "--scenario" => opts.scenario = Some(value("--scenario")?),
            "--out" => opts.out = PathBuf::from(value("--out")?),
            "--fresh" => opts.fresh = Some(PathBuf::from(value("--fresh")?)),
            "--baseline" => opts.baseline = Some(PathBuf::from(value("--baseline")?)),
            "--threshold" => {
                let raw = value("--threshold")?;
                opts.threshold = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| {
                        HarnessError::spec(format!("--threshold {raw:?} is not a valid fraction"))
                    })?;
            }
            other => return Err(HarnessError::spec(format!("unknown option {other:?}"))),
        }
    }
    Ok(opts)
}

fn selected_scenarios(opts: &Opts) -> Result<Vec<Scenario>, HarnessError> {
    let dir = opts.dir.join("scenarios");
    let mut scenarios = load_scenarios(&dir)?;
    if let Some(name) = &opts.scenario {
        scenarios.retain(|s| &s.name == name);
        if scenarios.is_empty() {
            return Err(HarnessError::spec(format!(
                "no scenario named {name:?} under {}",
                dir.display()
            )));
        }
    }
    Ok(scenarios)
}

fn cmd_init(args: &[String]) -> Result<ExitCode, HarnessError> {
    let opts = parse_opts(args)?;
    let dir = opts.dir.join("scenarios");
    std::fs::create_dir_all(&dir)
        .map_err(|e| HarnessError::io(format!("creating {}", dir.display()), e))?;
    let scenarios = if opts.tournament {
        Scenario::tournament()
    } else {
        Scenario::builtin()
    };
    for scenario in scenarios {
        let path = dir.join(format!("{}.json", scenario.name));
        std::fs::write(&path, scenario.to_json() + "\n")
            .map_err(|e| HarnessError::io(format!("writing {}", path.display()), e))?;
        println!("wrote {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_list(args: &[String]) -> Result<ExitCode, HarnessError> {
    let opts = parse_opts(args)?;
    for scenario in selected_scenarios(&opts)? {
        let kind = if scenario.fault.is_some() {
            "faulted".to_string()
        } else if !scenario.defenses.is_empty() {
            format!("defended×{}", scenario.defenses.len())
        } else {
            "clean".to_string()
        };
        let channel = match scenario.flow.channel {
            qce::EncodingChannel::Correlation => "correlation".to_string(),
            qce::EncodingChannel::StatSign { .. } => "statsign".to_string(),
        };
        let quant = match scenario.flow.quant {
            Some(q) => format!("{:?} {}-bit", q.method, q.bits),
            None => "no quantization".to_string(),
        };
        let axes = if scenario.defenses.is_empty() {
            String::new()
        } else {
            let names: Vec<&str> = scenario.defenses.iter().map(|(n, _)| n.as_str()).collect();
            format!("  [{}]", names.join(", "))
        };
        println!(
            "{:<24} {kind:<12} {channel:<12} {quant}{axes}",
            scenario.name
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_leaderboard(args: &[String]) -> Result<ExitCode, HarnessError> {
    let opts = parse_opts(args)?;
    let entries = std::fs::read_dir(&opts.out)
        .map_err(|e| HarnessError::io(format!("reading report dir {}", opts.out.display()), e))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(std::result::Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut reports = Vec::with_capacity(paths.len());
    for path in paths {
        let body = read(&path)?;
        let report = report_from_json(&body)
            .map_err(|e| HarnessError::spec(format!("{}: {e}", path.display())))?;
        reports.push(report);
    }
    print!("{}", leaderboard_markdown(&reports));
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, HarnessError> {
    let opts = parse_opts(args)?;
    for scenario in selected_scenarios(&opts)? {
        let report = run_scenario(&scenario)?;
        println!("{}", report.to_json());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_bless(args: &[String]) -> Result<ExitCode, HarnessError> {
    let opts = parse_opts(args)?;
    let golden_dir = opts.dir.join("golden");
    for scenario in selected_scenarios(&opts)? {
        let report = run_scenario(&scenario)?;
        let path = report.write_golden(&golden_dir)?;
        eprintln!("blessed {} ({:.0} ms)", path.display(), report.wall_ms);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_check(args: &[String]) -> Result<ExitCode, HarnessError> {
    let opts = parse_opts(args)?;
    let golden_dir = opts.dir.join("golden");
    let mut failures = 0usize;
    for scenario in selected_scenarios(&opts)? {
        let fresh = run_scenario(&scenario)?;
        write_fresh_report(&opts.out, &fresh)?;
        let golden = match ConformanceReport::read_golden(&golden_dir, &scenario.name) {
            Ok(golden) => golden,
            Err(e @ HarnessError::Rebless { .. }) => {
                eprintln!("FAIL {}: {e}", scenario.name);
                failures += 1;
                continue;
            }
            Err(e) => return Err(e),
        };
        let violations = diff_reports(&golden, &fresh, &Tolerances::for_scenario(&scenario));
        if violations.is_empty() {
            eprintln!("PASS {} ({:.0} ms)", scenario.name, fresh.wall_ms);
        } else {
            failures += 1;
            report_violations(&scenario.name, &violations);
        }
    }
    if failures > 0 {
        eprintln!(
            "harness check: {failures} scenario(s) failed; fresh reports in {}",
            opts.out.display()
        );
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_bench_gate(args: &[String]) -> Result<ExitCode, HarnessError> {
    let opts = parse_opts(args)?;
    let required = |path: Option<PathBuf>, flag: &str| {
        path.ok_or_else(|| HarnessError::spec(format!("bench-gate needs {flag} FILE")))
    };
    let fresh = read_bench(&required(opts.fresh, "--fresh")?)?;
    let baseline = read_bench(&required(opts.baseline, "--baseline")?)?;
    let violations = bench_gate(&fresh, &baseline, opts.threshold);
    if violations.is_empty() {
        eprintln!(
            "bench-gate: {} metric(s) within +{:.0}% of baseline",
            baseline.metrics.len(),
            opts.threshold * 100.0
        );
        return Ok(ExitCode::SUCCESS);
    }
    report_violations("bench", &violations);
    Ok(ExitCode::from(1))
}

fn report_violations(what: &str, violations: &[Violation]) {
    eprintln!("FAIL {what}: {} violation(s)", violations.len());
    for v in violations {
        eprintln!("  {v}");
    }
}

fn write_fresh_report(out_dir: &Path, report: &ConformanceReport) -> Result<(), HarnessError> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| HarnessError::io(format!("creating {}", out_dir.display()), e))?;
    let path = out_dir.join(format!("{}.json", report.scenario));
    std::fs::write(&path, report.to_json() + "\n")
        .map_err(|e| HarnessError::io(format!("writing {}", path.display()), e))
}

fn read_bench(path: &Path) -> Result<BenchFile, HarnessError> {
    BenchFile::parse(&read(path)?)
        .map_err(|e| HarnessError::spec(format!("{}: {e}", path.display())))
}

fn read(path: &Path) -> Result<String, HarnessError> {
    std::fs::read_to_string(path)
        .map_err(|e| HarnessError::io(format!("reading {}", path.display()), e))
}
