//! Checks of `harness bench-gate`: every committed baseline is a bench
//! file the gate reads, and a failing gate must be able to *explain
//! itself* — when the caller hands over the baseline and fresh
//! `QCE_TRACE` streams, the failure output names the specific span whose
//! time moved, not just the metric that tripped.

use std::path::{Path, PathBuf};
use std::process::Command;

use qce_harness::{bench_gate, DEFAULT_BENCH_THRESHOLD};
use qce_telemetry::bench::BenchFile;

fn bench_json(quantize_ms: f64) -> String {
    let mut file = BenchFile::new("kernels");
    file.insert("quantize.threads1_ms", quantize_ms, "ms")
        .insert("quantize.threads4_ms", quantize_ms, "ms");
    file.to_json()
}

/// One root span per label, laid out sequentially; `dur` in microseconds.
fn trace_jsonl(stages: &[(&str, u64)]) -> String {
    let mut out = String::new();
    let mut t = 0u64;
    let mut seq = 0u64;
    for (i, (name, dur)) in stages.iter().enumerate() {
        let id = i as u64 + 1;
        out.push_str(&format!(
            "{{\"ev\":\"span_start\",\"id\":{id},\"name\":\"{name}\",\"thread\":\"main\",\"seq\":{seq},\"t_us\":{t}}}\n"
        ));
        seq += 1;
        t += dur;
        out.push_str(&format!(
            "{{\"ev\":\"span_end\",\"id\":{id},\"name\":\"{name}\",\"dur_us\":{dur},\"seq\":{seq},\"t_us\":{t}}}\n"
        ));
        seq += 1;
    }
    out
}

fn write(dir: &Path, name: &str, body: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path
}

#[test]
fn failing_gate_names_the_regressing_span() {
    let dir = std::env::temp_dir().join(format!("qce-bench-gate-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let baseline = write(&dir, "baseline.json", &bench_json(10.0));
    // 3× slower than baseline: far past any sane threshold.
    let fresh = write(&dir, "fresh.json", &bench_json(30.0));
    let trace_base = write(
        &dir,
        "base.jsonl",
        &trace_jsonl(&[("flow.train", 40_000), ("flow.quantize", 5_000)]),
    );
    // The doctored fresh trace slows exactly one stage.
    let trace_fresh = write(
        &dir,
        "fresh.jsonl",
        &trace_jsonl(&[("flow.train", 40_000), ("flow.quantize", 45_000)]),
    );

    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args([
            "bench-gate",
            "--fresh",
            fresh.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
            "--trace-fresh",
            trace_fresh.to_str().unwrap(),
            "--trace-baseline",
            trace_base.to_str().unwrap(),
        ])
        .output()
        .expect("run harness bench-gate");
    let stderr = String::from_utf8_lossy(&out.stderr);

    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(stderr.contains("FAIL bench"), "stderr:\n{stderr}");
    // Span-level attribution rides along with the gate verdict, naming
    // the stage that actually moved.
    assert!(
        stderr.contains("top regression: flow.quantize"),
        "stderr:\n{stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unreadable_trace_warns_but_keeps_the_gate_verdict() {
    let dir = std::env::temp_dir().join(format!("qce-bench-gate-cli-warn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let baseline = write(&dir, "baseline.json", &bench_json(10.0));
    let fresh = write(&dir, "fresh.json", &bench_json(30.0));

    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args([
            "bench-gate",
            "--fresh",
            fresh.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
            "--trace-fresh",
            dir.join("missing.jsonl").to_str().unwrap(),
            "--trace-baseline",
            dir.join("also-missing.jsonl").to_str().unwrap(),
        ])
        .output()
        .expect("run harness bench-gate");
    let stderr = String::from_utf8_lossy(&out.stderr);

    // The gate verdict is decided by the bench numbers alone (exit 1,
    // not the usage/runtime error code 2).
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("skipping span attribution"),
        "stderr:\n{stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every committed `conformance/BENCH_*.json` baseline parses with the
/// one bench reader and passes the gate against itself, so a baseline
/// in a stale format cannot land. The per-file counts pin the gated
/// metrics: a gate that appears or disappears shows up here.
#[test]
fn every_committed_baseline_parses_and_gates_against_itself() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../conformance");
    let mut counts = Vec::new();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let body = std::fs::read_to_string(&path).unwrap();
        let file = BenchFile::parse(&body).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            file.to_json(),
            body,
            "{name} is not in the writers' rendering"
        );
        assert!(
            bench_gate(&file, &file, DEFAULT_BENCH_THRESHOLD).is_empty(),
            "{name} fails against itself"
        );
        assert!(file.metrics.values().all(|m| m.unit == "ms"), "{name}");
        let bench = file
            .bench
            .unwrap_or_else(|| panic!("{name} names no bench"));
        counts.push((name, bench, file.metrics.len()));
    }
    counts.sort();
    let counts: Vec<(&str, &str, usize)> = counts
        .iter()
        .map(|(f, b, n)| (f.as_str(), b.as_str(), *n))
        .collect();
    assert_eq!(
        counts,
        [
            ("BENCH_baseline.json", "kernels", 20),
            ("BENCH_defense_baseline.json", "defenses", 8),
            ("BENCH_serve_baseline.json", "serve_mix", 2),
            ("BENCH_sweep_baseline.json", "sweep_grid", 2),
        ]
    );
}
