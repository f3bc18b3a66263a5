//! Checks of the committed bench baselines: every
//! `conformance/BENCH_*.json` is a bench record that `harness
//! bench-gate` reads and gates.

use std::path::Path;

use qce_harness::{bench_gate, DEFAULT_BENCH_THRESHOLD};
use qce_telemetry::bench::BenchFile;

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
            ("BENCH_defense_baseline.json", "release_arms", 5),
            ("BENCH_kernels_baseline.json", "release_arms", 8),
            ("BENCH_serve_baseline.json", "serve_mix", 2),
            ("BENCH_sweep_baseline.json", "sweep_grid", 2),
        ]
    );
}
