//! Regression gate over bench records.
//!
//! The bench writers (`cargo bench --bench kernels` and `defenses`)
//! emit a [`BenchFile`](qce_telemetry::bench::BenchFile), and so does
//! the benchmark (`qcebench`) on its last line, which is how CI gates
//! the `serve_mix` and `sweep_grid` workloads. CI keeps a committed
//! baseline per record; this module diffs a fresh record against it and
//! fails when a baseline metric grew by more than a relative threshold
//! (20% by default — see DESIGN.md for why) or disappeared. Metrics that
//! are *new* in the fresh record (such as the benchmark's `ops_per_s`)
//! never fail the gate. A benchmark line from a run with wrong outputs
//! does not parse, so it cannot pass.

use qce_telemetry::bench::BenchFile;

use crate::Violation;

/// Default relative slowdown that fails the gate (0.20 = 20%).
pub const DEFAULT_BENCH_THRESHOLD: f64 = 0.20;

/// Gates `fresh` against `baseline`: every baseline metric must still
/// exist and must not have grown by more than `threshold` (relative).
/// Returns every violation (empty = pass).
#[must_use]
pub fn bench_gate(fresh: &BenchFile, baseline: &BenchFile, threshold: f64) -> Vec<Violation> {
    let mut out = Vec::new();
    for (name, base) in &baseline.metrics {
        let location = format!("metric {name:?}");
        let Some(now) = fresh.metrics.get(name) else {
            out.push(Violation {
                location,
                detail: "present in baseline but missing from fresh bench output".to_string(),
            });
            continue;
        };
        // A zero baseline (from a degenerate run) can't support a
        // meaningful relative gate.
        if base.value <= 0.0 {
            continue;
        }
        let ratio = now.value / base.value;
        if ratio > 1.0 + threshold {
            out.push(Violation {
                location,
                detail: format!(
                    "{:.4} {} -> {:.4} {} ({:+.1}% > allowed +{:.0}%)",
                    base.value,
                    base.unit,
                    now.value,
                    now.unit,
                    (ratio - 1.0) * 100.0,
                    threshold * 100.0
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(metrics: &[(&str, f64)]) -> BenchFile {
        let mut file = BenchFile::new("kernels");
        for &(name, value) in metrics {
            file.insert(name, value, "ms");
        }
        file
    }

    #[test]
    fn parses_the_real_bench_schema() {
        let body = r#"{
          "bench": "kernels",
          "metrics": {
            "matmul.threads1_ms": {"value": 0.5, "unit": "ms"},
            "matmul.threads4_ms": {"value": 0.2, "unit": "ms"},
            "matmul.scalar_ms": {"value": 0.31, "unit": "ms"},
            "matmul.simd_ms": {"value": 0.16, "unit": "ms"},
            "kmeans.threads1_ms": {"value": 9.0, "unit": "ms"}
          }
        }"#;
        let parsed = BenchFile::parse(body).unwrap();
        assert_eq!(parsed.bench.as_deref(), Some("kernels"));
        assert_eq!(parsed.metrics.len(), 5);
        assert_eq!(parsed.metrics["kmeans.threads1_ms"].value, 9.0);
        assert_eq!(parsed.metrics["matmul.simd_ms"].value, 0.16);
        assert_eq!(parsed.metrics["matmul.scalar_ms"].unit, "ms");
        assert!(bench_gate(&parsed, &parsed, DEFAULT_BENCH_THRESHOLD).is_empty());
    }

    // Last lines of `qcebench --workload <w> --seed 1 --seconds 10
    // --trace 0`, captured from real runs.
    const ATTACK_FLOW: &str = r#"{"correct":true,"attempted":107,"failed":0,"metrics":{"setup_s":{"value":0.089010484,"unit":"s"},"ops_per_s":{"value":6.787190298016162,"unit":"1/s"},"op_p50_ms":{"value":141.6067155,"unit":"ms"},"op_tail_ms":{"value":221.168119,"unit":"ms"},"peak_rss_mb":{"value":8.44140625,"unit":"MB"},"recovered_frac":{"value":1,"unit":"ratio"},"release_accuracy":{"value":0.27595677599310875,"unit":"ratio"}}}"#;
    const RELEASE_ARMS: &str = r#"{"correct":true,"attempted":469,"failed":0,"metrics":{"setup_s":{"value":0.828578892,"unit":"s"},"ops_per_s":{"value":40.24990058649089,"unit":"1/s"},"op_p50_ms":{"value":25.5702,"unit":"ms"},"op_tail_ms":{"value":31.234592,"unit":"ms"},"peak_rss_mb":{"value":19.09375,"unit":"MB"},"recovered_frac":{"value":0.6923076923076923,"unit":"ratio"},"release_accuracy":{"value":0.29629629850387573,"unit":"ratio"}}}"#;
    const SERVE_MIX: &str = r#"{"correct":true,"attempted":2549,"failed":0,"metrics":{"setup_s":{"value":0.834575764,"unit":"s"},"ops_per_s":{"value":236.7702008209724,"unit":"1/s"},"op_p50_ms":{"value":5.9138855,"unit":"ms"},"op_tail_ms":{"value":113.507735,"unit":"ms"},"peak_rss_mb":{"value":32.5078125,"unit":"MB"},"recovered_frac":{"value":0.7073170731707317,"unit":"ratio"},"release_accuracy":{"value":0.19791666666666666,"unit":"ratio"}}}"#;
    const SWEEP_GRID: &str = r#"{"correct":true,"attempted":270,"failed":0,"metrics":{"setup_s":{"value":0.274477048,"unit":"s"},"ops_per_s":{"value":25.557196435668505,"unit":"1/s"},"op_p50_ms":{"value":8.78296,"unit":"ms"},"op_tail_ms":{"value":150.198805,"unit":"ms"},"peak_rss_mb":{"value":9.3828125,"unit":"MB"},"recovered_frac":{"value":0.6666666666666666,"unit":"ratio"},"release_accuracy":{"value":0.23697916666666666,"unit":"ratio"}}}"#;

    #[test]
    fn real_benchmark_lines_parse_and_gate_against_themselves() {
        for line in [ATTACK_FLOW, RELEASE_ARMS, SERVE_MIX, SWEEP_GRID] {
            let parsed = BenchFile::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(parsed.bench, None);
            let units: Vec<(&str, &str)> = parsed
                .metrics
                .iter()
                .map(|(name, m)| (name.as_str(), m.unit.as_str()))
                .collect();
            assert_eq!(
                units,
                [
                    ("op_p50_ms", "ms"),
                    ("op_tail_ms", "ms"),
                    ("ops_per_s", "1/s"),
                    ("peak_rss_mb", "MB"),
                    ("recovered_frac", "ratio"),
                    ("release_accuracy", "ratio"),
                    ("setup_s", "s"),
                ]
            );
            assert!(bench_gate(&parsed, &parsed, DEFAULT_BENCH_THRESHOLD).is_empty());

            let wrong = line.replacen(r#""correct":true"#, r#""correct":false"#, 1);
            assert_ne!(wrong, line);
            assert!(
                matches!(
                    BenchFile::parse(&wrong),
                    Err(qce_telemetry::bench::BenchError::Incorrect { failed: 0, .. })
                ),
                "{wrong}"
            );
        }
        // The serve gate: the baseline's two costs, against the line.
        let mut baseline = BenchFile::new("serve_mix");
        baseline
            .insert("op_p50_ms", 5.0, "ms")
            .insert("op_tail_ms", 110.0, "ms");
        let fresh = BenchFile::parse(SERVE_MIX).unwrap();
        assert!(bench_gate(&fresh, &baseline, 1.5).is_empty());
        assert_eq!(bench_gate(&fresh, &baseline, 0.0).len(), 2);
    }

    #[test]
    fn malformed_bench_json_is_rejected() {
        assert!(BenchFile::parse("{}").is_err());
        assert!(BenchFile::parse(r#"{"bench":"k","metrics":{"x":{"unit":"ms"}}}"#).is_err());
        assert!(
            BenchFile::parse(r#"{"bench":"k","metrics":{"x":{"value":"fast","unit":"ms"}}}"#)
                .is_err()
        );
    }

    #[test]
    fn within_threshold_passes_beyond_fails() {
        let baseline = file(&[("matmul.threads1_ms", 1.0), ("matmul.threads4_ms", 0.5)]);
        let near = file(&[("matmul.threads1_ms", 1.19), ("matmul.threads4_ms", 0.59)]);
        assert!(bench_gate(&near, &baseline, 0.20).is_empty());
        let slow = file(&[("matmul.threads1_ms", 1.3), ("matmul.threads4_ms", 0.5)]);
        let v = bench_gate(&slow, &baseline, 0.20);
        assert_eq!(v.len(), 1);
        assert!(v[0].to_string().contains("matmul.threads1_ms"), "{}", v[0]);
    }

    #[test]
    fn faster_is_always_fine() {
        let baseline = file(&[("matmul.threads1_ms", 1.0), ("matmul.threads4_ms", 0.5)]);
        let fast = file(&[("matmul.threads1_ms", 0.1), ("matmul.threads4_ms", 0.05)]);
        assert!(bench_gate(&fast, &baseline, 0.20).is_empty());
    }

    #[test]
    fn missing_kernel_fails_new_kernel_does_not() {
        let baseline = file(&[("matmul.threads1_ms", 1.0)]);
        let fresh = file(&[("conv.threads1_ms", 1.0)]);
        let v = bench_gate(&fresh, &baseline, 0.20);
        assert_eq!(v.len(), 1);
        assert!(v[0].to_string().contains("missing"), "{}", v[0]);
    }

    #[test]
    fn zero_baseline_times_are_not_gated() {
        let baseline = file(&[("warmup.threads1_ms", 0.0)]);
        let fresh = file(&[("warmup.threads1_ms", 5.0)]);
        assert!(bench_gate(&fresh, &baseline, 0.20).is_empty());
    }

    #[test]
    fn simd_pair_regressions_are_gated() {
        let baseline = file(&[("matmul.scalar_ms", 0.30), ("matmul.simd_ms", 0.16)]);
        // Within threshold on every leg: pass.
        let near = file(&[("matmul.scalar_ms", 0.33), ("matmul.simd_ms", 0.18)]);
        assert!(bench_gate(&near, &baseline, 0.20).is_empty());
        // SIMD leg regressed past the band: fail, naming simd_ms.
        let v = bench_gate(
            &file(&[("matmul.scalar_ms", 0.30), ("matmul.simd_ms", 0.25)]),
            &baseline,
            0.20,
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].to_string().contains("simd_ms"), "{}", v[0]);
        // Scalar leg regressed: fail, naming scalar_ms.
        let v = bench_gate(
            &file(&[("matmul.scalar_ms", 0.45), ("matmul.simd_ms", 0.16)]),
            &baseline,
            0.20,
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].to_string().contains("scalar_ms"), "{}", v[0]);
    }

    #[test]
    fn dropping_a_measured_pair_fails() {
        let baseline = file(&[
            ("matmul.threads1_ms", 1.0),
            ("matmul.scalar_ms", 0.30),
            ("matmul.simd_ms", 0.16),
        ]);
        let fresh = file(&[("matmul.threads1_ms", 1.0)]);
        let v = bench_gate(&fresh, &baseline, 0.20);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.to_string().contains("missing")));
    }

    #[test]
    fn pre_simd_baseline_does_not_gate_pairs() {
        // A baseline recorded before the scalar/SIMD legs existed gates
        // nothing about them, even when the fresh run carries
        // (arbitrarily slow) leg measurements.
        let baseline = file(&[("matmul.threads1_ms", 1.0)]);
        let fresh = file(&[
            ("matmul.threads1_ms", 1.0),
            ("matmul.scalar_ms", 1.0),
            ("matmul.simd_ms", 99.0),
        ]);
        assert!(bench_gate(&fresh, &baseline, 0.20).is_empty());
    }
}
