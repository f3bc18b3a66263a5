//! Regression gate over `BENCH_*.json` bench files.
//!
//! Every bench writer (`cargo bench --bench kernels` and `defenses`,
//! `qce-serve load`, `sweep run --bench`) emits a
//! [`BenchFile`](qce_telemetry::bench::BenchFile). CI keeps a committed
//! baseline per file; this module diffs a fresh file against it and
//! fails when a baseline metric grew by more than a relative threshold
//! (20% by default — see DESIGN.md for why) or disappeared. Metrics that
//! are *new* in the fresh file never fail the gate; they show up when
//! the baseline is refreshed.

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
        assert_eq!(parsed.bench, "kernels");
        assert_eq!(parsed.metrics.len(), 5);
        assert_eq!(parsed.metrics["kmeans.threads1_ms"].value, 9.0);
        assert_eq!(parsed.metrics["matmul.simd_ms"].value, 0.16);
        assert_eq!(parsed.metrics["matmul.scalar_ms"].unit, "ms");
        assert!(bench_gate(&parsed, &parsed, DEFAULT_BENCH_THRESHOLD).is_empty());
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
