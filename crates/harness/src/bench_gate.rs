//! Regression gate over bench records.
//!
//! Every gated record is the benchmark's (`qcebench`) last line, read
//! as a [`BenchFile`](qce_telemetry::bench::BenchFile): CI gates the
//! traced `release_arms` line's per-layer kernel and defense metrics and
//! the `serve_mix` and `sweep_grid` lines' latencies. CI keeps a
//! committed baseline per gate; this module diffs a fresh record against
//! it and fails when a baseline metric grew by more than a relative
//! threshold (20% by default — see DESIGN.md for why), disappeared, or
//! reads 0 where the baseline measured it (the benchmark reports a layer
//! it did not exercise as 0). Metrics that are *new* in the fresh record
//! never fail the gate. A benchmark line from a run with wrong outputs
//! does not parse, so it cannot pass.

use qce_telemetry::bench::BenchFile;

use crate::Violation;

/// Default relative slowdown that fails the gate (0.20 = 20%).
pub const DEFAULT_BENCH_THRESHOLD: f64 = 0.20;

/// Gates `fresh` against `baseline`: every baseline metric must still
/// exist, must still be measured (non-zero where the baseline is
/// positive) and must not have grown by more than `threshold`
/// (relative). Returns every violation (empty = pass).
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
        if now.value == 0.0 {
            out.push(Violation {
                location,
                detail: format!(
                    "not measured: {:.4} {} in baseline, 0 in fresh bench output",
                    base.value, base.unit
                ),
            });
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

    /// A bench file holding `metrics` in ms, parsed from its JSON text.
    fn file(metrics: &[(&str, f64)]) -> BenchFile {
        let entries: Vec<String> = metrics
            .iter()
            .map(|(name, value)| format!(r#""{name}":{{"value":{value},"unit":"ms"}}"#))
            .collect();
        BenchFile::parse(&format!(r#"{{"metrics":{{{}}}}}"#, entries.join(","))).unwrap()
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
        let baseline = file(&[("op_p50_ms", 5.0), ("op_tail_ms", 110.0)]);
        let fresh = BenchFile::parse(SERVE_MIX).unwrap();
        assert!(bench_gate(&fresh, &baseline, 1.5).is_empty());
        assert_eq!(bench_gate(&fresh, &baseline, 0.0).len(), 2);
    }

    // Last line of `qcebench --workload release_arms --seed 1 --seconds 10
    // --trace 1`, the run CI's kernel and defense gates read, captured
    // from a real run whose traced phase ran faster than its untraced
    // one (a negative `trace.overhead_pct`).
    const RELEASE_ARMS_TRACED: &str = r#"{"correct":true,"attempted":344,"failed":0,"metrics":{"core.select_ms":{"value":3.222,"unit":"ms"},"core.train_ms":{"value":369.659,"unit":"ms"},"core.eval_float_ms":{"value":2.06,"unit":"ms"},"core.quantize_ms":{"value":27.618,"unit":"ms"},"core.eval_release_ms":{"value":1.453,"unit":"ms"},"core.span_coverage_min":{"value":0.9991258619971972,"unit":"ratio"},"data.synth_ms":{"value":0.668,"unit":"ms"},"nn.step_ms":{"value":26.055,"unit":"ms"},"nn.fwd_ms":{"value":5.624499999999999,"unit":"ms"},"nn.bwd_ms":{"value":19.955,"unit":"ms"},"nn.loss_ms":{"value":0.0075,"unit":"ms"},"nn.optim_ms":{"value":0.08449999999999999,"unit":"ms"},"nn.bwd_fwd_ratio":{"value":3.547870921859721,"unit":"ratio"},"nn.layer.stem_conv.fwd_ms":{"value":0.164,"unit":"ms"},"nn.layer.stem_conv.bwd_ms":{"value":0.3875,"unit":"ms"},"nn.layer.stem_bn.fwd_ms":{"value":0.042499999999999996,"unit":"ms"},"nn.layer.stem_bn.bwd_ms":{"value":0.0485,"unit":"ms"},"nn.layer.stem_relu.fwd_ms":{"value":0.01,"unit":"ms"},"nn.layer.stem_relu.bwd_ms":{"value":0.1025,"unit":"ms"},"nn.layer.s0b0.fwd_ms":{"value":0.9715,"unit":"ms"},"nn.layer.s0b0.bwd_ms":{"value":2.1355000000000004,"unit":"ms"},"nn.layer.s0b1.fwd_ms":{"value":0.9085000000000001,"unit":"ms"},"nn.layer.s0b1.bwd_ms":{"value":2.1555,"unit":"ms"},"nn.layer.s1b0.fwd_ms":{"value":0.7075,"unit":"ms"},"nn.layer.s1b0.bwd_ms":{"value":2.3449999999999998,"unit":"ms"},"nn.layer.s1b1.fwd_ms":{"value":0.7705,"unit":"ms"},"nn.layer.s1b1.bwd_ms":{"value":2.8095,"unit":"ms"},"nn.layer.s2b0.fwd_ms":{"value":0.863,"unit":"ms"},"nn.layer.s2b0.bwd_ms":{"value":4.8605,"unit":"ms"},"nn.layer.s2b1.fwd_ms":{"value":0.9995,"unit":"ms"},"nn.layer.s2b1.bwd_ms":{"value":6.114000000000001,"unit":"ms"},"nn.layer.gap.fwd_ms":{"value":0.0095,"unit":"ms"},"nn.layer.gap.bwd_ms":{"value":0.0085,"unit":"ms"},"nn.layer.fc.fwd_ms":{"value":0.006,"unit":"ms"},"nn.layer.fc.bwd_ms":{"value":0.008,"unit":"ms"},"nn.eval_ms":{"value":18.347,"unit":"ms"},"attack.reg_ms":{"value":0.269,"unit":"ms"},"attack.decode_ms":{"value":0.168,"unit":"ms"},"tensor.conv_fwd.s0_ms":{"value":0.3555,"unit":"ms"},"tensor.conv_bwd.s0_ms":{"value":0.88,"unit":"ms"},"tensor.conv_fwd.s0_gflops":{"value":6.634140306133209,"unit":"GFLOP/s"},"tensor.conv_bwd.s0_gflops":{"value":5.358775426998685,"unit":"GFLOP/s"},"tensor.conv_fwd.s1_ms":{"value":0.3325,"unit":"ms"},"tensor.conv_bwd.s1_ms":{"value":1.269,"unit":"ms"},"tensor.conv_fwd.s1_gflops":{"value":7.08471766783179,"unit":"GFLOP/s"},"tensor.conv_bwd.s1_gflops":{"value":3.7174743096689866,"unit":"GFLOP/s"},"tensor.conv_fwd.s2_ms":{"value":0.4215,"unit":"ms"},"tensor.conv_bwd.s2_ms":{"value":2.9215,"unit":"ms"},"tensor.conv_fwd.s2_gflops":{"value":5.577301175483284,"unit":"GFLOP/s"},"tensor.conv_bwd.s2_gflops":{"value":1.6152331815861873,"unit":"GFLOP/s"},"tensor.codebook_assign_ms":{"value":0.067,"unit":"ms"},"quant.fit.kmeans_ms":{"value":6.856,"unit":"ms"},"quant.fit.weq_ms":{"value":5.3125,"unit":"ms"},"quant.fit.tcq_ms":{"value":4.7645,"unit":"ms"},"quant.deploy_write_ms":{"value":2.5295,"unit":"ms"},"quant.deploy_read_ms":{"value":1.0645,"unit":"ms"},"quant.release_bytes":{"value":51084,"unit":"bytes"},"defense.permute_ms":{"value":0.187,"unit":"ms"},"defense.prune_ms":{"value":1.397,"unit":"ms"},"defense.noise_ms":{"value":2.899,"unit":"ms"},"defense.requant_ms":{"value":1.591,"unit":"ms"},"metrics.score_ms":{"value":0.2065,"unit":"ms"},"store.hit":{"value":41,"unit":"count"},"store.miss":{"value":64,"unit":"count"},"store.write":{"value":64,"unit":"count"},"store.hit_ratio":{"value":0.3904761904761905,"unit":"ratio"},"serve.submit_ms":{"value":1.104,"unit":"ms"},"serve.queue_wait_ms":{"value":2.284,"unit":"ms"},"serve.job_ms":{"value":109.036,"unit":"ms"},"serve.reject_ms":{"value":0.648,"unit":"ms"},"serve.dedup_hits":{"value":1,"unit":"count"},"sweep.expand_ms":{"value":1.396,"unit":"ms"},"sweep.cell_trained_ms":{"value":118.338874,"unit":"ms"},"sweep.cell_reused_ms":{"value":6.677801499999999,"unit":"ms"},"sweep.train_reuse_ratio":{"value":0.75,"unit":"ratio"},"sweep.merge_ms":{"value":1.05,"unit":"ms"},"trace.ops_per_s_untraced":{"value":30.425105032095935,"unit":"1/s"},"trace.ops_per_s_traced":{"value":33.475037811056474,"unit":"1/s"},"trace.overhead_pct":{"value":-10.024395234603523,"unit":"%"}}}"#;

    #[test]
    fn the_traced_line_carries_every_gated_kernel_and_defense_metric() {
        let fresh = BenchFile::parse(RELEASE_ARMS_TRACED).unwrap();
        assert_eq!(fresh.metrics.len(), 79);
        assert!(fresh.metrics["trace.overhead_pct"].value < 0.0);
        assert!(bench_gate(&fresh, &fresh, DEFAULT_BENCH_THRESHOLD).is_empty());
        // An unbounded threshold leaves only the missing and
        // not-measured checks: every baseline metric is one the traced
        // run measures.
        for baseline in [
            include_str!("../../../conformance/BENCH_kernels_baseline.json"),
            include_str!("../../../conformance/BENCH_defense_baseline.json"),
        ] {
            let baseline = BenchFile::parse(baseline).unwrap();
            assert_eq!(baseline.bench.as_deref(), Some("release_arms"));
            let v = bench_gate(&fresh, &baseline, f64::INFINITY);
            assert!(v.is_empty(), "{v:?}");
        }
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
    fn a_layer_that_reads_zero_fails_as_not_measured() {
        // The benchmark reports a layer it did not exercise as 0, so a
        // lost layer drive must fail, however fast 0 ms looks.
        let baseline = file(&[("tensor.conv_fwd.s0_ms", 0.4), ("defense.noise_ms", 2.0)]);
        let fresh = file(&[("tensor.conv_fwd.s0_ms", 0.0), ("defense.noise_ms", 2.1)]);
        let v = bench_gate(&fresh, &baseline, 0.20);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].to_string().contains("tensor.conv_fwd.s0_ms"),
            "{}",
            v[0]
        );
        assert!(v[0].to_string().contains("not measured"), "{}", v[0]);
        // A measured value, however small, is gated on its ratio.
        let tiny = file(&[("tensor.conv_fwd.s0_ms", 1e-6), ("defense.noise_ms", 2.1)]);
        assert!(bench_gate(&tiny, &baseline, 0.20).is_empty());
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
