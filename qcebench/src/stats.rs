//! Order statistics, the tail-percentile rule, and the metric catalogue.

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The fewest samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;
/// Below this many samples no tail percentile is reported.
pub const TAIL_MIN_SAMPLES: usize = 20;

/// A tail latency: the highest percentile that still has
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent (e.g. `60.0` for p60).
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// How many samples it was taken from.
    pub n: usize,
}

/// The tail of `values`, or `None` when there are fewer than
/// [`TAIL_MIN_SAMPLES`] of them.
///
/// With `n` samples sorted ascending, the sample of rank `k = n - 10`
/// (1-based) has exactly ten samples beyond it; its percentile is
/// `100 k / n`.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n < TAIL_MIN_SAMPLES {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        n,
    })
}

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("recovered_frac", "ratio"),
    ("release_accuracy", "ratio"),
];

/// The ResNetLite layers timed one by one in the training-step drive.
pub const NN_LAYERS: &[&str] = &[
    "stem_conv",
    "stem_bn",
    "stem_relu",
    "s0b0",
    "s0b1",
    "s1b0",
    "s1b1",
    "s2b0",
    "s2b1",
    "gap",
    "fc",
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    for stage in ["select", "train", "eval_float", "quantize", "eval_release"] {
        push(&format!("core.{stage}_ms"), "ms");
    }
    push("core.span_coverage_min", "ratio");
    push("data.synth_ms", "ms");
    for part in ["step", "fwd", "bwd", "loss", "optim"] {
        push(&format!("nn.{part}_ms"), "ms");
    }
    push("nn.bwd_fwd_ratio", "ratio");
    for layer in NN_LAYERS {
        push(&format!("nn.layer.{layer}.fwd_ms"), "ms");
        push(&format!("nn.layer.{layer}.bwd_ms"), "ms");
    }
    push("nn.eval_ms", "ms");
    push("attack.reg_ms", "ms");
    push("attack.decode_ms", "ms");
    for stage in 0..3 {
        push(&format!("tensor.conv_fwd.s{stage}_ms"), "ms");
        push(&format!("tensor.conv_bwd.s{stage}_ms"), "ms");
        push(&format!("tensor.conv_fwd.s{stage}_gflops"), "GFLOP/s");
        push(&format!("tensor.conv_bwd.s{stage}_gflops"), "GFLOP/s");
    }
    push("tensor.codebook_assign_ms", "ms");
    for q in ["kmeans", "weq", "tcq"] {
        push(&format!("quant.fit.{q}_ms"), "ms");
    }
    push("quant.deploy_write_ms", "ms");
    push("quant.deploy_read_ms", "ms");
    push("quant.release_bytes", "bytes");
    for d in ["permute", "prune", "noise", "requant"] {
        push(&format!("defense.{d}_ms"), "ms");
    }
    push("metrics.score_ms", "ms");
    push("store.hit", "count");
    push("store.miss", "count");
    push("store.write", "count");
    push("store.hit_ratio", "ratio");
    for s in ["submit", "queue_wait", "job", "reject"] {
        push(&format!("serve.{s}_ms"), "ms");
    }
    push("serve.dedup_hits", "count");
    push("sweep.expand_ms", "ms");
    push("sweep.cell_trained_ms", "ms");
    push("sweep.cell_reused_ms", "ms");
    push("sweep.train_reuse_ratio", "ratio");
    push("sweep.merge_ms", "ms");
    push("trace.ops_per_s_untraced", "1/s");
    push("trace.ops_per_s_traced", "1/s");
    push("trace.overhead_pct", "%");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_is_omitted_below_twenty_samples() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.n, 20);
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, 10.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);

        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn name_and_unit_charsets() {
        assert!(valid_name("nn.layer.s0b0.fwd_ms"));
        assert!(valid_name("0abc-d_e.f"));
        assert!(!valid_name(""));
        assert!(!valid_name(".starts_with_dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("GFLOP/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("per second"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for (name, unit) in END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
        {
            assert!(valid_name(&name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_what_the_benchmark_prints() {
        use qce_telemetry::json::{parse, JsonValue};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(JsonValue::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            listed("end_to_end"),
            own(END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect())
        );
        assert_eq!(listed("per_layer"), own(per_layer()));
        let Some(JsonValue::Arr(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json has no workloads");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }
}
