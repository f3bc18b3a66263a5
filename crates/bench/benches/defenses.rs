//! Defense arms race (extension beyond the paper): what a data holder
//! can do to a finished model before release, what it costs, and which
//! attack channel survives it.
//!
//! * the [`DefensePlan`] roster (rotation in both modes, scrub
//!   fine-tuning, magnitude pruning, re-quantization, weight noising)
//!   against the paper's correlation channel;
//! * the same roster against the rotation-invariant statsign channel,
//!   with the payload bit-error rate before ECC as the damage measure;
//! * the image-level detector's recall on the attacked model;
//! * wall-time and determinism of every defense transform plus the
//!   resilient decoder, written to `BENCH_defense.json` for the
//!   `harness bench-gate` regression check.

use std::time::Instant;

use qce::audit::detect_encoded_images;
use qce::{AttackFlow, BandRule, EncodingChannel, FlowConfig, Grouping, TrainedAttack};
use qce_attack::correlation::SignConvention;
use qce_attack::Decoder;
use qce_bench::{banner, base_config, cifar_rgb, pct};
use qce_defense::{DefenseKind, DefensePlan, RotationMode};
use qce_telemetry::bench::BenchFile;
use qce_tensor::par::Pool;

/// MAPE ceiling under which a decoded image counts as recovered (matches
/// the conformance harness's `recovered` metric).
const RECOVERY_MAPE_CEILING: f32 = 20.0;

/// The defense roster both channels face: every countermeasure family at
/// a strength that keeps the released model's accuracy usable.
fn roster() -> Vec<(&'static str, DefensePlan)> {
    vec![
        ("none", DefensePlan::new(0)),
        (
            "rotation permute",
            DefensePlan::new(11).with(DefenseKind::Rotation {
                mode: RotationMode::Permute,
            }),
        ),
        (
            // Strength must stay below 0.5: the blended mix (1-s)I + sQ is
            // singular exactly when an eigenvalue of Q hits -(1-s)/s, which
            // is only reachable (|eig| = 1) at s >= 0.5.
            "rotation qr_blend",
            DefensePlan::new(12).with(DefenseKind::Rotation {
                mode: RotationMode::QrBlend { strength: 0.4 },
            }),
        ),
        (
            "finetune-scrub",
            DefensePlan::new(13).with(DefenseKind::FinetuneScrub {
                epochs: 1,
                lr: 0.01,
            }),
        ),
        (
            "prune-scrub 10%",
            DefensePlan::new(17).with(DefenseKind::PruneScrub { fraction: 0.1 }),
        ),
        (
            "requantize 5-bit",
            DefensePlan::new(19).with(DefenseKind::Requantize { bits: 5 }),
        ),
        (
            "noise 10% std",
            DefensePlan::new(23).with(DefenseKind::NoiseWeights { fraction: 0.1 }),
        ),
    ]
}

/// Runs every roster defense against a trained release and prints one
/// line per defense: accuracy, decode MAPE and recovered-image count.
fn sweep(trained: &mut TrainedAttack, extra: impl Fn(&TrainedAttack) -> String) {
    for (name, plan) in roster() {
        // Defend in place, so channel-specific extras can probe the
        // defended weights before the float state comes back.
        let report = trained
            .defend_in_place(&plan, name.to_string())
            .expect("defense application failed");
        let probe = extra(trained);
        trained.restore_float().expect("state restore failed");
        qce_telemetry::progress!(
            "{name:<20} accuracy {:>8}   decoded MAPE {:>7.2}   recovered {:>3}/{:<3}{probe}",
            pct(report.accuracy),
            report.mean_mape().unwrap_or(f32::NAN),
            report.recovered_count(RECOVERY_MAPE_CEILING),
            report.images.len(),
        );
    }
}

fn main() {
    banner(
        "Defenses",
        "the defense arms race: release-time countermeasures vs both attack channels",
    );
    let dataset = cifar_rgb();
    let corr_cfg = FlowConfig {
        grouping: Grouping::Uniform(5.0),
        band: BandRule::FirstN,
        ..base_config()
    };

    qce_telemetry::progress!("\n1) correlation channel (the paper's attack) vs the roster:\n");
    let mut corr = AttackFlow::new(corr_cfg.clone())
        .train(&dataset)
        .expect("correlation training failed");
    sweep(&mut corr, |_| String::new());

    qce_telemetry::progress!(
        "\n2) statsign channel (rotation-invariant hardening) vs the roster:\n"
    );
    let stat_cfg = FlowConfig {
        channel: EncodingChannel::StatSign { lambda: 3e4 },
        ..corr_cfg.clone()
    };
    let mut stat = AttackFlow::new(stat_cfg)
        .train(&dataset)
        .expect("statsign training failed");
    let stat_layout = stat
        .statsign_layout()
        .expect("statsign flow has a layout")
        .clone();
    // Raw (pre-ECC, pre-polarity-vote) BER: rotation shows ~0.5 here
    // because permutation compensation sign-flips whole blocks, yet the
    // decoder's per-block polarity vote still recovers every image.
    sweep(&mut stat, |t| {
        format!(
            "   raw payload BER {:.4}",
            stat_layout.payload_ber(&t.network().flat_weights())
        )
    });

    qce_telemetry::progress!("\n3) image-level detection on the undefended correlation release:\n");
    let (train_split, _) = dataset
        .split(corr_cfg.train_fraction, corr_cfg.seed)
        .expect("valid split");
    let detected = detect_encoded_images(corr.network(), &train_split, 0.85);
    let encoded: std::collections::HashSet<usize> = corr
        .decode_images()
        .expect("decoding failed")
        .iter()
        .map(|d| d.target_index)
        .collect();
    qce_telemetry::progress!(
        "detected {} images; {} actually encoded in the model",
        detected.len(),
        encoded.len()
    );

    write_bench_json(&mut corr);

    qce_telemetry::progress!(
        "\nfinding: the arms race has two distinct regimes. Against the\n\
         correlation channel, value-preserving perturbations (noise,\n\
         re-quantization, scrub fine-tuning) cost accuracy faster than\n\
         they destroy the encoding, but a compensated channel rotation\n\
         erases the pixel stream outright at zero accuracy cost. The\n\
         statsign channel survives that rotation by construction (its\n\
         payload lives in permutation-invariant group statistics) and\n\
         only magnitude pruning dents it — at which point the defender\n\
         is back to trading model quality for privacy. Detection and\n\
         training-code review remain the only defenses that win outright."
    );
}

// ---------------------------------------------------------------------------
// Timing harness: per-defense wall time + seeded-determinism check,
// written to BENCH_defense.json for `harness bench-gate`.
// ---------------------------------------------------------------------------

const TIMING_REPS: usize = 3;

struct DefenseRow {
    name: String,
    /// Gated wall times in ms, one per leg: `wall` for a single-threaded
    /// transform, `threads1`/`threads4` for the pool-parameterized
    /// decoder.
    legs: Vec<(&'static str, f64)>,
    /// The two runs behind the row produced identical bytes.
    identical: bool,
}

/// Minimum wall time of `TIMING_REPS` runs plus the produced weight bits.
fn time_defense(trained: &mut TrainedAttack, plan: &DefensePlan) -> (f64, Vec<u32>) {
    let mut best = f64::INFINITY;
    let mut bits = Vec::new();
    for _ in 0..TIMING_REPS {
        trained.restore_float().expect("state restore failed");
        let start = Instant::now();
        trained
            .defend_in_place(plan, "timing".to_string())
            .expect("defense application failed");
        best = best.min(start.elapsed().as_secs_f64());
        bits = trained
            .network()
            .flat_weights()
            .iter()
            .map(|v| v.to_bits())
            .collect();
    }
    trained.restore_float().expect("state restore failed");
    (best, bits)
}

fn write_bench_json(corr: &mut TrainedAttack) {
    qce_telemetry::progress!("\n4) defense transform timing and determinism:\n");
    let mut rows = Vec::new();
    for (name, plan) in roster() {
        if plan.is_benign() {
            continue;
        }
        // Defense transforms are single-threaded: one wall time, and the
        // identity check asserts that a seeded plan re-applied to the
        // same release is deterministic.
        let (first_s, first_bits) = time_defense(corr, &plan);
        let (second_s, second_bits) = time_defense(corr, &plan);
        rows.push(DefenseRow {
            name: format!("defense_{}", name.replace([' ', '%', '-'], "_")),
            legs: vec![("wall", first_s.min(second_s) * 1e3)],
            identical: first_bits == second_bits,
        });
    }

    // The resilient decoder is the arms race's hot path and genuinely
    // pool-parameterized: serial vs 4-thread, bit-identical by contract.
    let decoder = Decoder::new(
        corr.layout()
            .expect("correlation flow has a layout")
            .clone(),
        SignConvention::Positive,
    );
    let flat = corr.network().flat_weights();
    let time_decode = |pool: &Pool| -> (f64, Vec<u8>) {
        let mut best = f64::INFINITY;
        let mut bits = Vec::new();
        for _ in 0..TIMING_REPS {
            let start = Instant::now();
            let out = decoder.decode_resilient_with(pool, &flat);
            best = best.min(start.elapsed().as_secs_f64());
            bits = out
                .images
                .iter()
                .filter_map(|r| r.image.as_ref())
                .flat_map(|img| img.pixels().to_vec())
                .collect();
        }
        (best, bits)
    };
    let (serial_s, serial_bits) = time_decode(&Pool::serial());
    let (parallel_s, parallel_bits) = time_decode(&Pool::with_threads(4));
    rows.push(DefenseRow {
        name: "decode_resilient".to_string(),
        legs: vec![("threads1", serial_s * 1e3), ("threads4", parallel_s * 1e3)],
        identical: serial_bits == parallel_bits,
    });

    let mut file = BenchFile::new("defenses");
    for r in &rows {
        let legs: Vec<String> = r
            .legs
            .iter()
            .map(|(leg, ms)| format!("{leg} {ms:9.3} ms"))
            .collect();
        qce_telemetry::progress!(
            "{:<32} {} | min of {TIMING_REPS} | identical={}",
            r.name,
            legs.join(" | "),
            r.identical,
        );
        assert!(r.identical, "{}: non-deterministic output", r.name);
        for (leg, ms) in &r.legs {
            file.insert(format!("{}.{leg}_ms", r.name), *ms, "ms");
        }
    }

    // The bench binary's cwd is the package dir; anchor the report at the
    // workspace root so CI can pick it up from a stable path.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_defense.json");
    std::fs::write(path, file.to_json()).expect("write BENCH_defense.json");
    qce_telemetry::progress!("wrote {path}");
}
