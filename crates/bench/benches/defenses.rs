//! Defense arms race (extension beyond the paper): what a data holder
//! can do to a finished model before release, what it costs, and which
//! attack channel survives it.
//!
//! * the [`DefensePlan`] roster (rotation in both modes, scrub
//!   fine-tuning, magnitude pruning, re-quantization, weight noising)
//!   against the paper's correlation channel;
//! * the same roster against the rotation-invariant statsign channel,
//!   with the payload bit-error rate before ECC as the damage measure;
//! * the image-level detector's recall on the attacked model.
//!
//! Countermeasure and decode timings come from the benchmark's traced
//! `release_arms` run (`defense.*_ms`, `attack.decode_ms`), which CI
//! gates against `conformance/BENCH_defense_baseline.json`.

use qce::audit::detect_encoded_images;
use qce::{AttackFlow, BandRule, EncodingChannel, FlowConfig, Grouping, TrainedAttack};
use qce_bench::{banner, base_config, cifar_rgb, pct};
use qce_defense::{DefenseKind, DefensePlan, RotationMode};

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
