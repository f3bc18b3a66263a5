//! Checkpoint/resume integration tests: a warm cache must reproduce a
//! cold run bit for bit, and a damaged cache must degrade to
//! recomputation, never to a wrong result.
//!
//! Caches are attached with [`AttackFlow::with_cache`] (not `QCE_CACHE`)
//! so parallel tests cannot race on process environment, and every test
//! uses its own temp directory. Telemetry counters are process-global,
//! so assertions on them are `>=` deltas.

use std::sync::atomic::{AtomicU64, Ordering};

use qce::{AttackFlow, BandRule, FlowConfig, FlowOutcome, Grouping, QuantConfig, QuantMethod};
use qce_data::{Dataset, SynthCifar};
use qce_defense::{DefenseKind, DefensePlan};
use qce_store::{Artifact, StageCache};

fn temp_cache(tag: &str) -> StageCache {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "qce-flow-cache-{}-{}-{}",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    StageCache::at(dir)
}

fn data() -> Dataset {
    SynthCifar::new(8).classes(4).generate(160, 5).unwrap()
}

fn config() -> FlowConfig {
    FlowConfig {
        grouping: Grouping::Uniform(5.0),
        band: BandRule::FirstN,
        quant: Some(QuantConfig {
            method: QuantMethod::Linear,
            bits: 4,
            finetune_epochs: 1,
            finetune_lr: 0.01,
            regularize_finetune: true,
        }),
        epochs: 2,
        ..FlowConfig::tiny()
    }
}

/// [`config`] plus a release-time countermeasure, so the flow also
/// checkpoints the `defend` stage.
fn defended_config() -> FlowConfig {
    FlowConfig {
        defense: Some(DefensePlan::new(3).with(DefenseKind::NoiseWeights { fraction: 0.05 })),
        ..config()
    }
}

/// The number of checkpoints a cold run of `cfg` writes: select, train,
/// quantize and both evaluations, plus defend when a plan is set.
fn stage_count(cfg: &FlowConfig) -> u64 {
    5 + u64::from(cfg.defense.is_some())
}

/// Everything [`FlowOutcome`] promises to reproduce must match between
/// the two runs — weights bitwise, reports via `StageReport::eq`
/// (result fields; wall times are observational), histories bitwise.
fn assert_outcomes_identical(a: &FlowOutcome, b: &FlowOutcome) {
    assert_eq!(a.network.flat_weights(), b.network.flat_weights());
    assert_eq!(a.selection_indices, b.selection_indices);
    assert_eq!(a.targets, b.targets);
    assert_eq!(a.target_labels, b.target_labels);
    assert_eq!(a.pre_quant, b.pre_quant);
    assert_eq!(a.post_quant, b.post_quant);
    assert_eq!(a.post_defense, b.post_defense);
    assert_eq!(a.training.epoch_losses, b.training.epoch_losses);
    assert_eq!(a.training.epoch_penalties, b.training.epoch_penalties);
    assert_eq!(a.training.rollbacks, b.training.rollbacks);
    assert_eq!(a.compression_ratio, b.compression_ratio);
}

#[test]
fn warm_run_skips_stages_and_is_bitwise_identical() {
    let dataset = data();
    for cfg in [config(), defended_config()] {
        let cache = temp_cache("warm");
        let stages = stage_count(&cfg);

        // Reference run without any cache: what the pipeline computes cold.
        let reference = AttackFlow::new(cfg.clone()).run(&dataset).unwrap();

        // Cold run against the cache populates every stage checkpoint.
        let writes_before = qce_telemetry::counter("store.write").get();
        let cold = AttackFlow::new(cfg.clone())
            .with_cache(cache.clone())
            .run(&dataset)
            .unwrap();
        assert!(
            qce_telemetry::counter("store.write").get() - writes_before >= stages,
            "expected one checkpoint per stage ({stages})"
        );
        assert_outcomes_identical(&reference, &cold);

        // Warm run: every stage must come from the cache, and the
        // outcome must not change at all.
        let hits_before = qce_telemetry::counter("store.hit").get();
        let warm = AttackFlow::new(cfg)
            .with_cache(cache.clone())
            .run(&dataset)
            .unwrap();
        assert!(
            qce_telemetry::counter("store.hit").get() - hits_before >= stages,
            "warm run should hit every stage checkpoint"
        );
        assert_outcomes_identical(&reference, &warm);

        std::fs::remove_dir_all(cache.dir()).unwrap();
    }
}

/// Damages one cached artifact so the container CRC inside
/// `StageCache::load` rejects it.
fn flip_last_byte(mut bytes: Vec<u8>) -> Vec<u8> {
    let last = bytes.len() - 1;
    bytes[last] ^= 0x10;
    bytes
}

/// Damages one cached artifact behind a *valid* container: every
/// section is cut in half and re-wrapped with fresh checksums, so only
/// the flow's own payload decoding can reject it.
fn truncate_sections(bytes: Vec<u8>) -> Vec<u8> {
    let artifact = Artifact::from_bytes(&bytes).unwrap();
    let mut truncated = Artifact::new();
    for section in artifact.sections() {
        let half = section.payload.len() / 2;
        truncated.push(section.kind, section.payload[..half].to_vec());
    }
    truncated.to_bytes()
}

#[test]
fn corrupted_checkpoint_degrades_to_recompute() {
    let dataset = data();
    let damages: [fn(Vec<u8>) -> Vec<u8>; 2] = [flip_last_byte, truncate_sections];
    for cfg in [config(), defended_config()] {
        for damage in damages {
            let cache = temp_cache("corrupt");

            let cold = AttackFlow::new(cfg.clone())
                .with_cache(cache.clone())
                .run(&dataset)
                .unwrap();

            let mut damaged = 0;
            for entry in std::fs::read_dir(cache.dir()).unwrap() {
                let path = entry.unwrap().path();
                let bytes = std::fs::read(&path).unwrap();
                std::fs::write(&path, damage(bytes)).unwrap();
                damaged += 1;
            }
            assert!(
                damaged >= stage_count(&cfg),
                "expected one artifact per stage, saw {damaged}"
            );

            let corrupt_before = qce_telemetry::counter("store.corrupt").get();
            let writes_before = qce_telemetry::counter("store.write").get();
            let recovered = AttackFlow::new(cfg.clone())
                .with_cache(cache.clone())
                .run(&dataset)
                .unwrap();
            assert!(
                qce_telemetry::counter("store.corrupt").get() - corrupt_before >= damaged,
                "every damaged artifact must be detected"
            );
            assert!(
                qce_telemetry::counter("store.write").get() - writes_before >= damaged,
                "every damaged stage must be recomputed and rewritten"
            );
            assert_outcomes_identical(&cold, &recovered);

            std::fs::remove_dir_all(cache.dir()).unwrap();
        }
    }
}

#[test]
fn killed_run_resumes_from_last_completed_stage() {
    let dataset = data();
    let cache = temp_cache("resume");

    let cold = AttackFlow::new(config())
        .with_cache(cache.clone())
        .run(&dataset)
        .unwrap();

    // Simulate a run killed after training: later-stage checkpoints
    // (quantize, evaluations) are gone, select + train survive.
    let mut kept = 0;
    for entry in std::fs::read_dir(cache.dir()).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.contains("quantize") || name.contains("evaluate") {
            std::fs::remove_file(&path).unwrap();
        } else {
            kept += 1;
        }
    }
    assert!(kept >= 2, "select and train checkpoints should survive");

    let hits_before = qce_telemetry::counter("store.hit").get();
    let resumed = AttackFlow::new(config())
        .with_cache(cache.clone())
        .run(&dataset)
        .unwrap();
    // The surviving stages are reused; the rest recompute to the same
    // bits because every stage is deterministic from (config, seed).
    assert!(
        qce_telemetry::counter("store.hit").get() - hits_before >= 2,
        "resume should reuse the surviving select/train checkpoints"
    );
    assert_outcomes_identical(&cold, &resumed);

    std::fs::remove_dir_all(cache.dir()).unwrap();
}

#[test]
fn cacheless_flow_needs_no_directory() {
    // Without a cache attached (and without QCE_CACHE), the flow
    // touches no checkpoint paths at all — there is nothing to clean up.
    let out = AttackFlow::new(FlowConfig {
        quant: None,
        epochs: 1,
        ..config()
    })
    .run(&data());
    assert!(out.is_ok());
}
