//! Integration tests of the training substrate on the synthetic datasets.

use qce_data::{SynthCifar, SynthFaces};
use qce_nn::models::ResNetLite;
use qce_nn::{accuracy, LrSchedule, TrainConfig, Trainer};

#[test]
fn resnet_lite_learns_synth_cifar_well_above_chance() {
    let data = SynthCifar::new(8).classes(4).generate(320, 51).unwrap();
    let (train, test) = data.split(0.75, 1).unwrap();
    let mut net = ResNetLite::builder()
        .input(3, 8)
        .classes(4)
        .stage_channels(&[8, 16])
        .blocks_per_stage(1)
        .build(52)
        .unwrap();
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 6,
        batch_size: 32,
        lr: 0.05,
        schedule: LrSchedule::Cosine {
            total_epochs: 6,
            min_lr: 0.002,
        },
        ..TrainConfig::default()
    });
    let history = trainer
        .fit(&mut net, &train.to_tensor(), train.labels(), None)
        .unwrap();
    assert!(history.epoch_losses[5] < history.epoch_losses[0]);
    let acc = accuracy(&mut net, &test.to_tensor(), test.labels(), 64).unwrap();
    assert!(acc > 0.6, "test accuracy {acc} (chance 0.25)");
}

#[test]
fn resnet_lite_learns_synth_faces_above_chance() {
    let data = SynthFaces::new(16, 8).generate(320, 53).unwrap();
    let (train, test) = data.split(0.75, 2).unwrap();
    let mut net = ResNetLite::builder()
        .input(1, 16)
        .classes(8)
        .stage_channels(&[8, 16, 32])
        .blocks_per_stage(1)
        .build(54)
        .unwrap();
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 6,
        batch_size: 32,
        lr: 0.05,
        ..TrainConfig::default()
    });
    trainer
        .fit(&mut net, &train.to_tensor(), train.labels(), None)
        .unwrap();
    let acc = accuracy(&mut net, &test.to_tensor(), test.labels(), 64).unwrap();
    assert!(acc > 0.5, "face accuracy {acc} (chance 0.125)");
}

#[test]
fn grayscale_pipeline_trains_end_to_end() {
    let data = SynthCifar::new(8)
        .classes(4)
        .generate(160, 55)
        .unwrap()
        .to_grayscale();
    let mut net = ResNetLite::builder()
        .input(1, 8)
        .classes(4)
        .stage_channels(&[8])
        .blocks_per_stage(1)
        .build(56)
        .unwrap();
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 3,
        batch_size: 16,
        ..TrainConfig::default()
    });
    let history = trainer
        .fit(&mut net, &data.to_tensor(), data.labels(), None)
        .unwrap();
    assert_eq!(history.epoch_losses.len(), 3);
    assert!(history.epoch_losses.iter().all(|l| l.is_finite()));
}

#[test]
fn training_is_reproducible_across_identical_runs() {
    let data = SynthCifar::new(8).classes(3).generate(90, 57).unwrap();
    let run = || {
        let mut net = ResNetLite::builder()
            .input(3, 8)
            .classes(3)
            .stage_channels(&[6])
            .blocks_per_stage(1)
            .build(58)
            .unwrap();
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 2,
            batch_size: 16,
            ..TrainConfig::default()
        });
        trainer
            .fit(&mut net, &data.to_tensor(), data.labels(), None)
            .unwrap();
        net.flat_weights()
    };
    assert_eq!(run(), run());
}
