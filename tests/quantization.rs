//! Cross-crate quantization integration tests: quantizers applied to real
//! trained networks, fine-tuning, and the Fig. 3 distribution property.

use qce_data::SynthCifar;
use qce_metrics::distribution::histogram_divergence;
use qce_nn::models::ResNetLite;
use qce_nn::{accuracy, Network, ParamKind, TrainConfig, Trainer};
use qce_quant::{
    finetune, pack, quantize_network, FinetuneConfig, KMeansQuantizer, LinearQuantizer, Quantizer,
    TargetCorrelatedQuantizer, WeightedEntropyQuantizer,
};

fn trained_net() -> (Network, qce_tensor::Tensor, Vec<usize>) {
    let data = SynthCifar::new(8).classes(4).generate(160, 31).unwrap();
    let x = data.to_tensor();
    let y = data.labels().to_vec();
    let mut net = ResNetLite::builder()
        .input(3, 8)
        .classes(4)
        .stage_channels(&[8, 16])
        .blocks_per_stage(1)
        .build(32)
        .unwrap();
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 4,
        batch_size: 32,
        lr: 0.05,
        ..TrainConfig::default()
    });
    trainer.fit(&mut net, &x, &y, None).unwrap();
    (net, x, y)
}

#[test]
fn all_quantizers_preserve_most_accuracy_at_6_bits() {
    let (mut net, x, y) = trained_net();
    let float_acc = accuracy(&mut net, &x, &y, 64).unwrap();
    let state = net.state();
    let pixels: Vec<u8> = (0..4096u32).map(|i| (i % 256) as u8).collect();
    let quantizers: Vec<Box<dyn Quantizer>> = vec![
        Box::new(LinearQuantizer::new(64).unwrap()),
        Box::new(KMeansQuantizer::new(64).unwrap()),
        Box::new(WeightedEntropyQuantizer::new(64).unwrap()),
        Box::new(TargetCorrelatedQuantizer::new(64, &pixels).unwrap()),
    ];
    for q in &quantizers {
        net.load_state(&state).unwrap();
        quantize_network(&mut net, q.as_ref()).unwrap();
        let acc = accuracy(&mut net, &x, &y, 64).unwrap();
        assert!(
            acc > float_acc - 0.25,
            "{}: float {float_acc} -> quantized {acc}",
            q.name()
        );
    }
}

#[test]
fn aggressive_quantization_hurts_then_finetune_recovers() {
    let (mut net, x, y) = trained_net();
    let float_acc = accuracy(&mut net, &x, &y, 64).unwrap();
    let mut qnet = quantize_network(&mut net, &LinearQuantizer::new(4).unwrap()).unwrap();
    let quant_acc = accuracy(&mut net, &x, &y, 64).unwrap();
    let cfg = FinetuneConfig {
        epochs: 4,
        batch_size: 32,
        lr: 0.02,
        ..FinetuneConfig::default()
    };
    finetune(&mut net, &mut qnet, &x, &y, &cfg, None).unwrap();
    let tuned_acc = accuracy(&mut net, &x, &y, 64).unwrap();
    assert!(
        tuned_acc >= quant_acc,
        "float {float_acc}, quantized {quant_acc}, tuned {tuned_acc}"
    );
    // Still quantized after fine-tuning.
    for (slot, p) in qnet.slots().iter().zip(
        net.params()
            .into_iter()
            .filter(|p| p.kind() == ParamKind::Weight),
    ) {
        let mut d: Vec<f32> = p.value().as_slice().to_vec();
        d.sort_by(f32::total_cmp);
        d.dedup();
        assert!(d.len() <= slot.codebook.levels());
    }
}

#[test]
fn target_correlated_tracks_pixel_distribution_better_than_weq() {
    // The Fig. 3 property: quantize a pixel-shaped weight vector with both
    // methods; the target-correlated result stays closer to the original
    // distribution.
    let mut rng = qce_tensor::init::seeded_rng(5);
    use rand::RngExt;
    // Bimodal pixel-like values (dark and bright pixels dominate).
    let pixels: Vec<u8> = (0..30_000)
        .map(|_| {
            if rng.random_range(0.0..1.0f32) < 0.5 {
                rng.random_range(0..80u32) as u8
            } else {
                rng.random_range(170..=255u32) as u8
            }
        })
        .collect();
    let weights: Vec<f32> = pixels.iter().map(|&p| 0.002 * p as f32 - 0.25).collect();

    let weq = WeightedEntropyQuantizer::new(32)
        .unwrap()
        .fit(&weights)
        .unwrap();
    let tc = TargetCorrelatedQuantizer::new(32, &pixels)
        .unwrap()
        .fit(&weights)
        .unwrap();
    let weq_q = weq.quantize(&weights);
    let tc_q = tc.quantize(&weights);
    let weq_div = histogram_divergence(&weights, &weq_q, 32, -0.3, 0.3);
    let tc_div = histogram_divergence(&weights, &tc_q, 32, -0.3, 0.3);
    assert!(
        tc_div < weq_div,
        "target-correlated divergence {tc_div} should be below weq {weq_div}"
    );
}

#[test]
fn packed_assignments_round_trip_through_storage() {
    let (mut net, _, _) = trained_net();
    let qnet = quantize_network(&mut net, &LinearQuantizer::new(16).unwrap()).unwrap();
    for slot in qnet.slots() {
        let bits = slot.codebook.bits();
        let packed = pack::pack(&slot.assignment, bits).unwrap();
        let unpacked = pack::unpack(&packed, bits, slot.assignment.len()).unwrap();
        assert_eq!(unpacked, slot.assignment);
        assert_eq!(packed.len(), pack::packed_len(slot.assignment.len(), bits));
    }
}

#[test]
fn quantized_model_reapply_is_stable() {
    let (mut net, x, y) = trained_net();
    let qnet = quantize_network(&mut net, &KMeansQuantizer::new(8).unwrap()).unwrap();
    let acc1 = accuracy(&mut net, &x, &y, 64).unwrap();
    let w1 = net.flat_weights();
    // Reapply is idempotent.
    qnet.reapply(&mut net).unwrap();
    assert_eq!(net.flat_weights(), w1);
    assert_eq!(accuracy(&mut net, &x, &y, 64).unwrap(), acc1);
}
