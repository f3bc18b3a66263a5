//! Integration tests of the three encoding attacks from the paper's
//! background section, exercised against real trained models.

use qce_attack::correlation::SignConvention;
use qce_attack::{lsb, sign, CorrelationRegularizer, Decoder, EncodingLayout, GroupSpec};
use qce_data::SynthCifar;
use qce_metrics::mape;
use qce_nn::models::ResNetLite;
use qce_nn::{Network, Regularizer, TrainConfig, Trainer};
use qce_quant::{quantize_network, LinearQuantizer, WeightedEntropyQuantizer};

fn train_with_attack(lambda: f32, seed: u64) -> (Network, EncodingLayout, qce_data::Dataset) {
    let data = SynthCifar::new(8).classes(4).generate(200, seed).unwrap();
    let mut net = ResNetLite::builder()
        .input(3, 8)
        .classes(4)
        .stage_channels(&[8, 16])
        .blocks_per_stage(1)
        .build(seed)
        .unwrap();
    let specs = GroupSpec::uniform(net.weight_slots().len(), lambda);
    let layout = EncodingLayout::plan(&net, &specs, data.images()).unwrap();
    let mut reg = CorrelationRegularizer::new(layout.clone(), SignConvention::Positive);
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 3,
        batch_size: 32,
        lr: 0.05,
        ..TrainConfig::default()
    });
    let x = data.to_tensor();
    let y = data.labels().to_vec();
    trainer.fit(&mut net, &x, &y, Some(&mut reg)).unwrap();
    (net, layout, data)
}

#[test]
fn correlation_attack_end_to_end_extraction() {
    let (net, layout, data) = train_with_attack(200.0, 41);
    let decoder = Decoder::new(layout, SignConvention::Positive);
    let decoded = decoder.decode(&net.flat_weights()).unwrap();
    assert!(!decoded.is_empty());
    let mean_mape: f32 = decoded
        .iter()
        .map(|d| mape(data.image(d.target_index), &d.image))
        .sum::<f32>()
        / decoded.len() as f32;
    // Random decoding would sit near 85; the attack should be far below.
    assert!(mean_mape < 35.0, "mean MAPE {mean_mape}");
}

#[test]
fn correlation_survives_mild_quantization_but_weq_hurts_it() {
    let (mut net, layout, data) = train_with_attack(200.0, 43);
    let decoder = Decoder::new(layout, SignConvention::Positive);
    let mean_mape = |net: &Network| -> f32 {
        let decoded = decoder.decode(&net.flat_weights()).unwrap();
        decoded
            .iter()
            .map(|d| mape(data.image(d.target_index), &d.image))
            .sum::<f32>()
            / decoded.len() as f32
    };
    let float_mape = mean_mape(&net);
    let state = net.state();

    // 8-bit linear quantization barely moves the needle.
    quantize_network(&mut net, &LinearQuantizer::new(256).unwrap()).unwrap();
    let linear8 = mean_mape(&net);
    assert!(linear8 < float_mape + 3.0, "{float_mape} -> {linear8}");

    // 3-bit weighted-entropy quantization visibly degrades it.
    net.load_state(&state).unwrap();
    quantize_network(&mut net, &WeightedEntropyQuantizer::new(8).unwrap()).unwrap();
    let weq3 = mean_mape(&net);
    assert!(weq3 > linear8, "weq3 {weq3} vs linear8 {linear8}");
}

#[test]
fn lsb_attack_full_capacity_round_trip_on_model_weights() {
    let net = ResNetLite::builder()
        .input(3, 8)
        .classes(4)
        .stage_channels(&[8, 16])
        .blocks_per_stage(1)
        .build(45)
        .unwrap();
    let mut flat = net.flat_weights();
    let capacity_bytes = lsb::capacity_bits(flat.len(), 8) / 8;
    let payload: Vec<u8> = (0..capacity_bytes).map(|i| (i * 131 + 17) as u8).collect();
    lsb::embed(&mut flat, &payload, 8).unwrap();
    let recovered = lsb::extract(&flat, 8, payload.len()).unwrap();
    assert_eq!(recovered, payload);
}

#[test]
fn lsb_attack_is_destroyed_by_any_codebook_quantization() {
    let mut net = ResNetLite::builder()
        .input(3, 8)
        .classes(4)
        .stage_channels(&[8, 16])
        .blocks_per_stage(1)
        .build(46)
        .unwrap();
    let mut flat = net.flat_weights();
    let payload: Vec<u8> = (0..256).map(|i| (i * 37) as u8).collect();
    lsb::embed(&mut flat, &payload, 4).unwrap();
    net.set_flat_weights(&flat).unwrap();
    // Even a mild 4-bit quantization of the released model...
    // (16 levels, small enough that no tensor falls back to the
    // lossless exact codebook)
    quantize_network(&mut net, &LinearQuantizer::new(16).unwrap()).unwrap();
    let recovered = lsb::extract(&net.flat_weights(), 4, payload.len()).unwrap();
    let rate = lsb::bit_recovery_rate(&payload, &recovered);
    // ...reduces recovery to coin flipping.
    assert!(rate < 0.65, "LSB payload survived quantization: {rate}");
}

#[test]
fn sign_attack_survives_quantization_unlike_lsb() {
    let mut net = ResNetLite::builder()
        .input(3, 8)
        .classes(4)
        .stage_channels(&[8, 16])
        .blocks_per_stage(1)
        .build(47)
        .unwrap();
    let payload: Vec<u8> = (0..32).map(|i| (i * 53 + 5) as u8).collect();
    let mut reg = sign::SignEncodingRegularizer::with_margin(&payload, 20.0, 0.1).unwrap();
    // Drive the signs with pure regularizer descent.
    for _ in 0..300 {
        net.zero_grad();
        reg.apply(&mut net).unwrap();
        let mut params = net.params_mut();
        for p in params.iter_mut() {
            if p.kind() == qce_nn::ParamKind::Weight {
                let g = p.grad().clone();
                p.value_mut().axpy(-0.5, &g).unwrap();
            }
        }
    }
    assert_eq!(
        sign::extract(&net.flat_weights(), payload.len()).unwrap(),
        payload
    );
    // Sign-preserving quantization keeps the payload readable.
    quantize_network(&mut net, &LinearQuantizer::new(16).unwrap()).unwrap();
    let agreement = sign::sign_agreement(&net.flat_weights(), &payload);
    assert!(agreement > 0.9, "agreement after quantization {agreement}");
}

#[test]
fn absolute_sign_convention_resolves_polarity_at_evaluation() {
    let data = SynthCifar::new(8).classes(4).generate(120, 48).unwrap();
    let net = ResNetLite::builder()
        .input(3, 8)
        .classes(4)
        .stage_channels(&[8, 16])
        .blocks_per_stage(1)
        .build(48)
        .unwrap();
    let specs = GroupSpec::uniform(net.weight_slots().len(), 1.0);
    let layout = EncodingLayout::plan(&net, &specs, data.images()).unwrap();
    // Synthesize anti-correlated weights (what Absolute training may do).
    let mut flat = net.flat_weights();
    let g = &layout.groups()[0];
    let mut stream = g.extract(&flat);
    for (i, &p) in g.target().iter().enumerate() {
        stream[i] = -0.001 * p + 0.1;
    }
    let mut acc = vec![0.0f32; flat.len()];
    g.scatter_add(&stream, &mut acc);
    for &(off, len) in g.flat_ranges() {
        flat[off..off + len].copy_from_slice(&acc[off..off + len]);
    }
    let decoder = Decoder::new(layout.clone(), SignConvention::Absolute);
    let straight = decoder.decode_group(&flat, 0, false).unwrap();
    let flipped = decoder.decode_group(&flat, 0, true).unwrap();
    let err = |set: &[qce_attack::DecodedImage]| -> f32 {
        set.iter()
            .map(|d| mape(data.image(d.target_index), &d.image))
            .sum::<f32>()
            / set.len() as f32
    };
    assert!(err(&flipped) < 10.0);
    assert!(err(&straight) > err(&flipped));
}
