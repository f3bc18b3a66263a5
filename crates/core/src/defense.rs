//! End-to-end checks of `qce-defense` countermeasures on a trained
//! attack: what a data holder's noise or re-quantization does to the
//! provider's decoding, measured on real encoded weights rather than on
//! the synthetic networks of the `qce-defense` unit tests.

mod tests {
    use crate::{AttackFlow, BandRule, FlowConfig, Grouping, TrainedAttack};
    use qce_data::{Image, SynthCifar};
    use qce_defense::{DefenseContext, DefenseKind, DefensePlan};
    use qce_metrics::mape;
    use qce_nn::Network;

    fn attacked() -> (TrainedAttack, Vec<Image>) {
        let dataset = SynthCifar::new(8).classes(4).generate(160, 81).unwrap();
        let trained = AttackFlow::new(FlowConfig {
            grouping: Grouping::Uniform(8.0),
            band: BandRule::FirstN,
            quant: None,
            ..FlowConfig::tiny()
        })
        .train(&dataset)
        .unwrap();
        let targets = trained.targets().to_vec();
        (trained, targets)
    }

    fn mean_mape(t: &TrainedAttack, targets: &[Image]) -> f32 {
        let decoded = t.decode_images().unwrap();
        decoded
            .iter()
            .map(|d| mape(&targets[d.target_index], &d.image))
            .sum::<f32>()
            / decoded.len() as f32
    }

    fn defend(net: &mut Network, kind: DefenseKind, seed: u64) -> qce_defense::Result<()> {
        DefensePlan::new(seed)
            .with(kind)
            .apply(net, &DefenseContext::empty())
    }

    fn noise(fraction: f32) -> DefenseKind {
        DefenseKind::NoiseWeights { fraction }
    }

    #[test]
    fn noise_degrades_decoding_monotonically() {
        let (mut trained, targets) = attacked();
        let clean = mean_mape(&trained, &targets);
        defend(trained.network_mut(), noise(0.2), 1).unwrap();
        let light = mean_mape(&trained, &targets);
        trained.restore_float().unwrap();
        defend(trained.network_mut(), noise(1.0), 1).unwrap();
        let heavy = mean_mape(&trained, &targets);
        assert!(clean < light, "{clean} !< {light}");
        assert!(light < heavy, "{light} !< {heavy}");
    }

    #[test]
    fn zero_noise_is_identity_and_negative_rejected() {
        let (mut trained, _) = attacked();
        let before = trained.network().flat_weights();
        defend(trained.network_mut(), noise(0.0), 1).unwrap();
        assert_eq!(trained.network().flat_weights(), before);
        assert!(defend(trained.network_mut(), noise(-0.5), 1).is_err());
    }

    #[test]
    fn requantize_produces_coarse_weights() {
        let (mut trained, targets) = attacked();
        let clean = mean_mape(&trained, &targets);
        defend(
            trained.network_mut(),
            DefenseKind::Requantize { bits: 3 },
            0,
        )
        .unwrap();
        let flat = trained.network().flat_weights();
        for slot in trained.network().weight_slots() {
            let mut levels: Vec<u32> = flat[slot.offset..slot.offset + slot.len]
                .iter()
                .map(|w| w.to_bits())
                .collect();
            levels.sort_unstable();
            levels.dedup();
            assert!(
                levels.len() <= 8,
                "slot {} has {} levels",
                slot.ordinal,
                levels.len()
            );
        }
        let after = mean_mape(&trained, &targets);
        // Defender quantization (ignorant of the pixel histogram) hurts
        // the decoding more than it would a benign deployment.
        assert!(after > clean, "{clean} !< {after}");
        for bits in [0, 17] {
            assert!(defend(trained.network_mut(), DefenseKind::Requantize { bits }, 0).is_err());
        }
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let (mut a, _) = attacked();
        let (mut b, _) = attacked();
        defend(a.network_mut(), noise(0.1), 9).unwrap();
        defend(b.network_mut(), noise(0.1), 9).unwrap();
        assert_eq!(a.network().flat_weights(), b.network().flat_weights());
    }
}
