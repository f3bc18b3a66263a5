use qce_nn::loss::softmax_cross_entropy;
use qce_nn::{gather_batch, Mode, Network, ParamKind, Regularizer, TrainingHistory};
use qce_tensor::Tensor;
use rand::seq::SliceRandom;

use crate::{QuantError, QuantizedNetwork, Result};

/// Hyper-parameters for quantization-aware fine-tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct FinetuneConfig {
    /// Number of fine-tuning epochs (papers use "light" fine-tuning; 1–3).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate for the shared-centroid updates.
    pub lr: f32,
    /// Momentum on the centroid velocity.
    pub momentum: f32,
    /// Seed for the per-epoch shuffle.
    pub shuffle_seed: u64,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        FinetuneConfig {
            epochs: 2,
            batch_size: 32,
            lr: 0.01,
            momentum: 0.9,
            shuffle_seed: 0xf17e,
        }
    }
}

/// Quantization-aware fine-tuning with shared centroids (deep-compression
/// style).
///
/// Cluster assignments stay **fixed**; each step averages the gradients of
/// all weights sharing a centroid, moves the centroid by SGD with
/// momentum, and rewrites the member weights — so the model never leaves
/// its quantized representation. Non-`Weight` parameters (biases, batch
/// norm) train normally, which is how quantized deployments recover
/// accuracy in practice.
///
/// When the malicious `regularizer` is passed (the adversary authors the
/// whole training algorithm, including this step), the correlation
/// gradient joins the centroid updates — keeping the encoded data aligned
/// through accuracy recovery.
///
/// # Errors
///
/// Returns [`QuantError::AssignmentMismatch`] if `qnet` does not match
/// `net`, or propagates training errors.
pub fn finetune(
    net: &mut Network,
    qnet: &mut QuantizedNetwork,
    x: &Tensor,
    labels: &[usize],
    config: &FinetuneConfig,
    mut regularizer: Option<&mut dyn Regularizer>,
) -> Result<TrainingHistory> {
    let n = x.dims()[0];
    if labels.len() != n {
        return Err(QuantError::Nn(qce_nn::NnError::SampleLabelMismatch {
            samples: n,
            labels: labels.len(),
        }));
    }
    // Validate alignment once up front.
    {
        let weight_lens: Vec<usize> = net
            .params()
            .iter()
            .filter(|p| p.kind() == ParamKind::Weight)
            .map(|p| p.len())
            .collect();
        if weight_lens.len() != qnet.slots().len()
            || weight_lens
                .iter()
                .zip(qnet.slots())
                .any(|(&l, s)| l != s.len())
        {
            return Err(QuantError::AssignmentMismatch {
                expected: qnet.num_weights(),
                actual: weight_lens.iter().sum(),
            });
        }
    }

    // Per-slot, per-cluster centroid velocities.
    let mut velocities: Vec<Vec<f32>> = qnet
        .slots()
        .iter()
        .map(|s| vec![0.0; s.codebook.levels()])
        .collect();
    // Separate velocities for the non-weight parameters.
    let mut other_velocities: Vec<Vec<f32>> = net
        .params()
        .iter()
        .filter(|p| p.kind() != ParamKind::Weight)
        .map(|p| vec![0.0; p.len()])
        .collect();

    let mut rng = qce_tensor::init::seeded_rng(config.shuffle_seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut history = TrainingHistory::default();

    for epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut penalty_sum = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size.max(1)) {
            let bx = gather_batch(x, chunk)?;
            let by: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
            net.zero_grad();
            let logits = net.forward(&bx, Mode::Train)?;
            let out = softmax_cross_entropy(&logits, &by)?;
            net.backward(&out.grad)?;
            if let Some(reg) = regularizer.as_deref_mut() {
                penalty_sum += reg.apply(net)? as f64;
            }
            centroid_step(net, qnet, &mut velocities, &mut other_velocities, config)?;
            loss_sum += out.loss as f64;
            batches += 1;
        }
        let mean_loss = (loss_sum / batches as f64) as f32;
        history.epoch_losses.push(mean_loss);
        history
            .epoch_penalties
            .push((penalty_sum / batches as f64) as f32);
        qce_telemetry::debug!("finetune epoch {epoch}: loss={mean_loss:.4}");
    }
    Ok(history)
}

/// One shared-centroid SGD step plus a plain SGD step on non-weight
/// parameters.
fn centroid_step(
    net: &mut Network,
    qnet: &mut QuantizedNetwork,
    velocities: &mut [Vec<f32>],
    other_velocities: &mut [Vec<f32>],
    config: &FinetuneConfig,
) -> Result<()> {
    let mut slot_idx = 0usize;
    let mut other_idx = 0usize;
    for p in net.params_mut() {
        if p.kind() == ParamKind::Weight {
            let slot = &mut qnet.slots_mut()[slot_idx];
            let vel = &mut velocities[slot_idx];
            let levels = slot.codebook.levels();
            // Average gradient per cluster.
            let mut grad_sum = vec![0.0f64; levels];
            let mut count = vec![0u32; levels];
            for (&g, &a) in p.grad().as_slice().iter().zip(slot.assignment.iter()) {
                grad_sum[a as usize] += g as f64;
                count[a as usize] += 1;
            }
            // Move the representatives.
            let mut reps = slot.codebook.representatives().to_vec();
            for k in 0..levels {
                if count[k] == 0 {
                    continue;
                }
                let mean_grad = (grad_sum[k] / count[k] as f64) as f32;
                vel[k] = config.momentum * vel[k] + mean_grad;
                reps[k] -= config.lr * vel[k];
            }
            // Keep representatives consistent with the (unchanged)
            // boundaries: clamp ordering so the codebook stays valid.
            slot.codebook = crate::Codebook::new(reps, slot.codebook.boundaries().to_vec())
                .map_err(|e| match e {
                    QuantError::InvalidCodebook { reason } => {
                        QuantError::InvalidCodebook { reason }
                    }
                    other => other,
                })?;
            // Rewrite member weights from the moved centroids.
            let decoded = slot.codebook.decode(&slot.assignment)?;
            p.value_mut().as_mut_slice().copy_from_slice(&decoded);
            slot_idx += 1;
        } else {
            let vel = &mut other_velocities[other_idx];
            let grad = p.grad().as_slice().to_vec();
            let pv = p.value_mut().as_mut_slice();
            for i in 0..pv.len() {
                vel[i] = config.momentum * vel[i] + grad[i];
                pv[i] -= config.lr * vel[i];
            }
            other_idx += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{quantize_network, LinearQuantizer};
    use qce_nn::accuracy;
    use qce_nn::models::ResNetLite;

    fn toy() -> (Network, Tensor, Vec<usize>) {
        let data = qce_data_free_toy();
        let net = ResNetLite::builder()
            .input(1, 8)
            .classes(2)
            .stage_channels(&[4, 8])
            .blocks_per_stage(1)
            .build(5)
            .unwrap();
        (net, data.0, data.1)
    }

    /// Tiny two-class problem: bright-top vs bright-bottom images.
    fn qce_data_free_toy() -> (Tensor, Vec<usize>) {
        let mut rng = qce_tensor::init::seeded_rng(3);
        let n = 64;
        let mut data = Vec::with_capacity(n * 64);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            for y in 0..8 {
                for _x in 0..8 {
                    let bright = if (class == 0) == (y < 4) { 0.9 } else { 0.1 };
                    data.push(bright + 0.05 * qce_tensor::init::standard_normal(&mut rng));
                }
            }
            labels.push(class);
        }
        (Tensor::from_vec(data, &[n, 1, 8, 8]).unwrap(), labels)
    }

    #[test]
    fn finetune_improves_quantized_accuracy_and_stays_quantized() {
        let (mut net, x, y) = toy();
        // Train briefly first.
        let mut trainer = qce_nn::Trainer::new(qce_nn::TrainConfig {
            epochs: 6,
            batch_size: 16,
            lr: 0.05,
            ..qce_nn::TrainConfig::default()
        });
        trainer.fit(&mut net, &x, &y, None).unwrap();
        let acc_before_quant = accuracy(&mut net, &x, &y, 32).unwrap();

        // Aggressive 2-level quantization hurts.
        let mut qnet = quantize_network(&mut net, &LinearQuantizer::new(2).unwrap()).unwrap();
        let acc_quant = accuracy(&mut net, &x, &y, 32).unwrap();

        // Fine-tune.
        let cfg = FinetuneConfig {
            epochs: 6,
            batch_size: 16,
            lr: 0.02,
            ..FinetuneConfig::default()
        };
        finetune(&mut net, &mut qnet, &x, &y, &cfg, None).unwrap();
        let acc_after = accuracy(&mut net, &x, &y, 32).unwrap();
        assert!(
            acc_after >= acc_quant,
            "finetune hurt: {acc_quant} -> {acc_after} (float {acc_before_quant})"
        );

        // Model is still quantized: each tensor has at most `levels`
        // distinct values.
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
    fn finetune_validates_alignment() {
        let (mut net, x, y) = toy();
        let mut other = ResNetLite::builder()
            .input(1, 8)
            .classes(2)
            .stage_channels(&[6])
            .blocks_per_stage(1)
            .build(9)
            .unwrap();
        let mut qnet = quantize_network(&mut other, &LinearQuantizer::new(4).unwrap()).unwrap();
        let cfg = FinetuneConfig::default();
        assert!(matches!(
            finetune(&mut net, &mut qnet, &x, &y, &cfg, None),
            Err(QuantError::AssignmentMismatch { .. })
        ));
    }

    #[test]
    fn finetune_validates_labels() {
        let (mut net, x, _) = toy();
        let mut qnet = quantize_network(&mut net, &LinearQuantizer::new(4).unwrap()).unwrap();
        let cfg = FinetuneConfig::default();
        assert!(finetune(&mut net, &mut qnet, &x, &[0, 1], &cfg, None).is_err());
    }

    #[test]
    fn regularizer_participates_in_finetuning() {
        struct Probe {
            calls: usize,
        }
        impl Regularizer for Probe {
            fn apply(&mut self, _net: &mut Network) -> qce_nn::Result<f32> {
                self.calls += 1;
                Ok(0.25)
            }
        }
        let (mut net, x, y) = toy();
        let mut qnet = quantize_network(&mut net, &LinearQuantizer::new(4).unwrap()).unwrap();
        let mut probe = Probe { calls: 0 };
        let cfg = FinetuneConfig {
            epochs: 1,
            batch_size: 16,
            ..FinetuneConfig::default()
        };
        let hist = finetune(&mut net, &mut qnet, &x, &y, &cfg, Some(&mut probe)).unwrap();
        assert_eq!(probe.calls, 4);
        assert!((hist.epoch_penalties[0] - 0.25).abs() < 1e-6);
    }
}
