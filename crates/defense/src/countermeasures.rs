//! The individual countermeasures behind [`DefenseKind`](crate::DefenseKind).

use rand::rngs::StdRng;
use rand::Rng;

use qce_nn::{Network, ParamKind, TrainConfig, Trainer, WeightSymmetry};
use qce_quant::{quantize_network, KMeansQuantizer};
use qce_tensor::init::standard_normal;
use qce_tensor::stats;

use crate::plan::RotationMode;
use crate::{Defense, DefenseContext, DefenseError, Result};

/// Hidden-channel re-parameterization (see [`RotationMode`]).
#[derive(Debug, Clone, Copy)]
pub struct Rotation {
    /// Permutation (exact symmetry) or QR blend (lossy rotation).
    pub mode: RotationMode,
}

impl Defense for Rotation {
    fn name(&self) -> &'static str {
        "rotation"
    }

    fn apply(&self, net: &mut Network, _ctx: &DefenseContext<'_>, rng: &mut StdRng) -> Result<()> {
        match self.mode {
            RotationMode::Permute => {
                let moved = net.permute_hidden_channels(rng.next_u64());
                qce_telemetry::counter("defense.rotation_channels").incr(moved as u64);
                Ok(())
            }
            RotationMode::QrBlend { strength } => qr_blend(net, strength, rng),
        }
    }
}

/// Blends every residual block's hidden basis toward a random orthogonal
/// rotation: the producing convolution's rows are mixed by
/// `M = (1-s)·I + s·Q` and the consuming convolution's input chunks by
/// `M⁻¹`. Exact on the linear path; lossy through batch-norm and ReLU.
fn qr_blend(net: &mut Network, strength: f32, rng: &mut StdRng) -> Result<()> {
    if strength == 0.0 {
        return Ok(());
    }
    let slots = net.weight_slots();
    let syms = net.weight_symmetries();
    let mut flat = net.flat_weights();
    // Inverse mix pending for the next consuming (PermutedInChunks) slot,
    // keyed by the hidden channel count it must match.
    let mut pending: Option<(usize, Vec<Vec<f64>>)> = None;
    for (slot, sym) in slots.iter().zip(&syms) {
        match sym {
            WeightSymmetry::PermutedRows => {
                let channels = slot.dims[0];
                let q = random_orthogonal(channels, rng);
                let mut mix = vec![vec![0.0f64; channels]; channels];
                for (o, row) in mix.iter_mut().enumerate() {
                    for (c, m) in row.iter_mut().enumerate() {
                        let id = if o == c { 1.0 } else { 0.0 };
                        *m = f64::from(1.0 - strength) * id + f64::from(strength) * q[o][c];
                    }
                }
                let inverse = invert(&mix).ok_or_else(|| DefenseError::InvalidDefense {
                    reason: format!("QR blend at strength {strength} produced a singular mix"),
                })?;
                let tensor = &mut flat[slot.offset..slot.offset + slot.len];
                mix_chunks(tensor, &mix, slot.len / channels, 1);
                pending = Some((channels, inverse));
            }
            WeightSymmetry::PermutedInChunks => {
                let (channels, inverse) =
                    pending.take().ok_or_else(|| DefenseError::InvalidDefense {
                        reason: "consuming tensor without a producing partner".to_string(),
                    })?;
                debug_assert_eq!(slot.dims[1], channels);
                // h' = M·h, so compensate with chunk'[j] = Σ_i chunk[i]·M⁻¹[i][j]
                // — i.e. mix chunks by (M⁻¹)ᵀ.
                let inv_t = transpose(&inverse);
                let rows = slot.dims[0];
                let chunk = slot.len / (rows * channels);
                let tensor = &mut flat[slot.offset..slot.offset + slot.len];
                mix_chunks(tensor, &inv_t, chunk, rows);
            }
            WeightSymmetry::Fixed => {}
        }
    }
    net.set_flat_weights(&flat)?;
    Ok(())
}

/// A random `n × n` orthogonal matrix: QR of a Gaussian matrix by
/// modified Gram–Schmidt (rows of the result are the orthonormal basis).
fn random_orthogonal(n: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut q: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..n).map(|_| f64::from(standard_normal(rng))).collect())
        .collect();
    for i in 0..n {
        let (done, rest) = q.split_at_mut(i);
        let qi = &mut rest[0];
        for qj in done.iter() {
            let dot: f64 = qi.iter().zip(qj.iter()).map(|(x, y)| x * y).sum();
            for (x, y) in qi.iter_mut().zip(qj.iter()) {
                *x -= dot * y;
            }
        }
        let norm: f64 = qi.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-9 {
            // Degenerate draw (vanishing probability): fall back to the
            // standard basis vector, which stays orthogonal to the rest.
            for (k, x) in qi.iter_mut().enumerate() {
                *x = if k == i { 1.0 } else { 0.0 };
            }
        } else {
            for x in qi.iter_mut() {
                *x /= norm;
            }
        }
    }
    q
}

/// Gauss–Jordan inverse with partial pivoting; `None` if singular.
fn invert(m: &[Vec<f64>]) -> Option<Vec<Vec<f64>>> {
    let n = m.len();
    let mut a: Vec<Vec<f64>> = m
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut wide = row.clone();
            wide.extend((0..n).map(|j| if i == j { 1.0 } else { 0.0 }));
            wide
        })
        .collect();
    for col in 0..n {
        let pivot = (col..n).max_by(|&x, &y| {
            a[x][col]
                .abs()
                .partial_cmp(&a[y][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot][col].abs() < 1e-9 {
            return None;
        }
        a.swap(col, pivot);
        let p = a[col][col];
        for v in &mut a[col] {
            *v /= p;
        }
        let pivot_row = a[col].clone();
        for (row, wide) in a.iter_mut().enumerate() {
            if row == col {
                continue;
            }
            let factor = wide[col];
            if factor == 0.0 {
                continue;
            }
            for (x, y) in wide.iter_mut().zip(pivot_row.iter()) {
                *x -= factor * y;
            }
        }
    }
    Some(a.into_iter().map(|row| row[n..].to_vec()).collect())
}

fn transpose(m: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = m.len();
    (0..n).map(|j| (0..n).map(|i| m[i][j]).collect()).collect()
}

/// Mixes channel chunks in place: within each of `rows` runs of
/// `mix.len()` chunks of `chunk` scalars, the new chunk `o` is
/// `Σ_c mix[o][c] · old chunk c`.
fn mix_chunks(data: &mut [f32], mix: &[Vec<f64>], chunk: usize, rows: usize) {
    let channels = mix.len();
    let run = channels * chunk;
    debug_assert_eq!(data.len(), rows * run);
    let mut scratch = vec![0.0f64; run];
    for r in 0..rows {
        let base = r * run;
        scratch.iter_mut().for_each(|v| *v = 0.0);
        for (o, row) in mix.iter().enumerate() {
            for (c, &m) in row.iter().enumerate() {
                if m == 0.0 {
                    continue;
                }
                for k in 0..chunk {
                    scratch[o * chunk + k] += m * f64::from(data[base + c * chunk + k]);
                }
            }
        }
        for (dst, &src) in data[base..base + run].iter_mut().zip(&scratch) {
            *dst = src as f32;
        }
    }
}

/// Short defensive retraining on clean data, eroding planted payload
/// gradients. Requires [`DefenseContext::with_data`].
#[derive(Debug, Clone, Copy)]
pub struct FinetuneScrub {
    /// Retraining epochs (0 is a no-op).
    pub epochs: usize,
    /// Learning rate of the scrubbing pass.
    pub lr: f32,
}

impl Defense for FinetuneScrub {
    fn name(&self) -> &'static str {
        "finetune-scrub"
    }

    fn apply(&self, net: &mut Network, ctx: &DefenseContext<'_>, rng: &mut StdRng) -> Result<()> {
        if self.epochs == 0 {
            return Ok(());
        }
        let (x, labels) = match (ctx.train_x, ctx.train_labels) {
            (Some(x), Some(labels)) => (x, labels),
            _ => {
                return Err(DefenseError::MissingData {
                    defense: "finetune-scrub",
                })
            }
        };
        let config = TrainConfig {
            epochs: self.epochs,
            batch_size: ctx.effective_batch_size(),
            lr: self.lr,
            shuffle_seed: rng.next_u64(),
            ..TrainConfig::default()
        };
        Trainer::new(config).fit(net, x, labels, None)?;
        Ok(())
    }
}

/// Magnitude pruning via [`qce_quant::prune::magnitude_prune`].
#[derive(Debug, Clone, Copy)]
pub struct PruneScrub {
    /// Fraction of weights to zero, in `[0, 1)`.
    pub fraction: f32,
}

impl Defense for PruneScrub {
    fn name(&self) -> &'static str {
        "prune-scrub"
    }

    fn apply(&self, net: &mut Network, _ctx: &DefenseContext<'_>, _rng: &mut StdRng) -> Result<()> {
        if self.fraction == 0.0 {
            return Ok(());
        }
        qce_quant::prune::magnitude_prune(net, self.fraction)?;
        Ok(())
    }
}

/// Defender-chosen k-means re-quantization: annihilates LSB payloads and
/// re-draws target-correlated cluster boundaries.
#[derive(Debug, Clone, Copy)]
pub struct Requantize {
    /// Codebook width in bits, `1..=16`.
    pub bits: u32,
}

impl Defense for Requantize {
    fn name(&self) -> &'static str {
        "requantize"
    }

    fn apply(&self, net: &mut Network, _ctx: &DefenseContext<'_>, _rng: &mut StdRng) -> Result<()> {
        let q = KMeansQuantizer::new(1usize << self.bits)?;
        quantize_network(net, &q)?;
        Ok(())
    }
}

/// Zero-mean Gaussian noise with σ = `fraction` of each tensor's own
/// weight standard deviation.
#[derive(Debug, Clone, Copy)]
pub struct NoiseWeights {
    /// Noise σ as a fraction of the per-tensor weight σ.
    pub fraction: f32,
}

impl Defense for NoiseWeights {
    fn name(&self) -> &'static str {
        "noise-weights"
    }

    fn apply(&self, net: &mut Network, _ctx: &DefenseContext<'_>, rng: &mut StdRng) -> Result<()> {
        if self.fraction == 0.0 {
            return Ok(());
        }
        for p in net.params_mut() {
            if p.kind() != ParamKind::Weight {
                continue;
            }
            let std = stats::std_dev(p.value().as_slice());
            if std <= 0.0 {
                continue;
            }
            let sigma = self.fraction * std;
            for w in p.value_mut().as_mut_slice() {
                *w += sigma * standard_normal(rng);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DefenseKind, DefensePlan};
    use qce_nn::models::ResNetLite;
    use qce_nn::Mode;
    use qce_tensor::{init, Tensor};
    use rand::SeedableRng;

    fn net(seed: u64) -> Network {
        ResNetLite::builder()
            .input(1, 8)
            .classes(2)
            .stage_channels(&[4, 8])
            .blocks_per_stage(1)
            .build(seed)
            .unwrap()
    }

    fn eval(net: &mut Network, x: &Tensor) -> Vec<f32> {
        net.forward(x, Mode::Eval).unwrap().as_slice().to_vec()
    }

    #[test]
    fn permute_rotation_preserves_function_and_moves_weights() {
        let mut n = net(1);
        let x = init::uniform(&[2, 1, 8, 8], -1.0, 1.0, &mut init::seeded_rng(2));
        let before_out = eval(&mut n, &x);
        let before_w = n.flat_weights();
        let plan = DefensePlan::new(5).with(DefenseKind::Rotation {
            mode: RotationMode::Permute,
        });
        plan.apply(&mut n, &DefenseContext::empty()).unwrap();
        assert_ne!(n.flat_weights(), before_w);
        for (a, b) in before_out.iter().zip(eval(&mut n, &x)) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn qr_blend_zero_is_identity_and_small_strength_bounded() {
        let mut n = net(3);
        let x = init::uniform(&[2, 1, 8, 8], -1.0, 1.0, &mut init::seeded_rng(4));
        let before_w = n.flat_weights();
        let before_out = eval(&mut n, &x);
        let mut rng = StdRng::seed_from_u64(9);
        qr_blend(&mut n, 0.0, &mut rng).unwrap();
        assert_eq!(n.flat_weights(), before_w);
        qr_blend(&mut n, 0.3, &mut rng).unwrap();
        assert_ne!(n.flat_weights(), before_w);
        let after_out = eval(&mut n, &x);
        // Lossy but sane: outputs stay finite and in the same ballpark.
        let drift: f32 = before_out
            .iter()
            .zip(&after_out)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(drift.is_finite());
    }

    #[test]
    fn qr_blend_compensates_the_linear_path() {
        // With mix M on producing rows and (M⁻¹)ᵀ on consuming chunks,
        // the composition Σ_i chunk'[i]·row'[i] must be unchanged. Verify
        // on the raw matrices, independent of BN/ReLU.
        let mut rng = StdRng::seed_from_u64(11);
        let n = 6;
        let q = random_orthogonal(n, &mut rng);
        // Orthogonality: Q·Qᵀ = I.
        for i in 0..n {
            for j in 0..n {
                let dot: f64 = (0..n).map(|k| q[i][k] * q[j][k]).sum();
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((dot - want).abs() < 1e-9, "Q row dot {i},{j} = {dot}");
            }
        }
        let s = 0.7f64;
        let mix: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| if i == j { 1.0 - s } else { 0.0 } + s * q[i][j])
                    .collect()
            })
            .collect();
        let inv = invert(&mix).unwrap();
        for (i, mrow) in mix.iter().enumerate() {
            for j in 0..n {
                let dot: f64 = mrow
                    .iter()
                    .zip(inv.iter())
                    .map(|(m, irow)| m * irow[j])
                    .sum();
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((dot - want).abs() < 1e-8, "M·M⁻¹ at {i},{j} = {dot}");
            }
        }
    }

    #[test]
    fn invert_rejects_singular() {
        let singular = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(invert(&singular).is_none());
    }

    #[test]
    fn finetune_scrub_needs_data_and_moves_weights_with_it() {
        let mut n = net(5);
        let scrub = FinetuneScrub {
            epochs: 1,
            lr: 0.01,
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            scrub.apply(&mut n, &DefenseContext::empty(), &mut rng),
            Err(DefenseError::MissingData {
                defense: "finetune-scrub"
            })
        ));
        let x = init::uniform(&[16, 1, 8, 8], -1.0, 1.0, &mut init::seeded_rng(6));
        let labels: Vec<usize> = (0..16).map(|i| i % 2).collect();
        let before = n.flat_weights();
        scrub
            .apply(&mut n, &DefenseContext::with_data(&x, &labels, 8), &mut rng)
            .unwrap();
        assert_ne!(n.flat_weights(), before);
    }

    #[test]
    fn prune_scrub_zeroes_small_weights() {
        let mut n = net(7);
        let plan = DefensePlan::new(0).with(DefenseKind::PruneScrub { fraction: 0.5 });
        plan.apply(&mut n, &DefenseContext::empty()).unwrap();
        let flat = n.flat_weights();
        let zeros = flat.iter().filter(|w| **w == 0.0).count();
        assert!(
            zeros as f32 >= 0.4 * flat.len() as f32,
            "only {zeros}/{} zeroed",
            flat.len()
        );
    }

    #[test]
    fn requantize_coarsens_each_tensor() {
        let mut n = net(8);
        // Codebook widths outside 1..=16 are rejected before any weight moves.
        let before = n.flat_weights();
        for bits in [0, 17] {
            let bad = DefensePlan::new(0).with(DefenseKind::Requantize { bits });
            assert!(bad.apply(&mut n, &DefenseContext::empty()).is_err());
        }
        assert_eq!(n.flat_weights(), before);
        let plan = DefensePlan::new(0).with(DefenseKind::Requantize { bits: 2 });
        plan.apply(&mut n, &DefenseContext::empty()).unwrap();
        for slot in n.weight_slots() {
            let flat = n.flat_weights();
            let mut vals: Vec<u32> = flat[slot.offset..slot.offset + slot.len]
                .iter()
                .map(|w| w.to_bits())
                .collect();
            vals.sort_unstable();
            vals.dedup();
            assert!(
                vals.len() <= 4,
                "slot {} has {} levels",
                slot.ordinal,
                vals.len()
            );
        }
    }

    #[test]
    fn plans_reproduce_exactly_per_seed() {
        let noise = DefensePlan::new(21).with(DefenseKind::NoiseWeights { fraction: 0.05 });
        let plan = DefensePlan::new(21)
            .with(DefenseKind::Rotation {
                mode: RotationMode::Permute,
            })
            .with(DefenseKind::NoiseWeights { fraction: 0.05 });
        for p in [&noise, &plan] {
            let mut x = net(9);
            let mut y = net(9);
            p.apply(&mut x, &DefenseContext::empty()).unwrap();
            p.apply(&mut y, &DefenseContext::empty()).unwrap();
            assert_eq!(x.flat_weights(), y.flat_weights(), "{p:?}");
        }
        let mut a = net(9);
        plan.apply(&mut a, &DefenseContext::empty()).unwrap();
        let mut c = net(9);
        DefensePlan::new(22)
            .with(DefenseKind::Rotation {
                mode: RotationMode::Permute,
            })
            .with(DefenseKind::NoiseWeights { fraction: 0.05 })
            .apply(&mut c, &DefenseContext::empty())
            .unwrap();
        assert_ne!(a.flat_weights(), c.flat_weights());
    }
}
