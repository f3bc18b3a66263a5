use qce_tensor::Tensor;

use crate::{Layer, Mode, NnError, Param, ParamKind, Result, WeightSymmetry};

/// Position of one `Weight`-kind parameter tensor inside the network's
/// flattened weight space.
///
/// The correlation-encoding attack and the quantizers address weights
/// through this layout: `ordinal` numbers the convolution/fully-connected
/// layers in forward order (0-based), which is what the paper's
/// "first 12 layers" style grouping refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightSlot {
    /// 0-based index among `Weight`-kind parameters in forward order.
    pub ordinal: usize,
    /// Offset of this tensor's first element in the flat weight vector.
    pub offset: usize,
    /// Number of elements.
    pub len: usize,
    /// Shape of the weight tensor.
    pub dims: Vec<usize>,
}

/// A full inference-state checkpoint of a [`Network`]: every parameter
/// tensor plus every buffer (batch-norm running statistics). Created by
/// [`Network::snapshot`], restored by [`Network::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSnapshot {
    params: Vec<Tensor>,
    buffers: Vec<Vec<f32>>,
}

impl NetworkSnapshot {
    /// The snapshotted buffers (batch-norm running statistics), in
    /// network order.
    pub fn buffers(&self) -> &[Vec<f32>] {
        &self.buffers
    }

    /// Replaces the snapshotted buffers (used when deserializing a
    /// released model).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::WeightLengthMismatch`] if the count or any
    /// length differs from the snapshot's existing buffers.
    pub fn set_buffers(&mut self, buffers: Vec<Vec<f32>>) -> Result<()> {
        if buffers.len() != self.buffers.len()
            || buffers
                .iter()
                .zip(self.buffers.iter())
                .any(|(a, b)| a.len() != b.len())
        {
            return Err(NnError::WeightLengthMismatch {
                expected: self.buffers.len(),
                actual: buffers.len(),
            });
        }
        self.buffers = buffers;
        Ok(())
    }
}

/// An ordered stack of [`Layer`]s with flat, deterministic parameter
/// access.
///
/// `Network` is the white-box surface of the threat model: after the data
/// holder releases the model, the adversary reads the same
/// [`flat_weights`](Network::flat_weights) vector the quantizers and the
/// malicious regularizer manipulated during training.
///
/// # Examples
///
/// ```
/// use qce_nn::layers::{Flatten, Linear, ReLU};
/// use qce_nn::{Mode, Network};
/// use qce_tensor::{init, Tensor};
///
/// # fn main() -> Result<(), qce_nn::NnError> {
/// let mut rng = init::seeded_rng(0);
/// let mut net = Network::new(vec![
///     Box::new(Flatten::new()),
///     Box::new(Linear::new(16, 8, &mut rng)),
///     Box::new(ReLU::new()),
///     Box::new(Linear::new(8, 2, &mut rng)),
/// ]);
/// let logits = net.forward(&Tensor::zeros(&[1, 1, 4, 4]), Mode::Eval)?;
/// assert_eq!(logits.dims(), &[1, 2]);
/// assert_eq!(net.weight_slots().len(), 2);
/// # Ok(())
/// # }
/// ```
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field(
                "layers",
                &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .field("num_params", &self.num_params())
            .finish()
    }
}

impl Network {
    /// Creates a network from an ordered list of layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Network { layers }
    }

    /// Runs the full forward pass.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    /// Runs the full backward pass, accumulating parameter gradients, and
    /// returns the gradient w.r.t. the network input.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error (including
    /// [`NnError::BackwardBeforeForward`]).
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Clears every parameter gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// All parameters in deterministic (forward) order.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutable access to all parameters in the same order as
    /// [`Network::params`].
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Layout of the `Weight`-kind parameters in flat weight space.
    pub fn weight_slots(&self) -> Vec<WeightSlot> {
        let mut slots = Vec::new();
        let mut offset = 0;
        let mut ordinal = 0;
        for p in self.params() {
            if p.kind() == ParamKind::Weight {
                slots.push(WeightSlot {
                    ordinal,
                    offset,
                    len: p.len(),
                    dims: p.value().dims().to_vec(),
                });
                offset += p.len();
                ordinal += 1;
            }
        }
        slots
    }

    /// Applies a seeded, function-preserving permutation to every layer's
    /// internal hidden channels (see
    /// [`Layer::permute_hidden_channels`]) and returns the total number
    /// of channels permuted.
    ///
    /// Layers draw their permutations from one `StdRng` seeded with
    /// `seed` in forward order, so the whole transform is deterministic.
    /// This is the primitive behind the `qce-defense` rotation defense:
    /// it scrambles position-addressed weight payloads while leaving the
    /// network's function bit-comparable up to float summation order.
    pub fn permute_hidden_channels(&mut self, seed: u64) -> usize {
        let mut rng = qce_tensor::init::seeded_rng(seed);
        self.layers
            .iter_mut()
            .map(|l| l.permute_hidden_channels(&mut rng))
            .sum()
    }

    /// How each `Weight`-kind tensor (aligned with
    /// [`Network::weight_slots`]) transforms under
    /// [`Network::permute_hidden_channels`] — the white-box symmetry map
    /// a permutation-invariant encoding lays its payload out against.
    pub fn weight_symmetries(&self) -> Vec<WeightSymmetry> {
        self.layers
            .iter()
            .flat_map(|l| l.weight_symmetries())
            .collect()
    }

    /// Total number of `Weight`-kind scalars (the encodable/quantizable
    /// parameter count).
    pub fn num_weights(&self) -> usize {
        self.params()
            .iter()
            .filter(|p| p.kind() == ParamKind::Weight)
            .map(|p| p.len())
            .sum()
    }

    /// Concatenates all `Weight`-kind parameters into one flat vector, in
    /// forward order.
    pub fn flat_weights(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_weights());
        for p in self.params() {
            if p.kind() == ParamKind::Weight {
                out.extend_from_slice(p.value().as_slice());
            }
        }
        out
    }

    /// Overwrites all `Weight`-kind parameters from a flat vector produced
    /// by (or layout-compatible with) [`Network::flat_weights`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::WeightLengthMismatch`] if the total length is
    /// wrong.
    pub fn set_flat_weights(&mut self, flat: &[f32]) -> Result<()> {
        let expected = self.num_weights();
        if flat.len() != expected {
            return Err(NnError::WeightLengthMismatch {
                expected,
                actual: flat.len(),
            });
        }
        let mut offset = 0;
        for p in self.params_mut() {
            if p.kind() == ParamKind::Weight {
                let len = p.len();
                p.value_mut()
                    .as_mut_slice()
                    .copy_from_slice(&flat[offset..offset + len]);
                offset += len;
            }
        }
        Ok(())
    }

    /// Adds `flat` elementwise into the `Weight`-kind parameter gradients —
    /// the hook the correlation regularizer uses to inject its analytic
    /// gradient.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::WeightLengthMismatch`] if the total length is
    /// wrong.
    pub fn add_flat_weight_grads(&mut self, flat: &[f32]) -> Result<()> {
        let expected = self.num_weights();
        if flat.len() != expected {
            return Err(NnError::WeightLengthMismatch {
                expected,
                actual: flat.len(),
            });
        }
        let mut offset = 0;
        for p in self.params_mut() {
            if p.kind() == ParamKind::Weight {
                let len = p.len();
                for (g, &d) in p
                    .grad_mut()
                    .as_mut_slice()
                    .iter_mut()
                    .zip(flat[offset..offset + len].iter())
                {
                    *g += d;
                }
                offset += len;
            }
        }
        Ok(())
    }

    /// Snapshot of every parameter value (all kinds), for checkpointing.
    ///
    /// Does **not** include batch-norm running statistics; use
    /// [`Network::snapshot`] for a full inference-state checkpoint.
    pub fn state(&self) -> Vec<Tensor> {
        self.params().iter().map(|p| p.value().clone()).collect()
    }

    /// Full inference-state snapshot: parameters *and* buffers (batch-norm
    /// running statistics).
    pub fn snapshot(&self) -> NetworkSnapshot {
        NetworkSnapshot {
            params: self.state(),
            buffers: self
                .layers
                .iter()
                .flat_map(|l| l.buffers())
                .map(|b| b.to_vec())
                .collect(),
        }
    }

    /// Restores a snapshot captured by [`Network::snapshot`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::WeightLengthMismatch`] if the snapshot does not
    /// match this network's layout.
    pub fn restore(&mut self, snapshot: &NetworkSnapshot) -> Result<()> {
        self.load_state(&snapshot.params)?;
        let mut buffers: Vec<&mut Vec<f32>> = self
            .layers
            .iter_mut()
            .flat_map(|l| l.buffers_mut())
            .collect();
        if buffers.len() != snapshot.buffers.len() {
            return Err(NnError::WeightLengthMismatch {
                expected: buffers.len(),
                actual: snapshot.buffers.len(),
            });
        }
        for (dst, src) in buffers.iter_mut().zip(snapshot.buffers.iter()) {
            if dst.len() != src.len() {
                return Err(NnError::WeightLengthMismatch {
                    expected: dst.len(),
                    actual: src.len(),
                });
            }
            dst.copy_from_slice(src);
        }
        Ok(())
    }

    /// Restores a snapshot captured by [`Network::state`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::WeightLengthMismatch`] if the snapshot does not
    /// match the parameter count or shapes.
    pub fn load_state(&mut self, state: &[Tensor]) -> Result<()> {
        let mut params = self.params_mut();
        if params.len() != state.len() {
            return Err(NnError::WeightLengthMismatch {
                expected: params.len(),
                actual: state.len(),
            });
        }
        for (p, s) in params.iter_mut().zip(state.iter()) {
            if p.value().dims() != s.dims() {
                return Err(NnError::WeightLengthMismatch {
                    expected: p.len(),
                    actual: s.len(),
                });
            }
            *p.value_mut() = s.clone();
        }
        Ok(())
    }

    /// Predicts class indices for a batch: forward in eval mode + argmax.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn predict(&mut self, input: &Tensor) -> Result<Vec<usize>> {
        let logits = self.forward(input, Mode::Eval)?;
        let (n, k) = (logits.dims()[0], logits.dims()[1]);
        let lv = logits.as_slice();
        Ok((0..n)
            .map(|i| {
                let row = &lv[i * k..(i + 1) * k];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(j, _)| j)
                    .unwrap_or(0)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, GlobalAvgPool, Linear, ReLU};
    use qce_tensor::conv::ConvGeometry;
    use qce_tensor::init;

    fn small_net(seed: u64) -> Network {
        let mut rng = init::seeded_rng(seed);
        Network::new(vec![
            Box::new(Conv2d::new(1, 2, 3, ConvGeometry::new(1, 1), &mut rng)),
            Box::new(ReLU::new()),
            Box::new(GlobalAvgPool::new()),
            Box::new(Linear::new(2, 3, &mut rng)),
        ])
    }

    #[test]
    fn forward_shape() {
        let mut net = small_net(1);
        let y = net
            .forward(&Tensor::zeros(&[2, 1, 4, 4]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[2, 3]);
    }

    #[test]
    fn weight_slots_layout() {
        let net = small_net(2);
        let slots = net.weight_slots();
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].ordinal, 0);
        assert_eq!(slots[0].offset, 0);
        assert_eq!(slots[0].len, 18); // 2x1x3x3
        assert_eq!(slots[1].offset, 18);
        assert_eq!(slots[1].len, 6); // 3x2
        assert_eq!(net.num_weights(), 24);
    }

    #[test]
    fn flat_weights_round_trip() {
        let mut net = small_net(3);
        let flat = net.flat_weights();
        assert_eq!(flat.len(), 24);
        let doubled: Vec<f32> = flat.iter().map(|&x| x * 2.0).collect();
        net.set_flat_weights(&doubled).unwrap();
        let back = net.flat_weights();
        for (a, b) in back.iter().zip(flat.iter()) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
        assert!(net.set_flat_weights(&[0.0]).is_err());
    }

    #[test]
    fn add_flat_weight_grads_targets_weights_only() {
        let mut net = small_net(4);
        net.zero_grad();
        let inject = vec![1.0f32; net.num_weights()];
        net.add_flat_weight_grads(&inject).unwrap();
        for p in net.params() {
            let expect = if p.kind() == ParamKind::Weight {
                1.0
            } else {
                0.0
            };
            assert!(p.grad().as_slice().iter().all(|&g| g == expect));
        }
    }

    #[test]
    fn zero_grad_clears_everything() {
        let mut net = small_net(5);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let y = net.forward(&x, Mode::Train).unwrap();
        net.backward(&Tensor::ones(y.dims())).unwrap();
        assert!(net.params().iter().any(|p| p.grad().squared_norm() > 0.0));
        net.zero_grad();
        assert!(net.params().iter().all(|p| p.grad().squared_norm() == 0.0));
    }

    #[test]
    fn state_save_restore() {
        let mut net = small_net(6);
        let snapshot = net.state();
        let zeros = vec![0.0f32; net.num_weights()];
        net.set_flat_weights(&zeros).unwrap();
        assert!(net.flat_weights().iter().all(|&w| w == 0.0));
        net.load_state(&snapshot).unwrap();
        assert!(net.flat_weights().iter().any(|&w| w != 0.0));
        assert!(net.load_state(&snapshot[1..]).is_err());
    }

    #[test]
    fn snapshot_restores_batchnorm_running_stats() {
        use crate::layers::BatchNorm2d;
        let mut net = Network::new(vec![
            Box::new(Conv2d::new(
                1,
                2,
                3,
                ConvGeometry::new(1, 1),
                &mut init::seeded_rng(9),
            )),
            Box::new(BatchNorm2d::new(2)),
        ]);
        // Drive the running statistics away from their init.
        let x = init::uniform(&[4, 1, 6, 6], 3.0, 5.0, &mut init::seeded_rng(10));
        net.forward(&x, Mode::Train).unwrap();
        let snap = net.snapshot();
        let before = net.forward(&x, Mode::Eval).unwrap();
        // Mutate both params and buffers.
        net.forward(&x.scale(3.0), Mode::Train).unwrap();
        let zeros = vec![0.0f32; net.num_weights()];
        net.set_flat_weights(&zeros).unwrap();
        assert_ne!(net.forward(&x, Mode::Eval).unwrap(), before);
        // Full restore brings inference back exactly.
        net.restore(&snap).unwrap();
        assert_eq!(net.forward(&x, Mode::Eval).unwrap(), before);
    }

    #[test]
    fn hidden_channel_permutation_preserves_network_function() {
        use crate::models::ResNetLite;
        let mut net = ResNetLite::builder()
            .input(1, 8)
            .classes(3)
            .stage_channels(&[4, 8])
            .blocks_per_stage(1)
            .build(11)
            .unwrap();
        let x = init::uniform(&[3, 1, 8, 8], 0.0, 1.0, &mut init::seeded_rng(12));
        net.forward(&x, Mode::Train).unwrap();
        let before = net.forward(&x, Mode::Eval).unwrap();
        let flat_before = net.flat_weights();
        let moved = net.permute_hidden_channels(1234);
        assert_eq!(moved, 4 + 8); // one block per stage
        assert_ne!(net.flat_weights(), flat_before);
        let after = net.forward(&x, Mode::Eval).unwrap();
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        // Deterministic: the same seed on an identical network produces
        // the same permuted weights.
        let mut twin = ResNetLite::builder()
            .input(1, 8)
            .classes(3)
            .stage_channels(&[4, 8])
            .blocks_per_stage(1)
            .build(11)
            .unwrap();
        twin.forward(&x, Mode::Train).unwrap();
        twin.permute_hidden_channels(1234);
        assert_eq!(net.flat_weights(), twin.flat_weights());
    }

    #[test]
    fn weight_symmetries_align_with_weight_slots() {
        use crate::models::ResNetLite;
        let net = ResNetLite::builder()
            .input(1, 8)
            .classes(3)
            .stage_channels(&[4, 8])
            .blocks_per_stage(1)
            .build(13)
            .unwrap();
        let symmetries = net.weight_symmetries();
        assert_eq!(symmetries.len(), net.weight_slots().len());
        // stem Fixed, block1 (rows, chunks), block2 (rows, chunks, proj
        // Fixed), linear Fixed.
        assert_eq!(symmetries[0], WeightSymmetry::Fixed);
        assert_eq!(symmetries[1], WeightSymmetry::PermutedRows);
        assert_eq!(symmetries[2], WeightSymmetry::PermutedInChunks);
        assert_eq!(symmetries[3], WeightSymmetry::PermutedRows);
        assert_eq!(symmetries[4], WeightSymmetry::PermutedInChunks);
        assert_eq!(symmetries[5], WeightSymmetry::Fixed);
        assert_eq!(*symmetries.last().unwrap(), WeightSymmetry::Fixed);
    }

    #[test]
    fn predict_returns_argmax_per_row() {
        let mut net = small_net(7);
        let preds = net.predict(&Tensor::zeros(&[5, 1, 4, 4])).unwrap();
        assert_eq!(preds.len(), 5);
        assert!(preds.iter().all(|&p| p < 3));
    }

    #[test]
    fn debug_is_nonempty() {
        let net = small_net(8);
        let s = format!("{net:?}");
        assert!(s.contains("Network"));
        assert!(s.contains("conv2d"));
    }
}
