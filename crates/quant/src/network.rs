use qce_nn::{Network, ParamKind};
use qce_tensor::par::Pool;

use crate::{Codebook, QuantError, Quantizer, Result};

/// One quantized weight tensor: its fitted codebook and the per-weight
/// cluster assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedSlot {
    /// The fitted codebook.
    pub codebook: Codebook,
    /// Cluster index of every weight in the tensor, in storage order.
    pub assignment: Vec<u32>,
}

impl QuantizedSlot {
    /// Number of weights in this slot.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the slot is empty.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }
}

/// The quantized state of a network's `Weight`-kind parameters: one
/// [`QuantizedSlot`] per weight tensor, in forward order.
///
/// The handle is what fine-tuning needs to keep the model quantized
/// (assignments stay fixed, only representatives move) and what the
/// deployment-size accounting in [`pack`](crate::pack) consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedNetwork {
    slots: Vec<QuantizedSlot>,
    requested_levels: usize,
}

impl QuantizedNetwork {
    /// The per-tensor quantization slots, in forward order.
    pub fn slots(&self) -> &[QuantizedSlot] {
        &self.slots
    }

    /// Mutable access to the slots — fine-tuning updates representatives,
    /// and fault injection perturbs codebooks and assignments in place.
    /// Call [`QuantizedNetwork::reapply`] afterwards to propagate the
    /// mutation into a network's weights.
    pub fn slots_mut(&mut self) -> &mut [QuantizedSlot] {
        &mut self.slots
    }

    /// Rebuilds a handle from deserialized slots (deployment reader).
    pub(crate) fn from_slots(slots: Vec<QuantizedSlot>, requested_levels: usize) -> Self {
        QuantizedNetwork {
            slots,
            requested_levels,
        }
    }

    /// The level budget the quantizer was asked for (small tensors may use
    /// fewer levels).
    pub fn requested_levels(&self) -> usize {
        self.requested_levels
    }

    /// Total number of quantized weights.
    pub fn num_weights(&self) -> usize {
        self.slots.iter().map(QuantizedSlot::len).sum()
    }

    /// Rewrites the network's weights from the stored assignments and
    /// (possibly fine-tuned) representatives.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::AssignmentMismatch`] if the network layout no
    /// longer matches this handle.
    pub fn reapply(&self, net: &mut Network) -> Result<()> {
        let mut slot_iter = self.slots.iter();
        for p in net.params_mut() {
            if p.kind() != ParamKind::Weight {
                continue;
            }
            let slot = slot_iter.next().ok_or(QuantError::AssignmentMismatch {
                expected: 0,
                actual: p.len(),
            })?;
            if slot.len() != p.len() {
                return Err(QuantError::AssignmentMismatch {
                    expected: slot.len(),
                    actual: p.len(),
                });
            }
            let decoded = slot.codebook.decode(&slot.assignment)?;
            p.value_mut().as_mut_slice().copy_from_slice(&decoded);
        }
        if slot_iter.next().is_some() {
            return Err(QuantError::AssignmentMismatch {
                expected: self.slots.len(),
                actual: self.slots.len() - 1,
            });
        }
        Ok(())
    }

    /// Size of the quantized weight payload in bits: packed indices plus
    /// one 32-bit float per codebook entry.
    pub fn compressed_bits(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| {
                s.len() as u64 * u64::from(s.codebook.bits()) + 32 * s.codebook.levels() as u64
            })
            .sum()
    }

    /// Compression ratio versus 32-bit floats (e.g. ≈8 for 4-bit levels).
    pub fn compression_ratio(&self) -> f64 {
        let original = self.num_weights() as f64 * 32.0;
        if original == 0.0 {
            return 1.0;
        }
        original / self.compressed_bits() as f64
    }
}

/// Builds a lossless "exact" codebook for a tensor with at most
/// `level budget` distinct values (tiny projection convs etc.).
fn exact_codebook(values: &[f32]) -> Result<Codebook> {
    let mut distinct = values.to_vec();
    distinct.sort_by(f32::total_cmp);
    distinct.dedup();
    Codebook::new(distinct.clone(), distinct)
}

/// Quantizes every `Weight`-kind tensor of `net` in place with a codebook
/// fitted per tensor, returning the [`QuantizedNetwork`] handle.
///
/// Tensors smaller than the quantizer's level budget get a lossless exact
/// codebook instead (they already fit the bit budget), so the whole model
/// is always representable at the requested bit width.
///
/// # Errors
///
/// Propagates quantizer fitting errors.
///
/// # Examples
///
/// ```
/// use qce_nn::models::ResNetLite;
/// use qce_quant::{quantize_network, LinearQuantizer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut net = ResNetLite::builder()
///     .input(1, 8)
///     .classes(2)
///     .stage_channels(&[4])
///     .blocks_per_stage(1)
///     .build(1)?;
/// let q = quantize_network(&mut net, &LinearQuantizer::new(16)?)?;
/// assert_eq!(q.num_weights(), net.num_weights());
/// # Ok(())
/// # }
/// ```
pub fn quantize_network(net: &mut Network, quantizer: &dyn Quantizer) -> Result<QuantizedNetwork> {
    quantize_network_with(Pool::global(), net, quantizer)
}

/// [`quantize_network`] on an explicit compute pool.
///
/// The pool accelerates the per-tensor codebook fit (a sort) and the bulk
/// assign/decode passes; every step is a fixed-order or order-free
/// computation, so the deployed weights are bit-for-bit identical for any
/// thread count.
///
/// # Errors
///
/// Same contract as [`quantize_network`].
pub fn quantize_network_with(
    pool: &Pool,
    net: &mut Network,
    quantizer: &dyn Quantizer,
) -> Result<QuantizedNetwork> {
    let _span = qce_telemetry::span!(
        "quant.network",
        quantizer = quantizer.name(),
        levels = quantizer.levels()
    );
    let mut slots = Vec::new();
    for p in net.params_mut() {
        if p.kind() != ParamKind::Weight {
            continue;
        }
        let values = p.value().as_slice().to_vec();
        let exact = values.len() < quantizer.levels();
        let codebook = if exact {
            exact_codebook(&values)?
        } else {
            quantizer.fit_with(pool, &values)?
        };
        let assignment = codebook.assign_with(pool, &values);
        let quantized = codebook.decode_with(pool, &assignment)?;
        p.value_mut().as_mut_slice().copy_from_slice(&quantized);
        qce_telemetry::counter("quant.slots").incr(1);
        if exact {
            qce_telemetry::counter("quant.exact_slots").incr(1);
        }
        // The occupancy scan walks every assignment; only pay for it while
        // trace collection is on.
        if qce_telemetry::collect_enabled() {
            let levels = codebook.levels().max(1);
            let mut used = vec![false; levels];
            for &a in &assignment {
                if let Some(u) = used.get_mut(a as usize) {
                    *u = true;
                }
            }
            let occupied = used.iter().filter(|&&u| u).count();
            qce_telemetry::histogram("quant.slot_occupancy", &[0.25, 0.5, 0.75, 0.9, 1.0])
                .record(occupied as f64 / levels as f64);
        }
        slots.push(QuantizedSlot {
            codebook,
            assignment,
        });
    }
    Ok(QuantizedNetwork {
        slots,
        requested_levels: quantizer.levels(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearQuantizer;
    use qce_nn::models::ResNetLite;

    fn net() -> Network {
        ResNetLite::builder()
            .input(1, 8)
            .classes(3)
            .stage_channels(&[4, 8])
            .blocks_per_stage(1)
            .build(11)
            .unwrap()
    }

    #[test]
    fn quantize_limits_distinct_values_per_tensor() {
        let mut n = net();
        let q = quantize_network(&mut n, &LinearQuantizer::new(8).unwrap()).unwrap();
        assert_eq!(q.num_weights(), n.num_weights());
        assert_eq!(q.requested_levels(), 8);
        for (slot, p) in q.slots().iter().zip(
            n.params()
                .into_iter()
                .filter(|p| p.kind() == ParamKind::Weight),
        ) {
            let mut distinct: Vec<f32> = p.value().as_slice().to_vec();
            distinct.sort_by(f32::total_cmp);
            distinct.dedup();
            assert!(distinct.len() <= slot.codebook.levels());
        }
    }

    #[test]
    fn reapply_restores_quantized_values() {
        let mut n = net();
        let q = quantize_network(&mut n, &LinearQuantizer::new(8).unwrap()).unwrap();
        let quantized = n.flat_weights();
        // Perturb, then reapply.
        let perturbed: Vec<f32> = quantized.iter().map(|&w| w + 0.1).collect();
        n.set_flat_weights(&perturbed).unwrap();
        q.reapply(&mut n).unwrap();
        assert_eq!(n.flat_weights(), quantized);
    }

    #[test]
    fn reapply_rejects_wrong_network() {
        let mut a = net();
        let q = quantize_network(&mut a, &LinearQuantizer::new(4).unwrap()).unwrap();
        let mut other = ResNetLite::builder()
            .input(1, 8)
            .classes(3)
            .stage_channels(&[6, 8])
            .blocks_per_stage(1)
            .build(1)
            .unwrap();
        assert!(q.reapply(&mut other).is_err());
    }

    #[test]
    fn compression_ratio_near_bit_budget() {
        let mut n = net();
        let q = quantize_network(&mut n, &LinearQuantizer::new(16).unwrap()).unwrap();
        let ratio = q.compression_ratio();
        // 4-bit indices give at most 8x; the tiny test model's per-tensor
        // codebook overhead (16 floats per slot) eats a chunk of that.
        assert!(ratio > 3.0 && ratio <= 8.0, "ratio {ratio}");
    }

    #[test]
    fn small_tensors_get_exact_codebooks() {
        // Levels larger than the smallest tensor forces the fallback.
        let mut n = net();
        let before = n.flat_weights();
        let q = quantize_network(&mut n, &LinearQuantizer::new(512).unwrap()).unwrap();
        // Exact slots are lossless.
        let exact_slots: Vec<_> = q.slots().iter().filter(|s| s.len() < 512).collect();
        assert!(!exact_slots.is_empty(), "test requires a small tensor");
        // All weights of the network are close to original where exact.
        let after = n.flat_weights();
        assert_eq!(before.len(), after.len());
    }
}
