//! Rotation-invariant sign/magnitude statistics channel — the attacker's
//! answer to symmetry defenses.
//!
//! The correlation channel of [`crate::correlation`] addresses pixels by
//! *weight position*, so a defender who re-parameterizes the network with
//! an exact ReLU symmetry (a compensated hidden-channel permutation, see
//! `qce-defense`) scrambles every image without moving accuracy at all.
//! This channel encodes into statistics that survive that symmetry:
//!
//! * **Carrier unit = sign of a group mean.** Each payload bit is the
//!   sign of the mean of [`GROUP_WEIGHTS`] consecutive weights inside one
//!   *encoding row*. A compensated permutation moves whole rows (or whole
//!   per-channel chunks), never individual weights, so groups travel
//!   intact and every bit survives — only the row *order* is lost.
//! * **Row order is re-learned from headers.** The first [`HEADER_BITS`]
//!   groups of every row spell the row's logical index, so the decoder
//!   recovers the permutation by reading the headers back, with a greedy
//!   stable fallback for rows whose header was damaged.
//! * **Global sign flips are voted away.** A defense (or an `Absolute`
//!   release convention) may invert every carrier sign at once; the
//!   decoder tries both polarities per tensor and keeps the one under
//!   which more headers parse to in-range row indices — the per-group
//!   polarity vote that the plain correlation decoder lacks.
//! * **Residual bit damage is paid from an ECC budget.** Each image's
//!   pixel payload is CRC-32 tagged and expanded by an [`Ecc`] code
//!   before encoding, so pruning or noise scrubs surface as
//!   [`ImageStatus::Degraded`] (corrected) or [`ImageStatus::Failed`]
//!   (CRC mismatch) instead of silently wrong pixels. Use
//!   [`Ecc::for_ber`] to size the budget to a measured bit-error rate.
//!
//! The encoding view of each tensor comes from
//! [`Network::weight_symmetries`]: tensors the symmetry permutes by rows
//! are read in natural row order, tensors it permutes by input chunks are
//! read *transposed* (one view-row per input channel), so every
//! compensated permutation the defender can apply becomes a pure row
//! permutation of the view that headers undo.
//!
//! Capacity is far below the correlation channel's (≈ one bit per
//! [`GROUP_WEIGHTS`] weights, minus headers, divided by the ECC
//! expansion), which is the price of rotation invariance — the arms-race
//! tournament in `qce-harness` measures both sides of that trade.

use qce_data::Image;
use qce_nn::{Network, Regularizer, WeightSymmetry};
use qce_telemetry::{counter, gauge};

use crate::ecc::{self, Ecc};
use crate::{AttackError, DecodeDiagnostics, ImageStatus, ResilientDecode, ResilientImage, Result};

/// Weights averaged per payload bit. Three is the smallest group whose
/// mean still votes down a single pruned (zeroed) member.
pub const GROUP_WEIGHTS: usize = 3;

/// Bits of every encoding row spent on the row's logical index.
pub const HEADER_BITS: usize = 8;

/// Default magnitude the regularizer pulls carrier weights toward.
pub const DEFAULT_BASE: f32 = 0.05;

/// Bits per encoded pixel (two pixels per payload byte).
const PIXEL_BITS: usize = 4;

/// One weight tensor's encoding view: `rows × row_len` scalars addressed
/// so that every compensated permutation is a row permutation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TensorPlan {
    /// Weight-slot ordinal (diagnostics only).
    ordinal: usize,
    /// Tensor offset into the flat weight vector.
    offset: usize,
    /// Encoding-view rows.
    rows: usize,
    /// Scalars per encoding-view row.
    row_len: usize,
    /// Whether the view is the transpose of storage order
    /// ([`WeightSymmetry::PermutedInChunks`] tensors).
    transposed: bool,
    /// `dims[1] * kh * kw` of the stored tensor — the stored row stride,
    /// needed to invert the transposed view.
    stored_row_len: usize,
    /// `kh * kw` (1 for linear layers).
    spatial: usize,
}

impl TensorPlan {
    /// Usable bits per view row (header + payload).
    fn bits_per_row(&self) -> usize {
        self.row_len / GROUP_WEIGHTS
    }

    /// Payload bits per view row (after the header).
    fn payload_bits_per_row(&self) -> usize {
        self.bits_per_row().saturating_sub(HEADER_BITS)
    }

    /// Flat-weight index of view element `(row, col)`.
    fn flat_index(&self, row: usize, col: usize) -> usize {
        if self.transposed {
            // View row = input channel `row`; columns enumerate
            // (out-channel, spatial) pairs of that input slice.
            let o = col / self.spatial;
            let k = col % self.spatial;
            self.offset + o * self.stored_row_len + row * self.spatial + k
        } else {
            self.offset + row * self.row_len + col
        }
    }
}

/// The planned statistics channel: which tensors carry bits, how many
/// images fit, and the exact coded bit stream the regularizer trains in.
///
/// # Examples
///
/// ```
/// use qce_attack::ecc::Ecc;
/// use qce_attack::statsign::{StatSignDecoder, StatSignLayout, StatSignRegularizer};
/// use qce_data::SynthCifar;
/// use qce_nn::models::ResNetLite;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = ResNetLite::builder()
///     .input(1, 8).classes(4).stage_channels(&[12, 24]).blocks_per_stage(1)
///     .build(1)?;
/// let data = SynthCifar::new(8).rgb(false).generate(16, 3)?;
/// let layout = StatSignLayout::plan(&net, data.images(), Ecc::Hamming74)?;
/// assert!(layout.encoded_images() >= 1);
/// let _reg = StatSignRegularizer::new(&layout, 30.0)?;
/// let decoder = StatSignDecoder::new(layout);
/// let decode = decoder.decode_resilient(&net.flat_weights())?;
/// // An untrained network carries no payload: every slot is accounted
/// // for, none decodes cleanly.
/// assert_eq!(decode.images.len(), decoder.layout().encoded_images());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StatSignLayout {
    tensors: Vec<TensorPlan>,
    geometry: (usize, usize, usize),
    n_images: usize,
    payload_len: usize,
    block_bits: usize,
    ecc: Ecc,
    expected_flat_len: usize,
    expected_bits: Vec<bool>,
}

impl StatSignLayout {
    /// Plans the channel for `net` and encodes as many of `images` (in
    /// order, from index 0) as the capacity allows.
    ///
    /// # Errors
    ///
    /// [`AttackError::InconsistentImages`] for an empty or mixed-geometry
    /// image set, [`AttackError::InvalidGroups`] for an invalid ECC
    /// configuration, [`AttackError::NoCapacity`] when not even one coded
    /// image fits.
    pub fn plan(net: &Network, images: &[Image], ecc: Ecc) -> Result<StatSignLayout> {
        let geometry = check_images(images)?;
        let image_pixels = geometry.0 * geometry.1 * geometry.2;
        let payload_len = image_pixels.div_ceil(2);
        let block_bits = ecc::coded_len(payload_len, &ecc) * 8;
        // Validate the ECC configuration once, up front.
        ecc::encode(&vec![0u8; payload_len], &ecc)?;

        let tensors = plan_tensors(net);
        let capacity_bits: usize = tensors
            .iter()
            .map(|t| t.rows * t.payload_bits_per_row())
            .sum();
        let n_images = (capacity_bits / block_bits).min(images.len());
        if n_images == 0 {
            return Err(AttackError::NoCapacity {
                weights: capacity_bits / (PIXEL_BITS * 2),
                image_pixels,
            });
        }

        let mut expected_bits = Vec::with_capacity(n_images * block_bits);
        for image in &images[..n_images] {
            let coded = ecc::encode(&pack_pixels(image), &ecc)?;
            push_bits(&mut expected_bits, &coded);
        }

        Ok(StatSignLayout {
            tensors,
            geometry,
            n_images,
            payload_len,
            block_bits,
            ecc,
            expected_flat_len: net.flat_weights().len(),
            expected_bits,
        })
    }

    /// How many images of `image_pixels` pixels `net` can carry under
    /// `ecc` — what the flow's select stage asks before choosing targets.
    ///
    /// # Errors
    ///
    /// [`AttackError::InvalidGroups`] for an invalid ECC configuration or
    /// a zero pixel count.
    pub fn capacity_images(net: &Network, image_pixels: usize, ecc: &Ecc) -> Result<usize> {
        ecc.validate()?;
        if image_pixels == 0 {
            return Err(AttackError::InvalidGroups {
                reason: "statsign capacity needs a non-zero pixel count".to_string(),
            });
        }
        let block_bits = ecc::coded_len(image_pixels.div_ceil(2), ecc) * 8;
        let capacity_bits: usize = plan_tensors(net)
            .iter()
            .map(|t| t.rows * t.payload_bits_per_row())
            .sum();
        Ok(capacity_bits / block_bits)
    }

    /// Number of images the plan encodes.
    pub fn encoded_images(&self) -> usize {
        self.n_images
    }

    /// Image geometry `(channels, height, width)`.
    pub fn geometry(&self) -> (usize, usize, usize) {
        self.geometry
    }

    /// The ECC budget protecting each image.
    pub fn ecc(&self) -> Ecc {
        self.ecc
    }

    /// Coded bits each image occupies in the payload stream.
    pub fn block_bits(&self) -> usize {
        self.block_bits
    }

    /// Training targets for the channel: a dense `(targets, mask)` pair
    /// over the flat weight vector. Masked positions are pulled toward
    /// `±base`; every participating row gets its header even past the
    /// payload, so damaged-payload rows still identify themselves.
    #[must_use]
    pub fn targets(&self, base: f32) -> (Vec<f32>, Vec<bool>) {
        let mut targets = vec![0.0f32; self.expected_flat_len];
        let mut mask = vec![false; self.expected_flat_len];
        let mut cursor = 0usize;
        for t in &self.tensors {
            let bits = t.bits_per_row();
            for row in 0..t.rows {
                for g in 0..bits {
                    let bit = if g < HEADER_BITS {
                        (row >> g) & 1 == 1
                    } else if cursor < self.expected_bits.len() {
                        let b = self.expected_bits[cursor];
                        cursor += 1;
                        b
                    } else {
                        continue;
                    };
                    let value = if bit { base } else { -base };
                    for k in 0..GROUP_WEIGHTS {
                        let idx = t.flat_index(row, g * GROUP_WEIGHTS + k);
                        targets[idx] = value;
                        mask[idx] = true;
                    }
                }
            }
        }
        (targets, mask)
    }

    /// Raw (pre-ECC) bit-error rate of a released weight vector against
    /// the planned stream — the number [`Ecc::for_ber`] wants. Damaged
    /// (non-finite) groups count as errors.
    #[must_use]
    pub fn payload_ber(&self, flat_weights: &[f32]) -> f64 {
        if self.expected_bits.is_empty() {
            return 0.0;
        }
        let stream = read_stream(&self.tensors, flat_weights, self.expected_bits.len());
        let errors = stream
            .iter()
            .zip(&self.expected_bits)
            .filter(|(got, want)| got.map(|g| g != **want).unwrap_or(true))
            .count();
        errors as f64 / self.expected_bits.len() as f64
    }
}

/// White-box extraction for the statistics channel. Produces the same
/// [`ResilientDecode`] shape as [`crate::Decoder::decode_resilient`], so
/// the flow's resilient-report machinery works on either channel.
#[derive(Debug, Clone)]
pub struct StatSignDecoder {
    layout: StatSignLayout,
}

impl StatSignDecoder {
    /// Creates a decoder for a planned layout.
    pub fn new(layout: StatSignLayout) -> Self {
        StatSignDecoder { layout }
    }

    /// The layout this decoder extracts against.
    pub fn layout(&self) -> &StatSignLayout {
        &self.layout
    }

    /// Decodes every planned image: per-tensor polarity vote, header row
    /// reassembly, then per-image ECC + CRC verdicts.
    ///
    /// # Errors
    ///
    /// [`AttackError::LayoutMismatch`] if `flat_weights` does not match
    /// the planned network.
    pub fn decode_resilient(&self, flat_weights: &[f32]) -> Result<ResilientDecode> {
        let l = &self.layout;
        if flat_weights.len() != l.expected_flat_len {
            return Err(AttackError::LayoutMismatch {
                expected: l.expected_flat_len,
                actual: flat_weights.len(),
            });
        }

        let mut diagnostics = Vec::with_capacity(l.tensors.len());
        let mut stream: Vec<Option<bool>> = Vec::new();
        for (ti, t) in l.tensors.iter().enumerate() {
            let (bits, diag) = decode_tensor(ti, t, flat_weights);
            diagnostics.push(diag);
            stream.extend_from_slice(&bits);
        }

        let (c, h, w) = l.geometry;
        let mut images = Vec::with_capacity(l.n_images);
        for i in 0..l.n_images {
            let block = &stream[i * l.block_bits..(i + 1) * l.block_bits];
            images.push(decode_block(l, block, i, c, h, w));
        }

        gauge("decode.statsign_ber").set(l.payload_ber(flat_weights));
        let decode = ResilientDecode {
            images,
            diagnostics,
        };
        counter("decode.ok").incr(decode.ok_count() as u64);
        counter("decode.degraded").incr(decode.degraded_count() as u64);
        counter("decode.failed").incr(decode.failed_count() as u64);
        gauge("decode.confidence").set(f64::from(decode.mean_confidence()));
        Ok(decode)
    }
}

/// Decodes one image block: bits → coded bytes → ECC/CRC → pixels.
fn decode_block(
    l: &StatSignLayout,
    block: &[Option<bool>],
    index: usize,
    c: usize,
    h: usize,
    w: usize,
) -> ResilientImage {
    let damaged = block.iter().filter(|b| b.is_none()).count();
    let mut coded = vec![0u8; l.block_bits.div_ceil(8)];
    for (i, bit) in block.iter().enumerate() {
        if bit.unwrap_or(false) {
            coded[i / 8] |= 1 << (i % 8);
        }
    }
    let failed = |reason: String| ResilientImage {
        target_index: index,
        group: 0,
        status: ImageStatus::Failed { reason },
        image: None,
    };
    let (payload, report) = match ecc::decode(&coded, l.payload_len, &l.ecc) {
        Ok(v) => v,
        Err(e) => return failed(e.to_string()),
    };
    if !report.crc_ok {
        return failed(format!(
            "payload CRC mismatch ({} bits corrected, {damaged} carriers damaged)",
            report.corrected_bits
        ));
    }
    let pixels: Vec<f32> = (0..c * h * w)
        .map(|p| {
            let nibble = (payload[p / 2] >> ((p % 2) * PIXEL_BITS)) & 0xF;
            f32::from(nibble) * 17.0
        })
        .collect();
    let image = match Image::from_f32(&pixels, c, h, w) {
        Ok(img) => img,
        Err(e) => return failed(format!("pixel reassembly: {e}")),
    };
    let repaired = report.corrected_bits + damaged;
    ResilientImage {
        target_index: index,
        group: 0,
        status: if repaired == 0 {
            ImageStatus::Ok
        } else {
            ImageStatus::Degraded {
                repaired_pixels: repaired,
            }
        },
        image: Some(image),
    }
}

/// Reads one tensor's payload bits in logical-row order, resolving
/// polarity and row permutation from the headers.
fn decode_tensor(
    index: usize,
    t: &TensorPlan,
    flat: &[f32],
) -> (Vec<Option<bool>>, DecodeDiagnostics) {
    let bits = t.bits_per_row();
    // Raw group means: Some(sign bit) or None when every member was
    // non-finite.
    let mut raw: Vec<Vec<Option<bool>>> = Vec::with_capacity(t.rows);
    let mut finite_groups = 0usize;
    for row in 0..t.rows {
        let mut row_bits = Vec::with_capacity(bits);
        for g in 0..bits {
            let mut sum = 0.0f64;
            let mut n = 0usize;
            for k in 0..GROUP_WEIGHTS {
                let v = flat[t.flat_index(row, g * GROUP_WEIGHTS + k)];
                if v.is_finite() {
                    sum += f64::from(v);
                    n += 1;
                }
            }
            row_bits.push(if n == 0 {
                None
            } else {
                finite_groups += 1;
                Some(sum > 0.0)
            });
        }
        raw.push(row_bits);
    }

    // Per-tensor polarity vote: the polarity under which more headers
    // parse to in-range logical row indices wins (ties keep `false`).
    let headers = |flip: bool| -> Vec<Option<usize>> {
        raw.iter()
            .map(|row_bits| {
                let mut value = 0usize;
                for (b, bit) in row_bits.iter().take(HEADER_BITS).enumerate() {
                    value |= usize::from((*bit)? ^ flip) << b;
                }
                (value < t.rows).then_some(value)
            })
            .collect()
    };
    let count_valid = |hs: &[Option<usize>]| hs.iter().flatten().count();
    let (straight, flipped_hs) = (headers(false), headers(true));
    let flip = count_valid(&flipped_hs) > count_valid(&straight);
    let hs = if flip { flipped_hs } else { straight };

    // Header-claimed logical slots first, then a greedy stable fill for
    // rows whose header was damaged or duplicated.
    let mut phys_of_logical: Vec<Option<usize>> = vec![None; t.rows];
    let mut claimed_by_header = 0usize;
    let mut unclaimed = Vec::new();
    for (p, h) in hs.iter().enumerate() {
        match h {
            Some(h) if phys_of_logical[*h].is_none() => {
                phys_of_logical[*h] = Some(p);
                claimed_by_header += 1;
            }
            _ => unclaimed.push(p),
        }
    }
    let mut spare = unclaimed.into_iter();
    for slot in &mut phys_of_logical {
        if slot.is_none() {
            *slot = spare.next();
        }
    }

    let mut out = Vec::with_capacity(t.rows * t.payload_bits_per_row());
    for slot in &phys_of_logical {
        let p = slot.expect("every logical row has a physical partner");
        out.extend(
            raw[p][HEADER_BITS..bits]
                .iter()
                .map(|bit| bit.map(|b| b ^ flip)),
        );
    }
    let total_groups = t.rows * bits;
    let diag = DecodeDiagnostics {
        group: index,
        flipped: flip,
        confidence: if t.rows == 0 {
            0.0
        } else {
            claimed_by_header as f32 / t.rows as f32
        },
        finite_fraction: if total_groups == 0 {
            0.0
        } else {
            finite_groups as f32 / total_groups as f32
        },
        truncated: false,
    };
    (out, diag)
}

/// Reads the first `limit` payload-stream bits of `flat` without header
/// reassembly — the planner-side view [`StatSignLayout::payload_ber`]
/// compares against (encoding order, no permutation applied).
fn read_stream(tensors: &[TensorPlan], flat: &[f32], limit: usize) -> Vec<Option<bool>> {
    let mut out = Vec::with_capacity(limit);
    'outer: for t in tensors {
        let bits = t.bits_per_row();
        for row in 0..t.rows {
            for g in HEADER_BITS..bits {
                if out.len() == limit {
                    break 'outer;
                }
                let mut sum = 0.0f64;
                let mut n = 0usize;
                for k in 0..GROUP_WEIGHTS {
                    let v = flat[t.flat_index(row, g * GROUP_WEIGHTS + k)];
                    if v.is_finite() {
                        sum += f64::from(v);
                        n += 1;
                    }
                }
                out.push((n > 0).then_some(sum > 0.0));
            }
        }
    }
    out
}

/// The training-time penalty of the statistics channel: an L2 pull
/// `(λ/2n)·Σ (θᵢ − tᵢ)²` over the masked carrier weights, where the
/// targets `t` are the `±base` group patterns of
/// [`StatSignLayout::targets`].
#[derive(Debug, Clone)]
pub struct StatSignRegularizer {
    targets: Vec<f32>,
    mask: Vec<bool>,
    lambda: f32,
    active: usize,
}

impl StatSignRegularizer {
    /// Creates the regularizer with the [`DEFAULT_BASE`] magnitude.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidGroups`] for a non-positive lambda.
    pub fn new(layout: &StatSignLayout, lambda: f32) -> Result<Self> {
        Self::with_base(layout, lambda, DEFAULT_BASE)
    }

    /// Creates the regularizer with an explicit target magnitude.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidGroups`] for a non-positive or
    /// non-finite lambda or base.
    pub fn with_base(layout: &StatSignLayout, lambda: f32, base: f32) -> Result<Self> {
        if !(lambda > 0.0 && lambda.is_finite() && base > 0.0 && base.is_finite()) {
            return Err(AttackError::InvalidGroups {
                reason: "statsign regularizer needs positive finite lambda and base".to_string(),
            });
        }
        let (targets, mask) = layout.targets(base);
        let active = mask.iter().filter(|m| **m).count();
        Ok(StatSignRegularizer {
            targets,
            mask,
            lambda,
            active,
        })
    }
}

impl Regularizer for StatSignRegularizer {
    fn apply(&mut self, net: &mut Network) -> qce_nn::Result<f32> {
        let flat = net.flat_weights();
        let n = flat.len().min(self.targets.len());
        let scale = self.lambda / self.active.max(1) as f32;
        let mut grad = vec![0.0f32; flat.len()];
        let mut penalty = 0.0f32;
        for i in 0..n {
            if self.mask[i] {
                let diff = flat[i] - self.targets[i];
                penalty += 0.5 * scale * diff * diff;
                grad[i] = scale * diff;
            }
        }
        net.add_flat_weight_grads(&grad)?;
        Ok(penalty)
    }
}

/// Builds the per-tensor encoding views. Tensors whose rows cannot hold a
/// header plus at least one payload bit, or whose row count exceeds the
/// header's address space, carry nothing and are skipped symmetrically by
/// planner and decoder.
fn plan_tensors(net: &Network) -> Vec<TensorPlan> {
    let slots = net.weight_slots();
    let symmetries = net.weight_symmetries();
    let mut out = Vec::new();
    for (slot, symmetry) in slots.iter().zip(&symmetries) {
        if slot.dims.is_empty() || slot.dims[0] == 0 || slot.len == 0 {
            continue;
        }
        let spatial: usize = slot.dims.iter().skip(2).product();
        let transposed = *symmetry == WeightSymmetry::PermutedInChunks && slot.dims.len() >= 2;
        let (rows, row_len, stored_row_len) = if transposed {
            let stored = slot.len / slot.dims[0];
            (slot.dims[1], slot.dims[0] * spatial, stored)
        } else {
            let row_len = slot.len / slot.dims[0];
            (slot.dims[0], row_len, row_len)
        };
        let plan = TensorPlan {
            ordinal: slot.ordinal,
            offset: slot.offset,
            rows,
            row_len,
            transposed,
            stored_row_len,
            spatial: spatial.max(1),
        };
        if plan.payload_bits_per_row() == 0 || rows > (1 << HEADER_BITS) || rows == 0 {
            continue;
        }
        out.push(plan);
    }
    out
}

/// Packs an image's pixels into the 4-bit-per-pixel payload bytes.
fn pack_pixels(image: &Image) -> Vec<u8> {
    let pixels = image.pixels();
    let mut payload = vec![0u8; pixels.len().div_ceil(2)];
    for (p, &px) in pixels.iter().enumerate() {
        // Round to the nearest of the 16 levels (255/15 = 17 apart).
        let nibble = ((u32::from(px) * 15 + 127) / 255) as u8;
        payload[p / 2] |= nibble << ((p % 2) * PIXEL_BITS);
    }
    payload
}

/// Appends a byte slice's bits (LSB-first, matching `qce_attack::ecc`).
fn push_bits(out: &mut Vec<bool>, bytes: &[u8]) {
    for &b in bytes {
        for i in 0..8 {
            out.push((b >> i) & 1 == 1);
        }
    }
}

/// Validates image-set geometry, returning `(channels, height, width)`.
fn check_images(images: &[Image]) -> Result<(usize, usize, usize)> {
    let Some(first) = images.first() else {
        return Err(AttackError::InconsistentImages {
            reason: "statsign channel needs at least one target image".to_string(),
        });
    };
    let geometry = (first.channels(), first.height(), first.width());
    for img in images {
        if (img.channels(), img.height(), img.width()) != geometry {
            return Err(AttackError::InconsistentImages {
                reason: "target images must share one geometry".to_string(),
            });
        }
    }
    Ok(geometry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qce_data::SynthCifar;
    use qce_nn::models::ResNetLite;

    fn net() -> Network {
        ResNetLite::builder()
            .input(1, 8)
            .classes(4)
            .stage_channels(&[12, 24])
            .blocks_per_stage(1)
            .build(1)
            .unwrap()
    }

    fn images(n: usize) -> Vec<Image> {
        SynthCifar::new(8)
            .rgb(false)
            .classes(4)
            .generate(n, 9)
            .unwrap()
            .images()
            .to_vec()
    }

    /// Writes the layout's exact targets into the network — a perfectly
    /// trained channel, without the training time.
    fn plant(net: &mut Network, layout: &StatSignLayout) {
        let (targets, mask) = layout.targets(DEFAULT_BASE);
        let mut flat = net.flat_weights();
        for i in 0..flat.len() {
            if mask[i] {
                flat[i] = targets[i];
            }
        }
        net.set_flat_weights(&flat).unwrap();
    }

    #[test]
    fn planted_payload_round_trips() {
        let mut net = net();
        let imgs = images(16);
        let layout = StatSignLayout::plan(&net, &imgs, Ecc::Hamming74).unwrap();
        assert!(layout.encoded_images() >= 2, "{}", layout.encoded_images());
        plant(&mut net, &layout);
        let n = layout.encoded_images();
        let decoder = StatSignDecoder::new(layout);
        let decode = decoder.decode_resilient(&net.flat_weights()).unwrap();
        assert_eq!(decode.ok_count(), n);
        for (slot, original) in decode.images.iter().zip(&imgs) {
            let img = slot.image.as_ref().unwrap();
            for (got, want) in img.pixels().iter().zip(original.pixels()) {
                // 4-bit pixels: exact up to the 17-level rounding step.
                assert!((i32::from(*got) - i32::from(*want)).abs() <= 9);
            }
        }
    }

    #[test]
    fn decode_survives_hidden_channel_permutation() {
        let mut net = net();
        let layout = StatSignLayout::plan(&net, &images(16), Ecc::Hamming74).unwrap();
        plant(&mut net, &layout);
        let n = layout.encoded_images();
        let moved = net.permute_hidden_channels(0xD15EA5E);
        assert!(moved > 0);
        let decode = StatSignDecoder::new(layout)
            .decode_resilient(&net.flat_weights())
            .unwrap();
        assert_eq!(
            decode.ok_count() + decode.degraded_count(),
            n,
            "permutation must not lose images: {:?}",
            decode.images.iter().map(|i| &i.status).collect::<Vec<_>>()
        );
    }

    #[test]
    fn decode_survives_a_global_sign_flip() {
        let mut net = net();
        let layout = StatSignLayout::plan(&net, &images(16), Ecc::Hamming74).unwrap();
        plant(&mut net, &layout);
        let n = layout.encoded_images();
        let flat: Vec<f32> = net.flat_weights().iter().map(|w| -w).collect();
        let decode = StatSignDecoder::new(layout)
            .decode_resilient(&flat)
            .unwrap();
        assert_eq!(decode.ok_count(), n);
        assert!(decode.diagnostics.iter().all(|d| d.flipped));
    }

    #[test]
    fn sparse_damage_degrades_instead_of_failing() {
        let mut net = net();
        let layout = StatSignLayout::plan(&net, &images(16), Ecc::Hamming74).unwrap();
        plant(&mut net, &layout);
        let mut flat = net.flat_weights();
        // Flip a few whole payload groups in distinct rows of the first
        // tensor (one bit error each); the stream positions land in
        // distinct 7-bit codewords, so Hamming(7,4) repairs them all.
        let t = &layout.tensors[0];
        for row in [0usize, 3, 6, 9] {
            for k in 0..GROUP_WEIGHTS {
                let idx = t.flat_index(row, HEADER_BITS * GROUP_WEIGHTS + k);
                flat[idx] = -flat[idx];
            }
        }
        let decode = StatSignDecoder::new(layout.clone())
            .decode_resilient(&flat)
            .unwrap();
        assert_eq!(decode.failed_count(), 0);
        assert!(decode.degraded_count() >= 1);
    }

    #[test]
    fn wholesale_damage_fails_the_crc_loudly() {
        let net = net();
        let layout = StatSignLayout::plan(&net, &images(16), Ecc::Hamming74).unwrap();
        // No planting: the untrained network is noise relative to the
        // plan, so CRCs must reject every image rather than emit garbage.
        let decode = StatSignDecoder::new(layout.clone())
            .decode_resilient(&net.flat_weights())
            .unwrap();
        assert_eq!(decode.failed_count(), layout.encoded_images());
        assert!(decode.images.iter().all(|i| i.image.is_none()));
        assert!(layout.payload_ber(&net.flat_weights()) > 0.2);
    }

    #[test]
    fn capacity_matches_plan_and_rejects_invalid_ecc() {
        let n = net();
        let capacity = StatSignLayout::capacity_images(&n, 64, &Ecc::Hamming74).unwrap();
        let layout = StatSignLayout::plan(&n, &images(capacity + 8), Ecc::Hamming74).unwrap();
        assert_eq!(layout.encoded_images(), capacity);
        assert!(StatSignLayout::capacity_images(&n, 64, &Ecc::Repetition { copies: 2 }).is_err());
        assert!(StatSignLayout::capacity_images(&n, 0, &Ecc::Hamming74).is_err());
    }

    #[test]
    fn transposed_views_cover_consuming_tensors() {
        let n = net();
        let plans = plan_tensors(&n);
        assert!(plans.iter().any(|t| t.transposed), "{plans:?}");
        // Every view must address distinct flat indices within bounds.
        let len = n.flat_weights().len();
        for t in &plans {
            let mut seen = std::collections::HashSet::new();
            for row in 0..t.rows {
                for col in 0..t.row_len {
                    let idx = t.flat_index(row, col);
                    assert!(idx < len);
                    assert!(seen.insert(idx), "duplicate flat index {idx} in {t:?}");
                }
            }
        }
    }

    #[test]
    fn regularizer_pulls_carriers_toward_targets() {
        let mut n = net();
        let layout = StatSignLayout::plan(&n, &images(16), Ecc::Hamming74).unwrap();
        let mut reg = StatSignRegularizer::new(&layout, 30.0).unwrap();
        assert!(reg.active > 0);
        let before = reg.apply(&mut n).unwrap();
        assert!(before > 0.0);
        // A perfectly planted channel has zero penalty.
        plant(&mut n, &layout);
        let after = reg.apply(&mut n).unwrap();
        assert!(after < before * 1e-3, "{after} vs {before}");
        assert!(StatSignRegularizer::new(&layout, 0.0).is_err());
    }
}
