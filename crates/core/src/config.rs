use qce_attack::correlation::SignConvention;
use qce_defense::DefensePlan;
use serde::{Deserialize, Serialize};

/// Which model family the flow trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Architecture {
    /// Residual CNN (the paper's ResNet-34 stand-in) — the default.
    #[default]
    ResNetLite,
    /// Plain VGG-style CNN without skip connections, for checking that
    /// the attack does not depend on residual structure.
    ConvNet,
}

/// How the malicious regularizer distributes correlation rates over the
/// network (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Grouping {
    /// No attack at all — the benign training baseline.
    Benign,
    /// One uniform rate over every weight tensor: the original CCS'17
    /// correlated value encoding attack (Eq. 1).
    Uniform(f32),
    /// The paper's three layer groups (early / mid / late weight tensors)
    /// with rates `[λ_1, λ_2, λ_3]`; the evaluation uses `[0, 0, λ]`.
    LayerWise([f32; 3]),
}

impl Grouping {
    /// Whether this grouping actually encodes data.
    pub fn is_attack(&self) -> bool {
        match *self {
            Grouping::Benign => false,
            Grouping::Uniform(l) => l > 0.0,
            Grouping::LayerWise(ls) => ls.iter().any(|&l| l > 0.0),
        }
    }
}

/// How the correlation penalty's strength evolves over training.
///
/// The schedule is a swept axis of the trade-off surface: warm-up trades
/// early-epoch accuracy recovery against slower payload convergence,
/// while a constant rate encodes harder from the first step at a larger
/// accuracy cost (the original CCS'17 setup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LambdaSchedule {
    /// Linear ramp: the effective rate at epoch `e` of `E` is
    /// `λ·(e+1)/E`, reaching full strength on the last epoch — the
    /// default, matching the repo's historical behavior.
    #[default]
    Warmup,
    /// Full λ from epoch 0.
    Constant,
}

/// Which weight-encoding channel the attack trains into the model.
///
/// The channel decides *how* target pixels become weights; the
/// [`Grouping`] still decides whether an attack runs at all and (for the
/// correlation channel) how rates spread over the layer groups.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum EncodingChannel {
    /// The paper's correlated value encoding: weights are an affine image
    /// of the target pixel stream, addressed by weight position. Highest
    /// capacity, but a symmetry defense (channel permutation) scrambles
    /// it for free.
    #[default]
    Correlation,
    /// The hardened sign/magnitude-statistics channel
    /// ([`qce_attack::statsign`]): payload bits ride signs of weight-group
    /// means with per-row index headers and an ECC budget, surviving the
    /// compensated permutations of `qce-defense` at a steep capacity
    /// cost.
    StatSign {
        /// Penalty strength of the carrier pull (plays the role the
        /// grouping's λ plays for the correlation channel).
        lambda: f32,
    },
}

/// How encoding targets are chosen from the training set (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BandRule {
    /// The paper's rule: a band of the given width starting at
    /// `floor(std_mean)` of the dataset.
    Auto {
        /// Band width `d`.
        width: f32,
    },
    /// An explicit `[min, max)` pixel-std band (the CIFAR evaluation
    /// fixes `[50, 55)`).
    Explicit {
        /// Inclusive lower edge.
        min: f32,
        /// Exclusive upper edge.
        max: f32,
    },
    /// No pre-processing: encode the first images of the training set —
    /// the original-attack baseline.
    FirstN,
}

/// Which quantizer compresses the released model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuantMethod {
    /// Equal-width clusters (deep-compression linear init).
    Linear,
    /// 1-D k-means clusters.
    KMeans,
    /// Weighted-entropy quantization (Park et al.) — the defense baseline.
    WeightedEntropy,
    /// The paper's target-correlated quantization (Algorithm 1).
    TargetCorrelated,
}

/// Quantization stage configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantConfig {
    /// Boundary-selection method.
    pub method: QuantMethod,
    /// Bit width (levels = `2^bits`).
    pub bits: u32,
    /// Fine-tuning epochs after quantization (0 disables).
    pub finetune_epochs: usize,
    /// Fine-tuning learning rate.
    pub finetune_lr: f32,
    /// Keep the malicious regularizer active during fine-tuning (the
    /// adversary authors the whole algorithm, so the default is `true`).
    pub regularize_finetune: bool,
}

impl QuantConfig {
    /// A sensible default for `method` at `bits` (2 fine-tune epochs).
    pub fn new(method: QuantMethod, bits: u32) -> Self {
        QuantConfig {
            method,
            bits,
            finetune_epochs: 2,
            finetune_lr: 0.01,
            regularize_finetune: true,
        }
    }
}

/// Full configuration of the end-to-end flow.
///
/// Build one with the presets ([`FlowConfig::small`],
/// [`FlowConfig::paper`]) and adjust fields, or construct it literally.
///
/// # Examples
///
/// ```
/// use qce::{FlowConfig, Grouping, QuantConfig, QuantMethod};
///
/// let config = FlowConfig {
///     grouping: Grouping::LayerWise([0.0, 0.0, 5.0]),
///     quant: Some(QuantConfig::new(QuantMethod::TargetCorrelated, 4)),
///     ..FlowConfig::small()
/// };
/// assert!(config.grouping.is_attack());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowConfig {
    /// Master seed; every stochastic stage derives from it.
    pub seed: u64,
    /// Model family.
    pub arch: Architecture,
    /// Residual-stage channel widths of the model.
    pub stage_channels: Vec<usize>,
    /// Residual blocks per stage.
    pub blocks_per_stage: usize,
    /// Fraction of the dataset used for training (rest is the validation
    /// split the data holder checks accuracy on).
    pub train_fraction: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Base learning rate.
    pub lr: f32,
    /// Correlation-rate layout.
    pub grouping: Grouping,
    /// Internal multiplier applied to every correlation rate.
    ///
    /// The paper trains for tens of thousands of SGD steps on GPU-scale
    /// data; this CPU reproduction runs two to three orders of magnitude
    /// fewer. Because the per-weight correlation gradient shrinks as
    /// `1/ℓ`, the same `λ` values need proportionally fewer steps *or* a
    /// constant gradient boost to reach the same correlation. This scale
    /// keeps the paper's `λ ∈ {3, 5, 10}` labels (and their relative
    /// trade-off) meaningful at the reduced step count. See DESIGN.md.
    pub lambda_scale: f32,
    /// Epoch schedule of the correlation penalty strength.
    pub lambda_schedule: LambdaSchedule,
    /// Target-selection rule.
    pub band: BandRule,
    /// Sign convention of the correlation term.
    #[serde(skip, default)]
    pub sign: SignConvention,
    /// Which encoding channel carries the payload.
    pub channel: EncodingChannel,
    /// Quantization stage (`None` releases the float model).
    pub quant: Option<QuantConfig>,
    /// Data-holder countermeasures applied to the release *after*
    /// quantization and *before* the final evaluation (`None` releases
    /// the model untouched — the undefended baseline).
    pub defense: Option<DefensePlan>,
}

impl FlowConfig {
    /// A minutes-scale preset: 16×16 images, ~100 K-weight model, a few
    /// epochs — the configuration the table benches use.
    pub fn small() -> Self {
        FlowConfig {
            seed: 7,
            arch: Architecture::ResNetLite,
            stage_channels: vec![12, 24, 48],
            blocks_per_stage: 2,
            train_fraction: 0.8333,
            epochs: 5,
            batch_size: 32,
            lr: 0.05,
            grouping: Grouping::LayerWise([0.0, 0.0, 5.0]),
            lambda_scale: 40.0,
            lambda_schedule: LambdaSchedule::Warmup,
            band: BandRule::Explicit {
                min: 50.0,
                max: 55.0,
            },
            sign: SignConvention::Positive,
            channel: EncodingChannel::Correlation,
            quant: Some(QuantConfig::new(QuantMethod::TargetCorrelated, 4)),
            defense: None,
        }
    }

    /// A seconds-scale preset for unit tests: tiny model, one epoch.
    pub fn tiny() -> Self {
        FlowConfig {
            stage_channels: vec![8, 16],
            blocks_per_stage: 1,
            epochs: 2,
            band: BandRule::FirstN,
            ..FlowConfig::small()
        }
    }

    /// A preset mirroring the paper's scale knobs as closely as the CPU
    /// substrate allows: larger model, more epochs. Expect tens of
    /// minutes per run.
    pub fn paper() -> Self {
        FlowConfig {
            stage_channels: vec![16, 32, 64],
            blocks_per_stage: 3,
            epochs: 12,
            ..FlowConfig::small()
        }
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidConfig`](crate::FlowError::InvalidConfig)
    /// describing the first problem found.
    pub fn validate(&self) -> crate::Result<()> {
        if self.stage_channels.is_empty() || self.blocks_per_stage == 0 {
            return Err(crate::FlowError::InvalidConfig {
                reason: "model needs at least one stage and one block".to_string(),
            });
        }
        if !(0.0..1.0).contains(&self.train_fraction) || self.train_fraction == 0.0 {
            return Err(crate::FlowError::InvalidConfig {
                reason: format!("train fraction {} outside (0, 1)", self.train_fraction),
            });
        }
        if self.epochs == 0 || self.batch_size == 0 {
            return Err(crate::FlowError::InvalidConfig {
                reason: "epochs and batch size must be non-zero".to_string(),
            });
        }
        if let Some(q) = &self.quant {
            if q.bits == 0 || q.bits > 16 {
                return Err(crate::FlowError::InvalidConfig {
                    reason: format!("quantization bits {} outside 1..=16", q.bits),
                });
            }
        }
        if let BandRule::Explicit { min, max } = self.band {
            if min >= max {
                return Err(crate::FlowError::InvalidConfig {
                    reason: format!("std band [{min}, {max}) is empty"),
                });
            }
        }
        if let EncodingChannel::StatSign { lambda } = self.channel {
            if !(lambda > 0.0 && lambda.is_finite()) {
                return Err(crate::FlowError::InvalidConfig {
                    reason: format!("statsign channel lambda {lambda} must be positive and finite"),
                });
            }
            if self.quant.map(|q| q.method) == Some(QuantMethod::TargetCorrelated) {
                return Err(crate::FlowError::InvalidConfig {
                    reason: "target-correlated quantization is defined over the correlation \
                             channel's pixel stream; pick another quantizer for statsign"
                        .to_string(),
                });
            }
        }
        if let Some(plan) = &self.defense {
            plan.validate()
                .map_err(|e| crate::FlowError::InvalidConfig {
                    reason: format!("defense plan: {e}"),
                })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        FlowConfig::small().validate().unwrap();
        FlowConfig::tiny().validate().unwrap();
        FlowConfig::paper().validate().unwrap();
    }

    #[test]
    fn grouping_is_attack() {
        assert!(!Grouping::Benign.is_attack());
        assert!(!Grouping::Uniform(0.0).is_attack());
        assert!(Grouping::Uniform(3.0).is_attack());
        assert!(Grouping::LayerWise([0.0, 0.0, 5.0]).is_attack());
        assert!(!Grouping::LayerWise([0.0; 3]).is_attack());
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut c = FlowConfig::small();
        c.stage_channels.clear();
        assert!(c.validate().is_err());

        let mut c = FlowConfig::small();
        c.train_fraction = 1.5;
        assert!(c.validate().is_err());

        let mut c = FlowConfig::small();
        c.quant = Some(QuantConfig::new(QuantMethod::Linear, 0));
        assert!(c.validate().is_err());

        let mut c = FlowConfig::small();
        c.band = BandRule::Explicit { min: 5.0, max: 5.0 };
        assert!(c.validate().is_err());

        // TargetCorrelated quantization needs the correlation channel's
        // pixel stream.
        let mut c = FlowConfig::small();
        c.channel = EncodingChannel::StatSign { lambda: 30.0 };
        assert!(c.validate().is_err());
        c.quant = Some(QuantConfig::new(QuantMethod::KMeans, 4));
        c.validate().unwrap();
        c.channel = EncodingChannel::StatSign { lambda: 0.0 };
        assert!(c.validate().is_err());

        let mut c = FlowConfig::small();
        c.defense = Some(
            qce_defense::DefensePlan::new(3)
                .with(qce_defense::DefenseKind::PruneScrub { fraction: 2.0 }),
        );
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_debug_is_informative() {
        let d = format!("{:?}", FlowConfig::small());
        assert!(d.contains("TargetCorrelated"));
        assert!(d.contains("LayerWise"));
    }
}
