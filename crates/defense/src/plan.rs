//! Seeded, ordered composition of defenses — the defender's analogue of
//! `qce::faults::FaultPlan`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use qce_nn::Network;

use crate::countermeasures::{FinetuneScrub, NoiseWeights, PruneScrub, Requantize, Rotation};
use crate::{Defense, DefenseContext, DefenseError, Result};

/// How the [`Rotation`] defense re-parameterizes hidden channels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RotationMode {
    /// Compensated random channel permutation — the network's *exact*
    /// ReLU symmetry. Function-preserving up to float summation order;
    /// all-or-nothing (no severity knob).
    Permute,
    /// Blend each hidden basis toward a random orthogonal rotation
    /// obtained by QR (Gram–Schmidt) of a Gaussian matrix:
    /// `M = (1-s)·I + s·Q`, compensated on the consuming convolution by
    /// `M⁻¹`. Exact for the linear path but *lossy* through batch-norm
    /// and ReLU — a measured trade-off, not a free action.
    QrBlend {
        /// Blend strength `s` in `[0, 1]` (0 is the identity).
        strength: f32,
    },
}

/// One countermeasure family, parameterized by its strength.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DefenseKind {
    /// Hidden-channel re-parameterization (see [`RotationMode`]).
    Rotation {
        /// Permutation (exact symmetry) or QR blend (lossy rotation).
        mode: RotationMode,
    },
    /// Short defensive retraining on clean data from the
    /// [`DefenseContext`].
    FinetuneScrub {
        /// Retraining epochs (0 is a no-op).
        epochs: usize,
        /// Learning rate of the scrubbing pass.
        lr: f32,
    },
    /// Magnitude pruning: zero the smallest-|w| `fraction` per tensor.
    PruneScrub {
        /// Fraction of weights to zero, in `[0, 1)`.
        fraction: f32,
    },
    /// Defender-chosen k-means re-quantization at `bits`
    /// (levels = `2^bits`).
    Requantize {
        /// Codebook width in bits, `1..=16`.
        bits: u32,
    },
    /// Zero-mean Gaussian noise with σ = `fraction` of each tensor's own
    /// weight standard deviation.
    NoiseWeights {
        /// Noise σ as a fraction of the per-tensor weight σ.
        fraction: f32,
    },
}

impl DefenseKind {
    /// The severity parameter (0 means the defense is a no-op).
    /// All-or-nothing defenses ([`RotationMode::Permute`],
    /// [`DefenseKind::Requantize`]) report 1.
    pub fn severity(&self) -> f64 {
        match *self {
            DefenseKind::Rotation {
                mode: RotationMode::Permute,
            }
            | DefenseKind::Requantize { .. } => 1.0,
            DefenseKind::Rotation {
                mode: RotationMode::QrBlend { strength },
            } => f64::from(strength),
            DefenseKind::FinetuneScrub { epochs, .. } => epochs as f64,
            DefenseKind::PruneScrub { fraction } | DefenseKind::NoiseWeights { fraction } => {
                f64::from(fraction)
            }
        }
    }

    /// The defense with its severity multiplied by `factor` (fractions
    /// clamp below their validity ceiling). All-or-nothing defenses —
    /// permutation rotation and re-quantization — are returned
    /// unchanged: there is no partial permutation.
    pub fn scaled(&self, factor: f32) -> DefenseKind {
        match *self {
            DefenseKind::Rotation {
                mode: RotationMode::Permute,
            }
            | DefenseKind::Requantize { .. } => *self,
            DefenseKind::Rotation {
                mode: RotationMode::QrBlend { strength },
            } => DefenseKind::Rotation {
                mode: RotationMode::QrBlend {
                    strength: (strength * factor).min(1.0),
                },
            },
            DefenseKind::FinetuneScrub { epochs, lr } => DefenseKind::FinetuneScrub {
                epochs: ((epochs as f32) * factor).round() as usize,
                lr,
            },
            DefenseKind::PruneScrub { fraction } => DefenseKind::PruneScrub {
                fraction: (fraction * factor).min(0.99),
            },
            DefenseKind::NoiseWeights { fraction } => DefenseKind::NoiseWeights {
                fraction: fraction * factor,
            },
        }
    }

    /// Validates the defense's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DefenseError::InvalidDefense`] for out-of-range
    /// parameters.
    pub fn validate(&self) -> Result<()> {
        let invalid = |reason: String| Err(DefenseError::InvalidDefense { reason });
        match *self {
            DefenseKind::Rotation {
                mode: RotationMode::Permute,
            } => Ok(()),
            DefenseKind::Rotation {
                mode: RotationMode::QrBlend { strength },
            } => {
                if !strength.is_finite() || !(0.0..=1.0).contains(&strength) {
                    invalid(format!("QR blend strength {strength} outside [0, 1]"))
                } else {
                    Ok(())
                }
            }
            DefenseKind::FinetuneScrub { epochs, lr } => {
                if epochs > 0 && (!lr.is_finite() || lr <= 0.0) {
                    invalid(format!(
                        "fine-tune scrub lr {lr} must be positive and finite"
                    ))
                } else {
                    Ok(())
                }
            }
            DefenseKind::PruneScrub { fraction } => {
                if !fraction.is_finite() || !(0.0..1.0).contains(&fraction) {
                    invalid(format!("prune fraction {fraction} outside [0, 1)"))
                } else {
                    Ok(())
                }
            }
            DefenseKind::Requantize { bits } => {
                if bits == 0 || bits > 16 {
                    invalid(format!("requantize bits {bits} outside 1..=16"))
                } else {
                    Ok(())
                }
            }
            DefenseKind::NoiseWeights { fraction } => {
                if !fraction.is_finite() || fraction < 0.0 {
                    invalid(format!("noise fraction {fraction} must be non-negative"))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Builds the runnable countermeasure for this kind.
    pub fn instantiate(&self) -> Box<dyn Defense> {
        match *self {
            DefenseKind::Rotation { mode } => Box::new(Rotation { mode }),
            DefenseKind::FinetuneScrub { epochs, lr } => Box::new(FinetuneScrub { epochs, lr }),
            DefenseKind::PruneScrub { fraction } => Box::new(PruneScrub { fraction }),
            DefenseKind::Requantize { bits } => Box::new(Requantize { bits }),
            DefenseKind::NoiseWeights { fraction } => Box::new(NoiseWeights { fraction }),
        }
    }

    /// Short stable name (matches [`Defense::name`]).
    pub fn name(&self) -> &'static str {
        match *self {
            DefenseKind::Rotation { .. } => "rotation",
            DefenseKind::FinetuneScrub { .. } => "finetune-scrub",
            DefenseKind::PruneScrub { .. } => "prune-scrub",
            DefenseKind::Requantize { .. } => "requantize",
            DefenseKind::NoiseWeights { .. } => "noise-weights",
        }
    }
}

/// A seeded, ordered list of defenses applied to a released model.
///
/// Each defense draws from its own seed-derived RNG (like
/// `qce::faults::FaultPlan`), so plans compose independently of each
/// other's draw counts and reproduce exactly.
///
/// # Examples
///
/// ```
/// use qce_defense::{DefenseKind, DefensePlan};
///
/// let plan = DefensePlan::new(3)
///     .with(DefenseKind::PruneScrub { fraction: 0.2 })
///     .with(DefenseKind::NoiseWeights { fraction: 0.05 });
/// assert!(!plan.is_benign());
/// assert!(plan.scaled(0.0).is_benign());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefensePlan {
    seed: u64,
    defenses: Vec<DefenseKind>,
}

impl DefensePlan {
    /// Creates an empty plan; all randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        DefensePlan {
            seed,
            defenses: Vec::new(),
        }
    }

    /// Appends a defense (applied in insertion order).
    #[must_use]
    pub fn with(mut self, defense: DefenseKind) -> Self {
        self.defenses.push(defense);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The defenses in application order.
    pub fn defenses(&self) -> &[DefenseKind] {
        &self.defenses
    }

    /// The plan with every scalable severity multiplied by `factor`
    /// (same seed; see [`DefenseKind::scaled`] for the all-or-nothing
    /// exceptions).
    pub fn scaled(&self, factor: f32) -> DefensePlan {
        DefensePlan {
            seed: self.seed,
            defenses: self.defenses.iter().map(|d| d.scaled(factor)).collect(),
        }
    }

    /// Whether every defense is a no-op (empty plan or all severities
    /// zero). Plans containing a permutation rotation or a
    /// re-quantization are never benign.
    pub fn is_benign(&self) -> bool {
        self.defenses.iter().all(|d| d.severity() == 0.0)
    }

    /// Validates every defense in the plan.
    ///
    /// # Errors
    ///
    /// Returns the first [`DefenseError::InvalidDefense`].
    pub fn validate(&self) -> Result<()> {
        for d in &self.defenses {
            d.validate()?;
        }
        Ok(())
    }

    /// Each defense gets its own RNG so plans compose independently of
    /// each other's draw counts (and severity scaling stays nested).
    fn rng_for(&self, defense_index: usize) -> StdRng {
        StdRng::seed_from_u64(
            self.seed ^ (defense_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }

    /// Applies the plan to a released float network in place.
    ///
    /// # Errors
    ///
    /// Returns [`DefenseError::InvalidDefense`] for out-of-range
    /// parameters, [`DefenseError::MissingData`] when a defense needs
    /// training data `ctx` does not carry, or propagates weight-surgery
    /// failures.
    pub fn apply(&self, net: &mut Network, ctx: &DefenseContext<'_>) -> Result<()> {
        self.validate()?;
        for (di, kind) in self.defenses.iter().enumerate() {
            if kind.severity() == 0.0 {
                continue;
            }
            let defense = kind.instantiate();
            let _span = qce_telemetry::span!("defense.apply", name = defense.name());
            let mut rng = self.rng_for(di);
            defense.apply(net, ctx, &mut rng)?;
            qce_telemetry::counter("defense.applied").incr(1);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qce_nn::models::ResNetLite;

    fn net() -> Network {
        ResNetLite::builder()
            .input(1, 8)
            .classes(2)
            .stage_channels(&[4, 8])
            .blocks_per_stage(1)
            .build(4)
            .unwrap()
    }

    #[test]
    fn scaling_is_multiplicative_and_clamped() {
        let k = DefenseKind::PruneScrub { fraction: 0.4 };
        assert_eq!(k.scaled(2.0), DefenseKind::PruneScrub { fraction: 0.8 });
        assert_eq!(k.scaled(10.0), DefenseKind::PruneScrub { fraction: 0.99 });
        let n = DefenseKind::NoiseWeights { fraction: 0.1 };
        assert!(matches!(
            n.scaled(3.0),
            DefenseKind::NoiseWeights { fraction } if (fraction - 0.3).abs() < 1e-6
        ));
        // Scaled-up noise moves the weights monotonically further from
        // what a correlation decoder reads back.
        let mut released = net();
        let clean = released.flat_weights();
        let snapshot = released.snapshot();
        let mut last = 1.0;
        for factor in [2.0, 10.0] {
            released.restore(&snapshot).unwrap();
            DefensePlan::new(1)
                .with(n.scaled(factor))
                .apply(&mut released, &DefenseContext::empty())
                .unwrap();
            let rho = qce_tensor::stats::pearson(&clean, &released.flat_weights());
            assert!(rho < last, "x{factor}: correlation {rho} !< {last}");
            last = rho;
        }
        let f = DefenseKind::FinetuneScrub {
            epochs: 2,
            lr: 0.01,
        };
        assert_eq!(
            f.scaled(1.6),
            DefenseKind::FinetuneScrub {
                epochs: 3,
                lr: 0.01
            }
        );
    }

    #[test]
    fn all_or_nothing_defenses_ignore_scaling() {
        let r = DefenseKind::Rotation {
            mode: RotationMode::Permute,
        };
        assert_eq!(r.scaled(0.0), r);
        assert_eq!(r.severity(), 1.0);
        let q = DefenseKind::Requantize { bits: 4 };
        assert_eq!(q.scaled(0.5), q);
        assert_eq!(q.severity(), 1.0);
    }

    #[test]
    fn benignness_tracks_severity() {
        assert!(DefensePlan::new(1).is_benign());
        let plan = DefensePlan::new(1)
            .with(DefenseKind::NoiseWeights { fraction: 0.1 })
            .with(DefenseKind::PruneScrub { fraction: 0.2 });
        assert!(!plan.is_benign());
        assert!(plan.scaled(0.0).is_benign());
        // A benign plan (zero noise, zero pruning) is the identity.
        let mut released = net();
        let before = released.flat_weights();
        plan.scaled(0.0)
            .apply(&mut released, &DefenseContext::empty())
            .unwrap();
        assert_eq!(released.flat_weights(), before);
        // Permutation rotation cannot be scaled away.
        let rot = DefensePlan::new(1).with(DefenseKind::Rotation {
            mode: RotationMode::Permute,
        });
        assert!(!rot.scaled(0.0).is_benign());
    }

    #[test]
    fn validation_rejects_out_of_range_parameters() {
        for bad in [
            DefenseKind::Rotation {
                mode: RotationMode::QrBlend { strength: 1.5 },
            },
            DefenseKind::Rotation {
                mode: RotationMode::QrBlend { strength: f32::NAN },
            },
            DefenseKind::FinetuneScrub { epochs: 1, lr: 0.0 },
            DefenseKind::PruneScrub { fraction: 1.0 },
            DefenseKind::Requantize { bits: 0 },
            DefenseKind::Requantize { bits: 17 },
            DefenseKind::NoiseWeights { fraction: -0.1 },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
            assert!(DefensePlan::new(0).with(bad).validate().is_err());
        }
        // Epochs 0 tolerates any lr (the defense is a no-op).
        assert!(DefenseKind::FinetuneScrub { epochs: 0, lr: 0.0 }
            .validate()
            .is_ok());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            DefenseKind::Rotation {
                mode: RotationMode::Permute
            }
            .name(),
            "rotation"
        );
        assert_eq!(DefenseKind::Requantize { bits: 2 }.name(), "requantize");
    }
}
