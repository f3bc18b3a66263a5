//! Learning-rate schedules.

/// Epoch-indexed learning-rate schedule.
///
/// # Examples
///
/// ```
/// use qce_nn::LrSchedule;
///
/// let s = LrSchedule::Cosine { total_epochs: 3, min_lr: 0.0 };
/// assert_eq!(s.lr_at(0, 0.1), 0.1);
/// assert!((s.lr_at(1, 0.1) - 0.05).abs() < 1e-7);
/// assert_eq!(s.lr_at(2, 0.1), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LrSchedule {
    /// Constant learning rate.
    #[default]
    Constant,
    /// Cosine annealing from the base rate to `min_lr` over `total_epochs`.
    Cosine {
        /// Total schedule length in epochs.
        total_epochs: usize,
        /// Floor learning rate at the end of the schedule.
        min_lr: f32,
    },
}

impl LrSchedule {
    /// The learning rate to use for `epoch` (0-based) given the base rate.
    pub fn lr_at(&self, epoch: usize, base_lr: f32) -> f32 {
        match *self {
            LrSchedule::Constant => base_lr,
            LrSchedule::Cosine {
                total_epochs,
                min_lr,
            } => {
                if total_epochs <= 1 {
                    return base_lr;
                }
                let t = (epoch.min(total_epochs - 1)) as f32 / (total_epochs - 1) as f32;
                min_lr + 0.5 * (base_lr - min_lr) * (1.0 + (std::f32::consts::PI * t).cos())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = LrSchedule::Constant;
        for e in 0..10 {
            assert_eq!(s.lr_at(e, 0.3), 0.3);
        }
    }

    #[test]
    fn cosine_endpoints() {
        let s = LrSchedule::Cosine {
            total_epochs: 10,
            min_lr: 0.01,
        };
        assert!((s.lr_at(0, 1.0) - 1.0).abs() < 1e-6);
        assert!((s.lr_at(9, 1.0) - 0.01).abs() < 1e-6);
        // Monotone decreasing.
        let mut prev = f32::INFINITY;
        for e in 0..10 {
            let lr = s.lr_at(e, 1.0);
            assert!(lr <= prev);
            prev = lr;
        }
        // Clamped past the end.
        assert!((s.lr_at(100, 1.0) - 0.01).abs() < 1e-6);
    }
}
