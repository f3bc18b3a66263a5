use std::time::{Duration, Instant};

use qce_tensor::Tensor;
use rand::seq::SliceRandom;

use crate::loss::softmax_cross_entropy;
use crate::{LrSchedule, Mode, Network, NnError, Result, Sgd};

/// A training-time loss add-on with direct gradient access to the network.
///
/// This is the hook the DAC'20 attack exploits: the malicious
/// correlation-encoding term is implemented as a `Regularizer` that looks
/// indistinguishable from a benign weight penalty in the training code.
/// `apply` is called once per mini-batch *after* the task-loss backward
/// pass; it must add its own gradient contribution to the network
/// parameters (e.g. via
/// [`Network::add_flat_weight_grads`](crate::Network::add_flat_weight_grads))
/// and return its penalty value for logging.
pub trait Regularizer {
    /// Accumulates the regularizer's gradient into `net` and returns the
    /// penalty value added to the loss.
    ///
    /// # Errors
    ///
    /// Implementations should propagate layout errors.
    fn apply(&mut self, net: &mut Network) -> Result<f32>;

    /// Called once at the start of every epoch with the epoch index and
    /// the total epoch count, so schedule-aware regularizers (e.g. a
    /// warmup ramp on the correlation weight) can adjust their strength.
    /// The default does nothing.
    fn on_epoch(&mut self, _epoch: usize, _total_epochs: usize) {}

    /// Called when the trainer detects numerical divergence and rolls the
    /// network back to its last good snapshot; implementations should
    /// permanently reduce their aggressiveness before the retry. The
    /// default does nothing.
    fn on_divergence(&mut self) {}
}

/// Divergence-recovery policy of a [`Trainer`].
///
/// After every epoch the trainer checks the epoch's mean loss, the
/// regularizer penalty and all network weights for NaN/Inf. On
/// divergence it rolls the network back to the snapshot taken after the
/// last healthy epoch, rebuilds the optimizer (clearing momentum that
/// points into the blow-up), scales the learning rate down by
/// `lr_backoff`, notifies the regularizer via
/// [`Regularizer::on_divergence`], and retries the epoch — at most
/// `max_retries` times over the whole run before giving up with
/// [`NnError::Diverged`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DivergenceGuard {
    /// Whether the guard is active at all.
    pub enabled: bool,
    /// Total rollback budget for the run.
    pub max_retries: usize,
    /// Learning-rate multiplier applied at every rollback.
    pub lr_backoff: f32,
}

impl Default for DivergenceGuard {
    fn default() -> Self {
        DivergenceGuard {
            enabled: true,
            max_retries: 2,
            lr_backoff: 0.5,
        }
    }
}

impl DivergenceGuard {
    /// A guard that never intervenes (training fails fast instead).
    pub fn disabled() -> Self {
        DivergenceGuard {
            enabled: false,
            ..DivergenceGuard::default()
        }
    }
}

/// Hyper-parameters of a [`Trainer`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (the last batch of an epoch may be smaller).
    pub batch_size: usize,
    /// Base learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Weight decay applied to `Weight`-kind parameters.
    pub weight_decay: f32,
    /// Learning-rate schedule over epochs.
    pub schedule: LrSchedule,
    /// Seed for the per-epoch shuffle.
    pub shuffle_seed: u64,
    /// Divergence detection and rollback policy.
    pub guard: DivergenceGuard,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 5e-4,
            schedule: LrSchedule::Constant,
            shuffle_seed: 0x5eed,
            guard: DivergenceGuard::default(),
        }
    }
}

/// Per-epoch records returned by [`Trainer::fit`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainingHistory {
    /// Mean task loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Mean regularizer penalty of each epoch (zero without a regularizer).
    pub epoch_penalties: Vec<f32>,
    /// How many divergence rollbacks the [`DivergenceGuard`] performed.
    pub rollbacks: usize,
}

/// Mini-batch SGD training loop with an optional [`Regularizer`] hook.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `net` on images `x` (`[N, C, H, W]`) with class `labels`.
    ///
    /// When `regularizer` is provided, its gradient is accumulated after
    /// every task-loss backward pass — exactly how a malicious training
    /// algorithm smuggles the correlation term into a normal pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::SampleLabelMismatch`] if `x` and `labels`
    /// disagree, or propagates layer errors.
    pub fn fit(
        &mut self,
        net: &mut Network,
        x: &Tensor,
        labels: &[usize],
        mut regularizer: Option<&mut dyn Regularizer>,
    ) -> Result<TrainingHistory> {
        let n = x.dims()[0];
        if labels.len() != n {
            return Err(NnError::SampleLabelMismatch {
                samples: n,
                labels: labels.len(),
            });
        }
        if n == 0 || self.config.batch_size == 0 {
            return Err(NnError::InvalidConfig {
                reason: "empty dataset or zero batch size".to_string(),
            });
        }
        let make_optimizer = |config: &TrainConfig| {
            Sgd::with_momentum(config.lr, config.momentum, config.weight_decay)
        };
        let mut optimizer = make_optimizer(&self.config);
        let mut rng = qce_tensor::init::seeded_rng(self.config.shuffle_seed);
        let mut order: Vec<usize> = (0..n).collect();
        let mut history = TrainingHistory::default();
        let total_epochs = self.config.epochs;
        let mut last_good = net.snapshot();
        let mut lr_scale = 1.0f32;
        let mut retries_left = self.config.guard.max_retries;
        let mut epoch = 0usize;

        let loss_gauge = qce_telemetry::gauge("train.loss");
        let penalty_gauge = qce_telemetry::gauge("train.penalty");
        let lr_gauge = qce_telemetry::gauge("train.lr");
        let rollback_counter = qce_telemetry::counter("train.rollbacks");

        // Rate-limited progress heartbeat for long runs: `QCE_LOG=progress`
        // gets one line every ~5 s with an ETA from the recent-epoch mean,
        // instead of silence-until-done (`QCE_LOG=debug` also narrates
        // every epoch).
        const HEARTBEAT_EVERY: Duration = Duration::from_secs(5);
        const ETA_WINDOW: usize = 8;
        let heartbeat = qce_telemetry::level() >= qce_telemetry::Level::Progress;
        let mut last_beat = Instant::now();
        let mut epoch_secs: Vec<f64> = Vec::new();

        while epoch < total_epochs {
            let epoch_t0 = Instant::now();
            let _epoch_span = qce_telemetry::span!("train.epoch", epoch = epoch);
            if let Some(reg) = regularizer.as_deref_mut() {
                reg.on_epoch(epoch, total_epochs);
            }
            let lr = self.config.schedule.lr_at(epoch, self.config.lr) * lr_scale;
            optimizer.set_lr(lr);
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0f64;
            let mut penalty_sum = 0.0f64;
            let mut batches = 0usize;

            for chunk in order.chunks(self.config.batch_size) {
                let bx = gather_batch(x, chunk)?;
                let by: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                net.zero_grad();
                let logits = net.forward(&bx, Mode::Train)?;
                let out = softmax_cross_entropy(&logits, &by)?;
                net.backward(&out.grad)?;
                if let Some(reg) = regularizer.as_deref_mut() {
                    penalty_sum += reg.apply(net)? as f64;
                }
                optimizer.step(&mut net.params_mut());
                loss_sum += out.loss as f64;
                batches += 1;
            }

            let mean_loss = (loss_sum / batches as f64) as f32;
            let mean_penalty = (penalty_sum / batches as f64) as f32;

            if self.config.guard.enabled && !epoch_is_healthy(net, mean_loss, mean_penalty) {
                if retries_left == 0 {
                    return Err(NnError::Diverged {
                        epoch,
                        rollbacks: history.rollbacks,
                    });
                }
                retries_left -= 1;
                history.rollbacks += 1;
                rollback_counter.incr(1);
                net.restore(&last_good)?;
                // Momentum state points into the blow-up; rebuild it.
                optimizer = make_optimizer(&self.config);
                lr_scale *= self.config.guard.lr_backoff;
                if let Some(reg) = regularizer.as_deref_mut() {
                    reg.on_divergence();
                }
                qce_telemetry::debug!(
                    "epoch {epoch}: diverged (loss={mean_loss}), rolled back; \
                     retrying at lr scale {lr_scale}"
                );
                continue;
            }

            last_good = net.snapshot();
            history.epoch_losses.push(mean_loss);
            history.epoch_penalties.push(mean_penalty);
            loss_gauge.set(f64::from(mean_loss));
            penalty_gauge.set(f64::from(mean_penalty));
            lr_gauge.set(f64::from(lr));
            epoch += 1;
            qce_telemetry::debug!(
                "epoch {epoch}: loss={mean_loss:.4} penalty={mean_penalty:.4} lr={lr:.5}"
            );
            epoch_secs.push(epoch_t0.elapsed().as_secs_f64());
            if heartbeat && epoch < total_epochs && last_beat.elapsed() >= HEARTBEAT_EVERY {
                last_beat = Instant::now();
                let recent = &epoch_secs[epoch_secs.len().saturating_sub(ETA_WINDOW)..];
                let mean = recent.iter().sum::<f64>() / recent.len() as f64;
                let remaining = (total_epochs - epoch) as f64 * mean;
                qce_telemetry::log_line(
                    qce_telemetry::Level::Progress,
                    &format!(
                        "[train] epoch {epoch}/{total_epochs} ({:.0}%) — {mean:.1} s/epoch, \
                         ETA {remaining:.0} s",
                        100.0 * epoch as f64 / total_epochs as f64,
                    ),
                );
            }
        }
        Ok(history)
    }
}

/// Whether an epoch left the model in a numerically sound state: finite
/// loss, finite regularizer penalty and finite weights.
fn epoch_is_healthy(net: &Network, mean_loss: f32, mean_penalty: f32) -> bool {
    mean_loss.is_finite()
        && mean_penalty.is_finite()
        && net.flat_weights().iter().all(|w| w.is_finite())
}

/// Copies the rows of `x` (`[N, ...]`) selected by `indices` into a new
/// batch tensor.
///
/// # Errors
///
/// Returns an error if any index is out of bounds.
pub fn gather_batch(x: &Tensor, indices: &[usize]) -> Result<Tensor> {
    let n = x.dims()[0];
    let row = x.len() / n.max(1);
    let mut data = Vec::with_capacity(indices.len() * row);
    for &i in indices {
        if i >= n {
            return Err(NnError::InvalidConfig {
                reason: format!("batch index {i} out of range for {n} samples"),
            });
        }
        data.extend_from_slice(&x.as_slice()[i * row..(i + 1) * row]);
    }
    let mut dims = x.dims().to_vec();
    dims[0] = indices.len();
    Tensor::from_vec(data, &dims).map_err(|e| NnError::tensor("gather_batch", e))
}

/// Top-1 accuracy of `net` on images `x` with `labels`, evaluated in
/// mini-batches.
///
/// # Errors
///
/// Returns [`NnError::SampleLabelMismatch`] on length disagreement, or
/// propagates forward errors.
pub fn accuracy(net: &mut Network, x: &Tensor, labels: &[usize], batch_size: usize) -> Result<f32> {
    let n = x.dims()[0];
    if labels.len() != n {
        return Err(NnError::SampleLabelMismatch {
            samples: n,
            labels: labels.len(),
        });
    }
    if n == 0 {
        return Ok(0.0);
    }
    let mut correct = 0usize;
    let indices: Vec<usize> = (0..n).collect();
    for chunk in indices.chunks(batch_size.max(1)) {
        let bx = gather_batch(x, chunk)?;
        let preds = net.predict(&bx)?;
        for (p, &i) in preds.iter().zip(chunk.iter()) {
            if *p == labels[i] {
                correct += 1;
            }
        }
    }
    Ok(correct as f32 / n as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear, ReLU};
    use qce_tensor::init;

    fn toy_problem(seed: u64) -> (Tensor, Vec<usize>) {
        // Two linearly separable blobs in 4-d, rendered as [N,1,2,2] images.
        let mut rng = init::seeded_rng(seed);
        let n = 64;
        let mut data = Vec::with_capacity(n * 4);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            let center = if class == 0 { -1.0 } else { 1.0 };
            for _ in 0..4 {
                data.push(center + 0.3 * qce_tensor::init::standard_normal(&mut rng));
            }
            labels.push(class);
        }
        (Tensor::from_vec(data, &[n, 1, 2, 2]).unwrap(), labels)
    }

    fn mlp(seed: u64) -> Network {
        let mut rng = init::seeded_rng(seed);
        Network::new(vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(4, 8, &mut rng)),
            Box::new(ReLU::new()),
            Box::new(Linear::new(8, 2, &mut rng)),
        ])
    }

    #[test]
    fn training_reduces_loss_and_reaches_high_accuracy() {
        let (x, y) = toy_problem(1);
        let mut net = mlp(2);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 30,
            batch_size: 16,
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
            ..TrainConfig::default()
        });
        let history = trainer.fit(&mut net, &x, &y, None).unwrap();
        assert_eq!(history.epoch_losses.len(), 30);
        assert!(history.epoch_losses[29] < history.epoch_losses[0] * 0.5);
        let acc = accuracy(&mut net, &x, &y, 16).unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn fit_is_deterministic_given_seeds() {
        let (x, y) = toy_problem(3);
        let run = || {
            let mut net = mlp(4);
            let mut trainer = Trainer::new(TrainConfig {
                epochs: 3,
                batch_size: 8,
                ..TrainConfig::default()
            });
            trainer.fit(&mut net, &x, &y, None).unwrap();
            net.flat_weights()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn regularizer_hook_is_called_and_logged() {
        struct CountingReg {
            calls: usize,
        }
        impl Regularizer for CountingReg {
            fn apply(&mut self, _net: &mut Network) -> Result<f32> {
                self.calls += 1;
                Ok(1.5)
            }
        }
        let (x, y) = toy_problem(5);
        let mut net = mlp(6);
        let mut reg = CountingReg { calls: 0 };
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 2,
            batch_size: 16,
            ..TrainConfig::default()
        });
        let history = trainer.fit(&mut net, &x, &y, Some(&mut reg)).unwrap();
        assert_eq!(reg.calls, 2 * 4); // 2 epochs x ceil(64/16) batches
        assert!((history.epoch_penalties[0] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn fit_validates_inputs() {
        let (x, _) = toy_problem(7);
        let mut net = mlp(8);
        let mut trainer = Trainer::new(TrainConfig::default());
        assert!(matches!(
            trainer.fit(&mut net, &x, &[0, 1], None),
            Err(NnError::SampleLabelMismatch { .. })
        ));
    }

    #[test]
    fn gather_batch_selects_rows() {
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[4, 2]).unwrap();
        let b = gather_batch(&x, &[3, 0]).unwrap();
        assert_eq!(b.dims(), &[2, 2]);
        assert_eq!(b.as_slice(), &[6.0, 7.0, 0.0, 1.0]);
        assert!(gather_batch(&x, &[4]).is_err());
    }

    #[test]
    fn accuracy_on_empty_is_zero() {
        let mut net = mlp(9);
        let x = Tensor::zeros(&[0, 1, 2, 2]);
        assert_eq!(accuracy(&mut net, &x, &[], 4).unwrap(), 0.0);
    }
}
