//! Parameter optimizers.

use qce_tensor::Tensor;

use crate::{Param, ParamKind};

/// Stochastic gradient descent with classical momentum and decoupled
/// weight decay.
///
/// Velocity buffers are allocated lazily on the first step and keyed by
/// parameter position, so the optimizer must always be fed the same
/// parameter list (as produced by
/// [`Network::params_mut`](crate::Network::params_mut)).
///
/// # Examples
///
/// ```
/// use qce_nn::{Param, ParamKind, Sgd};
/// use qce_tensor::Tensor;
///
/// let mut p = Param::new(Tensor::from_slice(&[1.0]), ParamKind::Weight);
/// p.grad_mut().as_mut_slice()[0] = 0.5;
/// let mut sgd = Sgd::new(0.1);
/// sgd.step(&mut [&mut p]);
/// assert!((p.value().as_slice()[0] - 0.95).abs() < 1e-6);
/// ```
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with the given learning rate (no momentum, no decay).
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with momentum and weight decay.
    ///
    /// Weight decay applies only to [`ParamKind::Weight`] parameters, the
    /// usual convention (biases and batch-norm affines are exempt).
    pub fn with_momentum(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate (used by schedules between epochs).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update step to `params` using their accumulated
    /// gradients. Gradients are *not* cleared; call
    /// [`Network::zero_grad`](crate::Network::zero_grad) before the next
    /// accumulation.
    ///
    /// # Panics
    ///
    /// Panics if the parameter list length changes between steps.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.value().dims()))
                .collect();
        }
        assert_eq!(
            self.velocity.len(),
            params.len(),
            "optimizer was initialized with a different parameter list"
        );
        for (p, v) in params.iter_mut().zip(self.velocity.iter_mut()) {
            let decay = if p.kind() == ParamKind::Weight {
                self.weight_decay
            } else {
                0.0
            };
            let lr = self.lr;
            let momentum = self.momentum;
            let value = p.value().as_slice().to_vec();
            let grad = p.grad().as_slice().to_vec();
            let vv = v.as_mut_slice();
            let pv = p.value_mut().as_mut_slice();
            for i in 0..pv.len() {
                let g = grad[i] + decay * value[i];
                vv[i] = momentum * vv[i] + g;
                pv[i] -= lr * vv[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(vals: &[f32], grads: &[f32], kind: ParamKind) -> Param {
        let mut p = Param::new(Tensor::from_slice(vals), kind);
        p.grad_mut().as_mut_slice().copy_from_slice(grads);
        p
    }

    #[test]
    fn plain_sgd_step() {
        let mut p = param(&[1.0, -2.0], &[0.5, -0.5], ParamKind::Weight);
        let mut sgd = Sgd::new(0.2);
        sgd.step(&mut [&mut p]);
        assert_eq!(p.value().as_slice(), &[0.9, -1.9]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut p = param(&[0.0], &[1.0], ParamKind::Weight);
        let mut sgd = Sgd::with_momentum(1.0, 0.5, 0.0);
        sgd.step(&mut [&mut p]); // v=1, w=-1
        assert_eq!(p.value().as_slice(), &[-1.0]);
        sgd.step(&mut [&mut p]); // v=1.5, w=-2.5
        assert_eq!(p.value().as_slice(), &[-2.5]);
    }

    #[test]
    fn weight_decay_only_on_weights() {
        let mut w = param(&[1.0], &[0.0], ParamKind::Weight);
        let mut b = param(&[1.0], &[0.0], ParamKind::Bias);
        let mut sgd = Sgd::with_momentum(0.1, 0.0, 0.1);
        sgd.step(&mut [&mut w, &mut b]);
        assert!((w.value().as_slice()[0] - 0.99).abs() < 1e-6);
        assert_eq!(b.value().as_slice()[0], 1.0);
    }

    #[test]
    fn set_lr_changes_step_size() {
        let mut p = param(&[0.0], &[1.0], ParamKind::Weight);
        let mut sgd = Sgd::new(1.0);
        sgd.set_lr(0.1);
        assert_eq!(sgd.lr(), 0.1);
        sgd.step(&mut [&mut p]);
        assert!((p.value().as_slice()[0] + 0.1).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "different parameter list")]
    fn param_list_length_change_panics() {
        let mut a = param(&[0.0], &[0.0], ParamKind::Weight);
        let mut b = param(&[0.0], &[0.0], ParamKind::Weight);
        let mut sgd = Sgd::new(0.1);
        sgd.step(&mut [&mut a, &mut b]);
        sgd.step(&mut [&mut a]);
    }
}
