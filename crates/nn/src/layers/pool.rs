use qce_tensor::conv::{
    global_avg_pool, global_avg_pool_backward, max_pool2d, max_pool2d_backward, ConvGeometry,
};
use qce_tensor::Tensor;

use crate::{Layer, Mode, NnError, Result};

/// 2-D max pooling over square windows.
///
/// # Examples
///
/// ```
/// use qce_nn::layers::MaxPool2d;
/// use qce_nn::{Layer, Mode};
/// use qce_tensor::Tensor;
///
/// # fn main() -> Result<(), qce_nn::NnError> {
/// let mut pool = MaxPool2d::new(2, 2);
/// let y = pool.forward(&Tensor::ones(&[1, 1, 4, 4]), Mode::Eval)?;
/// assert_eq!(y.dims(), &[1, 1, 2, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MaxPool2d {
    k: usize,
    geometry: ConvGeometry,
    cache: Option<(Vec<usize>, Vec<usize>)>, // (argmax, input dims)
}

impl MaxPool2d {
    /// Creates a max pool with a `k`×`k` window and the given stride.
    pub fn new(k: usize, stride: usize) -> Self {
        MaxPool2d {
            k,
            geometry: ConvGeometry::new(stride, 0),
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "max_pool2d"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let pooled = max_pool2d(input, self.k, self.geometry)
            .map_err(|e| NnError::tensor(self.name(), e))?;
        if mode == Mode::Train {
            self.cache = Some((pooled.argmax, input.dims().to_vec()));
        }
        Ok(pooled.output)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let (argmax, dims) = self.cache.as_ref().ok_or(NnError::BackwardBeforeForward {
            layer: "max_pool2d",
        })?;
        max_pool2d_backward(grad_out, argmax, dims).map_err(|e| NnError::tensor(self.name(), e))
    }
}

/// Global average pooling: `[N, C, H, W] -> [N, C]`.
///
/// Used as the classifier head's spatial reduction in
/// [`ResNetLite`](crate::models::ResNetLite).
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    input_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pool.
    pub fn new() -> Self {
        GlobalAvgPool { input_dims: None }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &'static str {
        "global_avg_pool"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let out = global_avg_pool(input).map_err(|e| NnError::tensor(self.name(), e))?;
        if mode == Mode::Train {
            self.input_dims = Some(input.dims().to_vec());
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let dims = self
            .input_dims
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward {
                layer: "global_avg_pool",
            })?;
        global_avg_pool_backward(grad_out, dims).map_err(|e| NnError::tensor(self.name(), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_forward_backward() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
        let g = pool
            .backward(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap())
            .unwrap();
        assert_eq!(g.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(g.at(&[0, 0, 3, 3]), 4.0);
        assert_eq!(g.sum(), 10.0);
    }

    #[test]
    fn global_avg_pool_forward_backward() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]).unwrap();
        let y = pool.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.as_slice(), &[4.0]);
        let g = pool
            .backward(&Tensor::from_vec(vec![8.0], &[1, 1]).unwrap())
            .unwrap();
        assert!(g.as_slice().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn backward_requires_forward() {
        let mut a = MaxPool2d::new(2, 2);
        assert!(a.backward(&Tensor::zeros(&[1, 1, 1, 1])).is_err());
        let mut b = GlobalAvgPool::new();
        assert!(b.backward(&Tensor::zeros(&[1, 1])).is_err());
    }
}
