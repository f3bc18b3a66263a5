use crate::{Result, Shape, TensorError};

/// A contiguous, row-major, n-dimensional array of `f32`.
///
/// `Tensor` is the single numeric container of the workspace: activations,
/// weights, gradients and decoded images all flow through it. It favors a
/// small, predictable API over generality — `f32` only, always contiguous,
/// no views.
///
/// # Examples
///
/// ```
/// use qce_tensor::Tensor;
///
/// # fn main() -> Result<(), qce_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// assert_eq!(t.at(&[1, 2]), 6.0);
/// assert_eq!(t.sum(), 21.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the volume of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::new(&[data.len()]),
            data: data.to_vec(),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The shape of this tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension sizes, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or coordinates are out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or coordinates are out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.volume() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: self.data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Flattens to rank 1.
    pub fn flatten(&self) -> Tensor {
        Tensor {
            shape: Shape::new(&[self.data.len()]),
            data: self.data.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Elementwise ops
    // ------------------------------------------------------------------

    /// Elementwise sum of two same-shape tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Elementwise difference of two same-shape tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product of two same-shape tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, "mul", |a, b| a * b)
    }

    /// In-place `self += alpha * other` (the BLAS `axpy` primitive).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns a new tensor with every element multiplied by `alpha`.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|x| x * alpha)
    }

    /// In-place scalar multiplication.
    pub fn scale_mut(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill(&mut self, value: f32) {
        for x in &mut self.data {
            *x = value;
        }
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    fn zip_with<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Tensor,
        op: &'static str,
        f: F,
    ) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element, or `None` if the tensor is empty.
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::max)
    }

    /// Minimum element, or `None` if the tensor is empty.
    pub fn min(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::min)
    }

    /// Index of the maximum element, or `None` if the tensor is empty.
    ///
    /// Ties resolve to the earliest index, matching classifier-argmax
    /// conventions.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Squared L2 norm of all elements.
    pub fn squared_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor.
    fn default() -> Self {
        Tensor {
            shape: Shape::new(&[0]),
            data: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(&[2, 2]).as_slice().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[3]).as_slice().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[4], 2.5).as_slice().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn eye_diagonal() {
        let t = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t.at(&[i, j]), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 4], &[2, 2]).is_ok());
        let err = Tensor::from_vec(vec![1.0; 3], &[2, 2]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 7.0);
        assert_eq!(t.at(&[1, 2]), 7.0);
        assert_eq!(t.as_slice()[5], 7.0);
    }

    #[test]
    fn add_sub_mul() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(matches!(
            a.add(&b),
            Err(TensorError::ShapeMismatch { op: "add", .. })
        ));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let b = Tensor::from_slice(&[2.0, 4.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(t.sum(), 2.0);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(t.max(), Some(3.0));
        assert_eq!(t.min(), Some(-2.0));
        assert_eq!(t.argmax(), Some(2));
        assert_eq!(t.squared_norm(), 14.0);
    }

    #[test]
    fn argmax_ties_resolve_first() {
        let t = Tensor::from_slice(&[5.0, 5.0, 1.0]);
        assert_eq!(t.argmax(), Some(0));
    }

    #[test]
    fn empty_tensor_reductions() {
        let t = Tensor::zeros(&[0]);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max(), None);
        assert_eq!(t.argmax(), None);
        assert!(t.is_empty());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let r = t.reshape(&[2, 2]).unwrap();
        assert_eq!(r.at(&[1, 0]), 3.0);
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn map_and_scale() {
        let t = Tensor::from_slice(&[1.0, -2.0]);
        assert_eq!(t.map(f32::abs).as_slice(), &[1.0, 2.0]);
        assert_eq!(t.scale(2.0).as_slice(), &[2.0, -4.0]);
        let mut m = t.clone();
        m.scale_mut(-1.0);
        assert_eq!(m.as_slice(), &[-1.0, 2.0]);
        m.fill(0.0);
        assert_eq!(m.as_slice(), &[0.0, 0.0]);
    }
}
