//! Dense 2-D linear algebra: blocked matrix multiplication and transposition.
//!
//! These are the inner kernels of the `qce-nn` fully-connected and
//! im2col-convolution layers. The matmul is register-tiled (4×8
//! microkernel over a packed B panel) and row-parallel via
//! [`crate::par::Pool`]; rows are grouped into tasks sized by the
//! [`crate::tune`] cache profile, but the per-element accumulation
//! order is fixed by the tile shape — never by the thread count or the
//! task grouping — so every pool produces bit-for-bit identical output.
//! The microkernel and dot kernels dispatch through [`crate::simd`],
//! whose AVX2 paths replicate the scalar operation order exactly
//! (`QCE_SIMD=off` and `auto` agree bitwise).
//!
//! The dense inner loop deliberately has **no zero-skip branch**: on the
//! dense (or magnitude-pruned) weight matrices this workspace multiplies,
//! a data-dependent `if aip == 0.0 { continue; }` mispredicts and starves
//! the FMA pipeline. Sparse inputs belong to a dedicated sparse kernel,
//! not a branch in the dense one.

use crate::par::{self, Pool};
use crate::simd::{self, NR};
use crate::tune;
use crate::{Result, Tensor, TensorError};

/// Square tile edge for the cache-blocked transpose.
const TRANSPOSE_TILE: usize = 32;

/// Multiplies two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
///
/// Uses [`Pool::global`]; see [`matmul_with`] for an explicit pool.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not rank 2,
/// or [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use qce_tensor::{linalg, Tensor};
///
/// # fn main() -> Result<(), qce_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
/// let c = linalg::matmul(&a, &b)?;
/// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_with(Pool::global(), a, b)
}

/// [`matmul`] on an explicit pool (`Pool::serial()` is the scalar reference).
///
/// # Errors
///
/// Same contract as [`matmul`].
pub fn matmul_with(pool: &Pool, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_rank2("matmul", a)?;
    check_rank2("matmul", b)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut out = vec![0.0f32; m * n];
    matmul_into(pool, a.as_slice(), b.as_slice(), &mut out, m, k, n);
    Tensor::from_vec(out, &[m, n])
}

/// Multiplies by a pre-transposed right operand: `[m, k] x [n, k]ᵀ -> [m, n]`.
///
/// `b_t` holds Bᵀ row-major, i.e. `b_t[j]` is column `j` of B as a
/// contiguous slice. This is the layout `qce-nn` stores linear weights
/// and conv filter matrices in, so forward passes need no transpose and
/// no packing at all — each output element is one contiguous dot product.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not rank 2,
/// or [`TensorError::ShapeMismatch`] if the shared dimension disagrees.
pub fn matmul_b_t(a: &Tensor, b_t: &Tensor) -> Result<Tensor> {
    matmul_b_t_with(Pool::global(), a, b_t)
}

/// [`matmul_b_t`] on an explicit pool.
///
/// # Errors
///
/// Same contract as [`matmul_b_t`].
pub fn matmul_b_t_with(pool: &Pool, a: &Tensor, b_t: &Tensor) -> Result<Tensor> {
    check_rank2("matmul_b_t", a)?;
    check_rank2("matmul_b_t", b_t)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b_t.dims()[0], b_t.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_b_t",
            lhs: a.dims().to_vec(),
            rhs: b_t.dims().to_vec(),
        });
    }
    let mut out = vec![0.0f32; m * n];
    matmul_b_t_into(pool, a.as_slice(), b_t.as_slice(), &mut out, m, k, n);
    Tensor::from_vec(out, &[m, n])
}

/// Multiplies with a pre-transposed left operand: `[k, m]ᵀ x [k, n] -> [m, n]`.
///
/// Computes Aᵀ·B without materialising Aᵀ — exactly the shape of the
/// weight-gradient product `gradᵀ·x` in linear/conv backward passes,
/// which previously paid a full transpose per step.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not rank 2,
/// or [`TensorError::ShapeMismatch`] if the leading dimensions disagree.
pub fn matmul_a_t(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_a_t_with(Pool::global(), a, b)
}

/// [`matmul_a_t`] on an explicit pool.
///
/// # Errors
///
/// Same contract as [`matmul_a_t`].
pub fn matmul_a_t_with(pool: &Pool, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_rank2("matmul_a_t", a)?;
    check_rank2("matmul_a_t", b)?;
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_a_t",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut out = vec![0.0f32; m * n];
    matmul_a_t_into(pool, a.as_slice(), b.as_slice(), &mut out, k, m, n);
    Tensor::from_vec(out, &[m, n])
}

/// Raw-slice matmul into a caller-owned buffer (`out` need not be zeroed).
///
/// Shapes: `av` is `[m, k]`, `bv` is `[k, n]`, `out` is `[m, n]`, all
/// row-major. B is packed once into `NR`-wide column panels, then output
/// rows are processed in fixed `MR`-row blocks distributed over `pool`.
pub(crate) fn matmul_into(
    pool: &Pool,
    av: &[f32],
    bv: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(av.len(), m * k);
    debug_assert_eq!(bv.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let packed = pack_b(bv, k, n);
    let packed = &packed;
    let task_rows = tune::profile().matmul_rows_per_task(m, k);
    par::for_each_chunk(
        pool,
        out,
        task_rows * n,
        || (),
        |(), blk, rows| {
            simd::matmul_block(&av[blk * task_rows * k..], packed, rows, k, n);
        },
    );
}

/// Raw-slice `A·Bᵀ` into a caller-owned buffer (`out` need not be zeroed).
///
/// Shapes: `av` is `[m, k]`, `btv` is `[n, k]`, `out` is `[m, n]`.
pub(crate) fn matmul_b_t_into(
    pool: &Pool,
    av: &[f32],
    btv: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(av.len(), m * k);
    debug_assert_eq!(btv.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let task_rows = tune::profile().matmul_rows_per_task(m, k);
    par::for_each_chunk(
        pool,
        out,
        task_rows * n,
        || (),
        |(), blk, rows| {
            let i0 = blk * task_rows;
            for (r, orow) in rows.chunks_mut(n).enumerate() {
                let arow = &av[(i0 + r) * k..(i0 + r + 1) * k];
                for (j, o) in orow.iter_mut().enumerate() {
                    *o = simd::dot(arow, &btv[j * k..(j + 1) * k]);
                }
            }
        },
    );
}

/// Raw-slice `Aᵀ·B` into a caller-owned buffer.
///
/// Shapes: `av` is `[k, m]`, `bv` is `[k, n]`, `out` is `[m, n]`.
/// Accumulation runs over `p = 0..k` in ascending order for every output
/// block, so the result is identical for any pool.
pub(crate) fn matmul_a_t_into(
    pool: &Pool,
    av: &[f32],
    bv: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
) {
    debug_assert_eq!(av.len(), k * m);
    debug_assert_eq!(bv.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if out.is_empty() {
        return;
    }
    let task_rows = tune::profile().matmul_rows_per_task(m, k);
    par::for_each_chunk(
        pool,
        out,
        task_rows * n,
        || (),
        |(), blk, rows| {
            let i0 = blk * task_rows;
            let height = rows.len() / n;
            rows.fill(0.0);
            for p in 0..k {
                let acol = &av[p * m + i0..p * m + i0 + height];
                let brow = &bv[p * n..(p + 1) * n];
                for (r, orow) in rows.chunks_mut(n).enumerate() {
                    simd::axpy(acol[r], brow, orow);
                }
            }
        },
    );
}

/// Packs row-major `[k, n]` B into zero-padded `NR`-wide column panels.
///
/// Layout: `packed[(panel * k + p) * NR + lane]` holds `B[p, panel*NR + lane]`
/// (0.0 beyond column `n`), so the microkernel streams one contiguous
/// panel per `NR` output columns.
fn pack_b(bv: &[f32], k: usize, n: usize) -> Vec<f32> {
    let panels = n.div_ceil(NR);
    let mut packed = vec![0.0f32; panels * k * NR];
    for pi in 0..panels {
        let j0 = pi * NR;
        let w = NR.min(n - j0);
        let base = pi * k * NR;
        for p in 0..k {
            let dst = base + p * NR;
            packed[dst..dst + w].copy_from_slice(&bv[p * n + j0..p * n + j0 + w]);
        }
    }
    packed
}

/// Transposes a rank-2 tensor: `[m, n] -> [n, m]`.
///
/// Blocked over `TRANSPOSE_TILE`² (32²) tiles so both the load and store
/// streams stay within a few cache lines — the column-strided scalar
/// store was the worst-case pattern for the large im2col matrices this
/// still serves. A pure permutation, so trivially deterministic.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `a` is not rank 2.
pub fn transpose(a: &Tensor) -> Result<Tensor> {
    check_rank2("transpose", a)?;
    let (m, n) = (a.dims()[0], a.dims()[1]);
    let mut out = vec![0.0f32; m * n];
    transpose_into(a.as_slice(), &mut out, m, n);
    Tensor::from_vec(out, &[n, m])
}

/// Blocked transpose of row-major `[m, n]` `src` into `[n, m]` `dst`.
pub(crate) fn transpose_into(src: &[f32], dst: &mut [f32], m: usize, n: usize) {
    debug_assert_eq!(src.len(), m * n);
    debug_assert_eq!(dst.len(), m * n);
    for i0 in (0..m).step_by(TRANSPOSE_TILE) {
        let i1 = (i0 + TRANSPOSE_TILE).min(m);
        for j0 in (0..n).step_by(TRANSPOSE_TILE) {
            let j1 = (j0 + TRANSPOSE_TILE).min(n);
            for i in i0..i1 {
                let row = &src[i * n + j0..i * n + j1];
                for (j, &v) in row.iter().enumerate() {
                    dst[(j0 + j) * m + i] = v;
                }
            }
        }
    }
}

/// Matrix–vector product: `[m, k] x [k] -> [m]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] or [`TensorError::ShapeMismatch`]
/// on incompatible operands.
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    check_rank2("matvec", a)?;
    if x.shape().rank() != 1 {
        return Err(TensorError::RankMismatch {
            op: "matvec",
            expected: 1,
            actual: x.shape().rank(),
        });
    }
    let (m, k) = (a.dims()[0], a.dims()[1]);
    if k != x.len() {
        return Err(TensorError::ShapeMismatch {
            op: "matvec",
            lhs: a.dims().to_vec(),
            rhs: x.dims().to_vec(),
        });
    }
    let av = a.as_slice();
    let xv = x.as_slice();
    let mut out = vec![0.0f32; m];
    for (i, o) in out.iter_mut().enumerate() {
        *o = simd::dot(&av[i * k..(i + 1) * k], xv);
    }
    Tensor::from_vec(out, &[m])
}

/// Dot product of two rank-1 tensors (fixed four-accumulator reduction
/// tree — see [`crate::simd::dot`]).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the lengths differ.
pub fn dot(a: &Tensor, b: &Tensor) -> Result<f32> {
    if a.len() != b.len() {
        return Err(TensorError::ShapeMismatch {
            op: "dot",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    Ok(simd::dot(a.as_slice(), b.as_slice()))
}

fn check_rank2(op: &'static str, t: &Tensor) -> Result<()> {
    if t.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.shape().rank(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                out.set(&[i, j], acc);
            }
        }
        out
    }

    fn random_tensor(rng: &mut rand::rngs::StdRng, dims: &[usize]) -> Tensor {
        let len: usize = dims.iter().product();
        Tensor::from_vec(
            (0..len).map(|_| rng.random_range(-1.0..1.0)).collect(),
            dims,
        )
        .unwrap()
    }

    #[test]
    fn matmul_small_known() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for (m, k, n) in [(12, 5, 9), (4, 8, 8), (1, 1, 1), (5, 3, 17), (33, 16, 31)] {
            let a = random_tensor(&mut rng, &[m, k]);
            let b = random_tensor(&mut rng, &[k, n]);
            let fast = matmul(&a, &b).unwrap();
            let slow = naive_matmul(&a, &b);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!((x - y).abs() < 1e-4, "({m},{k},{n})");
            }
        }
    }

    #[test]
    fn matmul_b_t_matches_matmul() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for (m, k, n) in [(7, 13, 5), (4, 8, 8), (1, 9, 2), (21, 6, 19)] {
            let a = random_tensor(&mut rng, &[m, k]);
            let b = random_tensor(&mut rng, &[k, n]);
            let b_t = transpose(&b).unwrap();
            let via_bt = matmul_b_t(&a, &b_t).unwrap();
            let direct = naive_matmul(&a, &b);
            assert_eq!(via_bt.dims(), &[m, n]);
            for (x, y) in via_bt.as_slice().iter().zip(direct.as_slice()) {
                assert!((x - y).abs() < 1e-4, "({m},{k},{n})");
            }
        }
    }

    #[test]
    fn matmul_a_t_matches_matmul() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for (m, k, n) in [(7, 13, 5), (4, 8, 8), (2, 1, 3), (21, 6, 19)] {
            let a = random_tensor(&mut rng, &[k, m]);
            let b = random_tensor(&mut rng, &[k, n]);
            let a_t = transpose(&a).unwrap();
            let via_at = matmul_a_t(&a, &b).unwrap();
            let direct = naive_matmul(&a_t, &b);
            assert_eq!(via_at.dims(), &[m, n]);
            for (x, y) in via_at.as_slice().iter().zip(direct.as_slice()) {
                assert!((x - y).abs() < 1e-4, "({m},{k},{n})");
            }
        }
    }

    #[test]
    fn matmul_handles_zeros_without_skip_path() {
        // Rows of zeros exercised the removed `aip == 0.0` fast path;
        // the dense kernel must produce exact zeros for them regardless.
        let a = Tensor::from_vec(vec![0.0, 0.0, 1.0, 2.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[0.0, 0.0, 13.0, 16.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let c = matmul(&a, &Tensor::eye(2)).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::ShapeMismatch { .. })
        ));
        let v = Tensor::zeros(&[3]);
        assert!(matches!(
            matmul(&a, &v),
            Err(TensorError::RankMismatch { .. })
        ));
        assert!(matches!(
            matmul_b_t(&a, &Tensor::zeros(&[2, 4])),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            matmul_a_t(&a, &Tensor::zeros(&[4, 2])),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matmul_pools_agree_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let a = random_tensor(&mut rng, &[37, 19]);
        let b = random_tensor(&mut rng, &[19, 23]);
        let reference = matmul_with(&Pool::serial(), &a, &b).unwrap();
        for threads in [2, 3, 8] {
            let pool = Pool::with_threads(threads);
            let got = matmul_with(&pool, &a, &b).unwrap();
            let same = got
                .as_slice()
                .iter()
                .zip(reference.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "threads={threads}");
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let t = transpose(&a).unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), a.at(&[1, 2]));
        let tt = transpose(&t).unwrap();
        assert_eq!(tt, a);
    }

    #[test]
    fn transpose_blocked_matches_scalar() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let (m, n) = (45, 70);
        let a = random_tensor(&mut rng, &[m, n]);
        let t = transpose(&a).unwrap();
        for i in 0..m {
            for j in 0..n {
                assert_eq!(t.at(&[j, i]).to_bits(), a.at(&[i, j]).to_bits());
            }
        }
    }

    #[test]
    fn matvec_and_dot() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let x = Tensor::from_slice(&[1.0, -1.0]);
        let y = matvec(&a, &x).unwrap();
        assert_eq!(y.as_slice(), &[-1.0, -1.0]);
        assert_eq!(dot(&x, &x).unwrap(), 2.0);
        assert!(dot(&x, &Tensor::zeros(&[3])).is_err());
    }
}
