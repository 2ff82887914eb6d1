//! Test hooks of the GEMM core: the product with a caller-owned pool or
//! workspace. Only tests call them; every other caller uses
//! [`Matrix::matmul`].

pub use crate::gemm::PackBuffer;
use crate::gemm::Activation;
use crate::Matrix;
use pddl_par::WorkPool;

/// [`Matrix::matmul`] with its macro-tiles over `pool`: the same bits for
/// any worker count, because the tile partition depends only on the shape.
pub fn matmul_pooled(a: &Matrix, b: &Matrix, pool: &WorkPool) -> Matrix {
    a.matmul_over(b, pool)
}

/// `a · b` serially through `pack`, to measure that a warm workspace
/// never reallocates.
pub fn matmul_with(a: &Matrix, b: &Matrix, pack: &mut PackBuffer) -> Matrix {
    a.assert_inner(b);
    let mut out = Matrix::zeros(a.rows(), b.cols());
    a.gemm_nn(b, None, Activation::Identity, false, &mut out, pack, None);
    out
}
